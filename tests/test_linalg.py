"""Unit tests for the dense linear-algebra substrate."""

from __future__ import annotations

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import koopcascade as kc
from koopcascade import conjugacy, linalg
from tests.conftest import cli_cascade


class TestEigDecompose:
    def test_identity(self):
        d = kc.eig_decompose(np.eye(2))
        np.testing.assert_allclose(d.eigenvalues, [1.0, 1.0], atol=1e-14)
        np.testing.assert_allclose(d.V @ d.Vinv, np.eye(2), atol=1e-12)
        np.testing.assert_allclose((d.V * d.eigenvalues) @ d.Vinv, np.eye(2), atol=1e-12)

    def test_diagonal_magnitude_sorted(self):
        d = kc.eig_decompose(np.diag([0.5, 0.9]))
        np.testing.assert_allclose(d.eigenvalues, [0.9, 0.5], atol=1e-15)
        # eigenvectors are a permutation of the canonical basis
        np.testing.assert_allclose(np.abs(d.V), [[0, 1], [1, 0]], atol=1e-14)

    def test_random_reconstruction(self):
        # oracle: multiply the factors back together
        rng = np.random.default_rng(1)
        L = rng.uniform(-1, 1, (5, 5))
        d = kc.eig_decompose(L)
        recon = (d.V * d.eigenvalues) @ d.Vinv
        rel = np.linalg.norm(recon - L, "fro") / np.linalg.norm(L, "fro")
        assert rel < 1e-10

    def test_sorting_deterministic(self):
        rng = np.random.default_rng(2)
        L = rng.uniform(-1, 1, (6, 6))
        d1 = kc.eig_decompose(L)
        d2 = kc.eig_decompose(L)
        assert np.array_equal(d1.eigenvalues, d2.eigenvalues)
        assert np.array_equal(d1.V, d2.V)

    def test_tie_break_order(self):
        # conjugate pair: equal magnitude and real part, +imag first
        L = np.array([[0.0, -0.5], [0.5, 0.0]])
        d = kc.eig_decompose(L)
        assert d.eigenvalues[0].imag > 0 > d.eigenvalues[1].imag

    def test_singular_rejected(self):
        with pytest.raises(kc.SingularMatrixError):
            kc.eig_decompose(np.diag([1.0, 0.0]))

    def test_defective_rejected(self):
        with pytest.raises(kc.NotDiagonalizableError):
            kc.eig_decompose(np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            kc.eig_decompose(np.zeros((2, 3)))

    def test_matrix_power_round_trip(self):
        # L^t = V diag(lambda^t) Vinv, the identity the closed form rests on
        rng = np.random.default_rng(3)
        for _ in range(10):
            L = linalg.random_matrix_with_norm(4, 4, 0.9, rng)
            d = kc.eig_decompose(L)
            power = lambda t: (d.V * d.eigenvalues**t) @ d.Vinv  # noqa: E731
            rel = np.linalg.norm(power(1) - L, "fro") / np.linalg.norm(L, "fro")
            assert rel < 1e-10
            np.testing.assert_allclose(
                power(3), L @ L @ L, atol=1e-10 * np.linalg.norm(L) ** 3 + 1e-12
            )


class TestOperatorNorm:
    def test_zero(self):
        assert kc.operator_norm(np.zeros((3, 3))) == 0.0

    def test_diagonal(self):
        assert kc.operator_norm(np.diag([0.5, 0.9])) == pytest.approx(0.9, abs=1e-14)

    def test_nilpotent_grid_oracle(self):
        # oracle: maximize ||Mx|| / ||x|| over a fine grid of unit vectors
        M = np.array([[0.0, 1.0], [0.0, 0.0]])
        thetas = np.linspace(0, np.pi, 20001)
        grid_max = max(
            np.linalg.norm(M @ np.array([np.cos(th), np.sin(th)])) for th in thetas
        )
        nrm = kc.operator_norm(M)
        assert nrm == pytest.approx(grid_max, abs=1e-6)
        assert nrm == pytest.approx(1.0, abs=1e-12)

    def test_submultiplicative(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            A = rng.uniform(-1, 1, (4, 4)) + 1j * rng.uniform(-1, 1, (4, 4))
            B = rng.uniform(-1, 1, (4, 4)) + 1j * rng.uniform(-1, 1, (4, 4))
            assert kc.operator_norm(A @ B) <= kc.operator_norm(A) * kc.operator_norm(B) + 1e-12


class TestCompositeNorm:
    def test_zero_state(self):
        assert kc.composite_norm([np.zeros(2), np.zeros(3)]) == 0.0

    def test_single_nonzero_layer(self):
        assert kc.composite_norm([np.array([3.0, 4.0]), np.array([0.0])]) == pytest.approx(5.0)

    def test_unit_layers(self):
        assert kc.composite_norm([np.array([1.0, 0.0]), np.array([0.0, 1.0])]) == pytest.approx(2.0)

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=6),
        st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=6),
        st.floats(-1e3, 1e3),
    )
    def test_triangle_and_homogeneity(self, xs, ys, alpha):
        n = min(len(xs), len(ys))
        x = [np.array(xs[:n])]
        y = [np.array(ys[:n])]
        xy = [x[0] + y[0]]
        scale = max(kc.composite_norm(x), kc.composite_norm(y), 1.0)
        assert kc.composite_norm(xy) <= kc.composite_norm(x) + kc.composite_norm(y) + 1e-12 * scale
        assert kc.composite_norm([alpha * x[0]]) == pytest.approx(
            abs(alpha) * kc.composite_norm(x), rel=1e-12, abs=1e-12
        )


def _block_operators(system):
    """V and Vinv (block diagonal) and Q V (block lower triangular), each
    with the flag that apply_by_block_rows takes for it."""
    QV = kc.compute_perturbation(system).Q @ system.V
    return [(system.V, False), (system.Vinv, False), (QV, True)]


class TestApplyByBlockRows:
    @pytest.mark.parametrize("case", ["scalar_pair", "general_triple", "seed45"])
    def test_matches_dense_product(self, case, request):
        system = cli_cascade(45) if case == "seed45" else request.getfixturevalue(case)
        dim = system.offsets[-1]
        rng = np.random.default_rng(11)
        X = rng.uniform(-1, 1, (201, dim)) + 1j * rng.uniform(-1, 1, (201, dim))
        u = np.finfo(float).eps
        for M, lower in _block_operators(system):
            got = linalg.apply_by_block_rows(X, M, system.offsets, lower=lower)
            err = np.linalg.norm(got - X @ M.T)
            assert err <= 4 * dim * u * np.linalg.norm(X) * np.linalg.norm(M)

    def test_reads_only_the_block_pattern(self, general_triple):
        # blocks outside the pattern are poisoned; no nan may reach the result
        off = general_triple.offsets
        X = np.arange(6.0).reshape(2, 3) + 1j
        for M, lower in _block_operators(general_triple):
            poisoned = np.where(np.tril(np.ones((3, 3))) if lower else np.eye(3), M, np.nan)
            got = linalg.apply_by_block_rows(X, poisoned, off, lower=lower)
            np.testing.assert_allclose(got, X @ M.T, rtol=1e-14, atol=0)

    def test_keeps_leading_axes(self, general_triple):
        M = general_triple.V
        X = np.ones((4, 5, 3), dtype=complex)
        assert linalg.apply_by_block_rows(X, M, general_triple.offsets).shape == (4, 5, 3)
        assert linalg.apply_by_block_rows(X[0, 0], M, general_triple.offsets).shape == (3,)


class TestNoSecondBlasThread:
    def test_orbit_checks_spend_no_cpu_beyond_wall(self):
        # OpenBLAS hands a complex gemm with m*n*k above 65,536 to a second
        # thread that then spins for about 0.1 s of CPU; a (201, 30) by
        # (30, 30) product crosses it. The first sleep lets a spin left by
        # earlier work end before the window opens, the second lets one
        # started inside the window end before process CPU is read. With
        # one core or one BLAS thread the test passes trivially.
        system = cli_cascade(45)
        pd = kc.compute_perturbation(system)
        x0 = system.random_state(np.random.default_rng(12))
        T = 200
        nl = conjugacy.NonlinearCascade(system, kc.identity_conjugacy())
        _, X = conjugacy.conjugated_orbit(nl, system.A, x0.stacked(), T)
        closed_form = kc.ClosedFormSolution(system, pd)
        time.sleep(0.3)
        wall0, cpu0 = time.perf_counter(), time.process_time()
        kc.compute_error_series(system, pd, x0, T)
        kc.check_eigenfunction_bounds(system, pd, x0, T)
        conjugacy.check_nonlinear_eigenfunction_decay(nl, pd, X)
        closed_form.trace(x0, T)
        wall = time.perf_counter() - wall0
        time.sleep(0.3)
        excess = time.process_time() - cpu0 - wall
        assert excess < 0.05, f"{excess * 1e3:.1f} ms of CPU beyond wall"


class _PowerCounter(np.ndarray):
    """ndarray that counts the np.power calls it takes part in and hands
    plain arrays on."""

    calls = 0

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.power:
            _PowerCounter.calls += 1
        plain = tuple(np.asarray(a) if isinstance(a, _PowerCounter) else a for a in inputs)
        return getattr(ufunc, method)(*plain, **kwargs)


class TestPerSystemTablesBuiltOnce:
    def test_one_power_table_and_one_norm_per_block(self, monkeypatch):
        # lam^t and ||D_ij|| depend only on the system: every orbit check on
        # one (system, pd) reads them from one table, built on first use.
        system = cli_cascade(45)
        pd = kc.compute_perturbation(system)
        x0 = system.random_state(np.random.default_rng(12))
        T = 200
        nl = conjugacy.NonlinearCascade(system, kc.identity_conjugacy())
        _, X = conjugacy.conjugated_orbit(nl, system.A, x0.stacked(), T)
        system.__dict__["lams"] = system.lams.view(_PowerCounter)
        monkeypatch.setattr(_PowerCounter, "calls", 0)
        svds = []

        def counting_norm(M, norm=linalg.operator_norm):
            svds.append(M.shape)
            return norm(M)

        monkeypatch.setattr(linalg, "operator_norm", counting_norm)

        kc.compute_error_series(system, pd, x0, T)
        kc.compute_error_series(system, pd, x0, T)
        kc.check_eigenfunction_bounds(system, pd, x0, T)
        kc.ClosedFormSolution(system, pd).trace(x0, T)
        kc.eigenfunction_residuals(system, pd, [x0], horizon=50)
        conjugacy.check_nonlinear_eigenfunction_decay(nl, pd, X)

        assert _PowerCounter.calls == 1
        assert len(svds) == system.n * (system.n - 1) // 2 == 21


class TestRandomMatrixWithNorm:
    def test_hits_target_norm(self):
        rng = np.random.default_rng(5)
        M = kc.random_matrix_with_norm(2, 2, 0.9, rng)
        assert kc.operator_norm(M) == pytest.approx(0.9, rel=1e-12)

    def test_scalar_is_sign(self):
        rng = np.random.default_rng(6)
        M = kc.random_matrix_with_norm(1, 1, 1.0, rng)
        assert abs(M[0, 0]) == pytest.approx(1.0, rel=1e-12)
        assert M[0, 0].imag == 0.0

    def test_deterministic(self):
        a = kc.random_matrix_with_norm(3, 4, 0.5, np.random.default_rng(7))
        b = kc.random_matrix_with_norm(3, 4, 0.5, np.random.default_rng(7))
        assert np.array_equal(a, b)

    def test_rejects_nonpositive_target(self):
        with pytest.raises(ValueError):
            kc.random_matrix_with_norm(2, 2, 0.0, np.random.default_rng(8))

    def test_unit_vector(self):
        v = kc.random_unit_vector(5, np.random.default_rng(9))
        assert np.linalg.norm(v) == pytest.approx(1.0, rel=1e-12)


class TestJson:
    def test_matrix_round_trip(self):
        rng = np.random.default_rng(10)
        M = rng.uniform(-1, 1, (3, 2)) + 1j * rng.uniform(-1, 1, (3, 2))
        obj = kc.matrix_to_json(M)
        assert obj["rows"] == 3 and obj["cols"] == 2 and len(obj["data"]) == 6
        np.testing.assert_array_equal(kc.matrix_from_json(obj), M)

    def test_matrix_shape_mismatch(self):
        with pytest.raises(ValueError):
            kc.matrix_from_json({"rows": 2, "cols": 2, "data": [[1, 0]]})

    def test_vector_round_trip(self):
        v = np.array([1.0 + 2.0j, -3.0])
        obj = linalg.vector_to_json(v)
        np.testing.assert_array_equal(linalg.vector_from_json(obj), v)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            linalg.as_complex_matrix([[np.nan, 0.0], [0.0, 1.0]])
