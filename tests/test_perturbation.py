"""Unit tests for the perturbation construction and closed-form solutions."""

from __future__ import annotations

import numpy as np
import pytest

import koopcascade as kc
from tests.conftest import cli_cascade, state_gap


def geometric_sum_direct(B, lam_i, lam_j, t):
    """Oracle: the finite sum sum_{k<t} diag(lam_i)^-k B diag(lam_j)^k."""
    acc = np.zeros_like(B, dtype=complex)
    for k in range(t):
        acc += np.diag(lam_i**-float(k)) @ B @ np.diag(lam_j ** float(k))
    return acc


def banded_spectra(rng, d_i, d_j):
    """Disjoint spectra with the upstream band strictly slower: |mu| in
    [0.3, 0.55] upstream, |lam| in [0.65, 0.95] downstream."""
    mag_i = rng.uniform(0.65, 0.95, d_i)
    mag_j = rng.uniform(0.3, 0.55, d_j)
    lam_i = mag_i * np.exp(1j * rng.uniform(0, 2 * np.pi, d_i))
    lam_j = mag_j * np.exp(1j * rng.uniform(0, 2 * np.pi, d_j))
    return lam_i, lam_j


class TestGeometricSumSolve:
    def test_zero_matrix(self):
        out = kc.geometric_sum_solve(np.zeros((2, 3)), [0.9, 0.8], [0.5, 0.4, 0.3])
        np.testing.assert_array_equal(out, np.zeros((2, 3)))

    def test_scalar_value(self):
        out = kc.geometric_sum_solve(np.array([[1.0]]), [0.9], [0.5])
        assert out[0, 0] == pytest.approx(2.25, abs=1e-15)

    def test_scalar_against_finite_sum(self):
        # oracle: finite sum equals Bt - Lam^-t Bt Mu^t for t = 1..20
        B = np.array([[1.0]])
        lam_i, lam_j = np.array([0.9]), np.array([0.5])
        Bt = kc.geometric_sum_solve(B, lam_i, lam_j)
        for t in range(1, 21):
            lhs = geometric_sum_direct(B, lam_i, lam_j, t)
            rhs = Bt - np.diag(lam_i**-float(t)) @ Bt @ np.diag(lam_j ** float(t))
            np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_resonant_rejected(self):
        with pytest.raises(kc.ResonantPairError):
            kc.geometric_sum_solve(np.ones((1, 1)), [0.5], [0.5])

    def test_identity_on_random_banded_spectra(self):
        # the two-sided geometric-sum identity, entrywise to 1e-10
        rng = np.random.default_rng(11)
        for _ in range(25):
            d_i, d_j = int(rng.integers(1, 7)), int(rng.integers(1, 7))
            lam_i, lam_j = banded_spectra(rng, d_i, d_j)
            B = rng.uniform(-1, 1, (d_i, d_j)) + 1j * rng.uniform(-1, 1, (d_i, d_j))
            Bt = kc.geometric_sum_solve(B, lam_i, lam_j)
            for t in (1, 2, 5, 17, 50):
                lhs = geometric_sum_direct(B, lam_i, lam_j, t)
                rhs = Bt - np.diag(lam_i**-float(t)) @ Bt @ np.diag(lam_j ** float(t))
                assert np.max(np.abs(lhs - rhs)) < 1e-10


class TestComputePerturbation:
    def test_single_layer(self):
        sys_ = kc.CascadeSystem.build([np.array([[0.9]])])
        pd = kc.compute_perturbation(sys_)
        np.testing.assert_array_equal(pd.D(1, 1), np.eye(1))
        np.testing.assert_array_equal(pd.P, np.eye(1))
        assert kc.perturbation_to_json(sys_, pd)["Ctilde"] == {}

    def test_decoupled_gives_identity(self):
        sys_ = kc.CascadeSystem.build(
            [np.diag([0.5, 0.4]), np.diag([0.9, 0.8])],
            {(2, 1): np.zeros((2, 2))},
        )
        pd = kc.compute_perturbation(sys_)
        ctilde = kc.matrix_from_json(kc.perturbation_to_json(sys_, pd)["Ctilde"]["2,1"])
        np.testing.assert_array_equal(ctilde, np.zeros((2, 2)))
        np.testing.assert_array_equal(pd.D(2, 1), np.zeros((2, 2)))
        np.testing.assert_array_equal(pd.P, np.eye(4))

    def test_scalar_pair_values(self, scalar_pair, scalar_pair_pd):
        pd = scalar_pair_pd
        ctilde = kc.perturbation_to_json(scalar_pair, pd)["Ctilde"]["2,1"]
        assert kc.matrix_from_json(ctilde)[0, 0] == pytest.approx(2.25, abs=1e-12)
        assert pd.D(2, 1)[0, 0] == pytest.approx(2.5, abs=1e-12)
        assert pd.P[1, 0] == pytest.approx(2.5, abs=1e-12)
        assert pd.P[1, 1] == 1.0

    def test_diagonal_blocks_exact_identity(self, replica):
        sys_, pd, _ = replica
        off = sys_.offsets
        for i in range(1, sys_.n + 1):
            np.testing.assert_array_equal(pd.D(i, i), np.eye(sys_.dims[i - 1]))
            np.testing.assert_array_equal(
                pd.P[off[i - 1] : off[i], off[i - 1] : off[i]], np.eye(sys_.dims[i - 1])
            )

    def test_general_coupling_hand_values(self, general_triple):
        pd = kc.compute_perturbation(general_triple)
        np.testing.assert_allclose(
            pd.P, [[1, 0, 0], [10 / 3, 1, 0], [65 / 9, 10 / 3, 1]], rtol=1e-15, atol=0
        )
        np.testing.assert_allclose(
            pd.Q, [[1, 0, 0], [-10 / 3, 1, 0], [35 / 9, -10 / 3, 1]], rtol=1e-15, atol=0
        )
        np.testing.assert_array_equal(pd.Q @ pd.P, np.eye(3))

    def test_full_coupling_on_replica_layers(self, replica):
        # every (i, j < i) coupled: P conjugates A to N, the closed form
        # tracks the iterated orbit and the error bounds hold
        sys_, _, x0 = replica
        rng = np.random.default_rng(7)
        full = kc.CascadeSystem.build(
            sys_.L,
            {
                (i, j): rng.uniform(-1.0, 1.0, (sys_.dims[i - 1], sys_.dims[j - 1]))
                for i in range(2, sys_.n + 1)
                for j in range(1, i)
            },
        )
        pd = kc.compute_perturbation(full)
        P, A = pd.P, full.A
        gap = np.linalg.norm(P @ A - full.N @ P, 2)
        assert gap <= 1e-15 * np.linalg.norm(P, 2) * np.linalg.norm(A, 2)
        closed = kc.ClosedFormSolution(full, pd).trace(x0, 100)
        coupled = kc.iterate_lin(full, x0, 100)
        for t in range(0, 101, 10):
            diff = state_gap(closed[t], coupled[t])
            assert diff <= 1e-8 * kc.composite_norm(coupled[t])
        es = kc.compute_error_series(full, pd, x0, 150)
        assert np.max(es.abs_err - es.bound_decaying) <= 1e-9

    def test_invalid_conditions_rejected(self):
        sys_ = kc.CascadeSystem.build(
            [np.array([[0.5]]), np.array([[0.5]])], {(2, 1): np.array([[1.0]])}
        )
        with pytest.raises(kc.ConditionsNotMetError):
            kc.compute_perturbation(sys_)

    def test_pert_map_invertible(self, replica):
        # block lower triangular with unit diagonal blocks: |det| = 1
        sys_, pd, x0 = replica
        M = pd.as_matrix()
        assert abs(np.linalg.det(M)) == pytest.approx(1.0, rel=1e-8)
        y = kc.apply_perturbation(pd, x0)
        recovered = np.linalg.solve(M, y.stacked())
        assert np.linalg.norm(recovered - x0.stacked()) < 1e-10


class TestApplyPerturbation:
    def test_zero_state(self, scalar_pair, scalar_pair_pd):
        out = kc.apply_perturbation(scalar_pair_pd, scalar_pair.zero_state())
        assert kc.composite_norm(out) == 0.0

    def test_single_layer_identity(self):
        sys_ = kc.CascadeSystem.build([np.array([[0.9]])])
        pd = kc.compute_perturbation(sys_)
        x = kc.StateVector.of([[2.0 + 1.0j]])
        np.testing.assert_array_equal(kc.apply_perturbation(pd, x).layer(1), x.layer(1))

    def test_scalar_pair_value(self, scalar_pair_pd):
        out = kc.apply_perturbation(scalar_pair_pd, kc.StateVector.of([[1.0], [1.0]]))
        np.testing.assert_allclose(out.layer(1), [1.0], atol=1e-15)
        np.testing.assert_allclose(out.layer(2), [3.5], atol=1e-12)

    def test_dim_mismatch(self, scalar_pair_pd):
        with pytest.raises(kc.DimensionMismatchError):
            kc.apply_perturbation(scalar_pair_pd, kc.StateVector.of([[1.0, 2.0], [1.0]]))

    def test_layer1_passthrough_bitwise(self, replica):
        sys_, pd, x0 = replica
        assert np.array_equal(kc.apply_perturbation(pd, x0).layer(1), x0.layer(1))


class TestClosedFormSolution:
    def test_t0_reproduces_initial_condition(self, replica):
        sys_, pd, x0 = replica
        cf = kc.ClosedFormSolution(sys_, pd)
        out = cf.at(x0, 0)
        scale = np.abs(pd.P).max()
        for i in range(1, sys_.n + 1):
            np.testing.assert_allclose(
                out.layer(i), x0.layer(i), atol=1e-12 * max(scale, 1.0)
            )

    def test_scalar_pair_t0_and_t1(self, scalar_pair, scalar_pair_pd):
        cf = kc.ClosedFormSolution(scalar_pair, scalar_pair_pd)
        x0 = kc.StateVector.of([[1.0], [1.0]])
        at0 = cf.at(x0, 0)
        np.testing.assert_allclose(at0.layer(1), [1.0], atol=1e-15)
        np.testing.assert_allclose(at0.layer(2), [1.0], atol=1e-12)
        out = cf.at(x0, 1)
        np.testing.assert_allclose(out.layer(1), [0.5], atol=1e-14)
        np.testing.assert_allclose(out.layer(2), [1.9], atol=1e-12)

    def test_matches_iteration(self):
        # oracle: direct step recursion of the coupled system
        for seed in (0, 1, 2):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(2, 8))
            dims = [int(d) for d in rng.integers(2, 7, n)]
            norms = [0.9 ** (n + 1 - i) for i in range(1, n + 1)]
            sys_ = kc.random_chained_cascade(dims, norms, rng)
            pd = kc.compute_perturbation(sys_)
            x0 = sys_.random_state(rng)
            cf = kc.ClosedFormSolution(sys_, pd)
            trace = kc.iterate_lin(sys_, x0, 200)
            states = cf.trace(x0, 200)
            for t in range(0, 201, 7):
                diff = state_gap(states[t], trace[t])
                assert diff <= 1e-8 * max(kc.composite_norm(trace[t]), 1e-300)

    def test_negative_t_rejected(self, scalar_pair, scalar_pair_pd):
        cf = kc.ClosedFormSolution(scalar_pair, scalar_pair_pd)
        with pytest.raises(ValueError):
            cf.at(kc.StateVector.of([[1.0], [1.0]]), -1)


class TestErrorBoundChain:
    def test_error_within_bounds_on_random_systems(self):
        # abs error <= decaying bound <= constant envelope, all (i, t)
        for seed in (3, 4, 5):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(2, 6))
            dims = [int(d) for d in rng.integers(2, 6, n)]
            norms = [0.9 ** (n + 1 - i) for i in range(1, n + 1)]
            sys_ = kc.random_chained_cascade(dims, norms, rng)
            pd = kc.compute_perturbation(sys_)
            x0 = sys_.random_state(rng)
            es = kc.compute_error_series(sys_, pd, x0, 150)
            env = es.bound_envelope()
            assert np.max(es.abs_err - es.bound_decaying) <= 1e-9
            assert np.max(es.bound_decaying - env) <= 1e-9


class TestPerturbationJson:
    def test_export_structure(self, scalar_pair, scalar_pair_pd):
        obj = kc.perturbation_to_json(scalar_pair, scalar_pair_pd)
        assert set(obj) == {"D", "Ctilde", "pert"}
        assert "2,1" in obj["D"] and "1,1" in obj["D"]
        assert "2,1" in obj["Ctilde"]
        assert len(obj["pert"]) == 2
        row2 = kc.matrix_from_json(obj["pert"][1])
        np.testing.assert_allclose(row2, [[2.5, 1.0]], atol=1e-12)


class TestStackedOperators:
    def test_scalar_pair_exact(self, scalar_pair, scalar_pair_pd):
        A, N = scalar_pair.A, scalar_pair.N
        P, Q = scalar_pair_pd.P, scalar_pair_pd.Q
        np.testing.assert_array_equal(A, [[0.5, 0.0], [1.0, 0.9]])
        np.testing.assert_array_equal(N, [[0.5, 0.0], [0.0, 0.9]])
        np.testing.assert_array_equal(P, [[1.0, 0.0], [2.5, 1.0]])
        np.testing.assert_array_equal(Q, [[1.0, 0.0], [-2.5, 1.0]])
        np.testing.assert_array_equal(P @ A, N @ P)
        np.testing.assert_array_equal(Q @ P, np.eye(2))

    def test_replica_conjugation(self, replica):
        # the seed-45 replica and the system repro-paper draws at seed 51
        # (resonance margin 1.4e-3)
        seed_51 = cli_cascade(51)
        for sys_, pd in (replica[:2], (seed_51, kc.compute_perturbation(seed_51))):
            P, A = pd.P, sys_.A
            gap = np.linalg.norm(P @ A - sys_.N @ P, 2)
            assert gap <= 1e-15 * np.linalg.norm(P, 2) * np.linalg.norm(A, 2)
