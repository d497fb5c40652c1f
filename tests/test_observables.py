"""Unit tests for inherited eigenfunctions, their checks, and Laplace averages."""

from __future__ import annotations

import numpy as np
import pytest

import koopcascade as kc
from koopcascade.observables import PERIPHERAL_TOL
from koopcascade.orbits import stacked_orbit
from tests.conftest import cli_cascade

LAPLACE_NS = (10, 100, 1000)
INCOMPLETE = "DeflationIncompleteError"


@pytest.fixture(scope="module")
def diag_pair():
    """Layer norms 0.5 < 0.9 with an interior eigenvalue 0.2 in layer 2;
    everything about its spectrum is readable off the diagonals."""
    return kc.CascadeSystem.build(
        [np.array([[0.5]]), np.diag([0.9, 0.2])],
        {(2, 1): np.array([[1.0], [1.0]])},
    )


@pytest.fixture(scope="module")
def diag_pair_pd(diag_pair):
    return kc.compute_perturbation(diag_pair)


def _random_states(rng, dim, k):
    """k random complex states of the given dim, as the columns of one array."""
    return rng.uniform(-1, 1, (dim, k)) + 1j * rng.uniform(-1, 1, (dim, k))


class TestPrincipalEigenfunction:
    def test_scalar_layer(self, scalar_pair):
        d = scalar_pair.eig_of(2)
        assert d.eigenvalues[0] == pytest.approx(0.9)
        assert d.Vinv[0] @ np.array([2.0 + 1.0j]) == pytest.approx(2.0 + 1.0j)

    def test_diag_layer_picks_dominant(self, diag_pair):
        # oracle: check psi(Lx) = 0.9 psi(x) on random x
        d = diag_pair.eig_of(2)
        assert d.eigenvalues[0] == pytest.approx(0.9)
        X = _random_states(np.random.default_rng(0), 2, 20)
        np.testing.assert_allclose(
            d.Vinv[0] @ (diag_pair.L[1] @ X), 0.9 * (d.Vinv[0] @ X), rtol=1e-12, atol=1e-14
        )

    def test_defining_identity_on_random_systems(self, replica):
        # each row of V_i^-1 is a left eigenvector of L_i at its eigenvalue
        sys_, _, _ = replica
        rng = np.random.default_rng(1)
        for i in range(1, sys_.n + 1):
            d = sys_.eig_of(i)
            X = _random_states(rng, sys_.dims[i - 1], 100 // sys_.dims[i - 1])
            psi = d.Vinv @ X
            diff = np.abs(d.Vinv @ (sys_.L[i - 1] @ X) - d.eigenvalues[:, None] * psi)
            assert np.all(diff <= 1e-10 * (1 + np.abs(psi)))

    def test_index_out_of_range(self, scalar_pair):
        for i, s in ((1, 2), (3, 1), (1, 0)):
            with pytest.raises(IndexError):
                kc.observables.eigenfunction_to_json(scalar_pair, i, s, True)


class TestExtendToCascade:
    def test_reads_only_its_layer(self, diag_pair):
        m = diag_pair.modes.index((2, 1))
        a = np.array([1.0, 2.0, 3.0], dtype=complex)
        b = np.array([-9.0, 2.0, 3.0], dtype=complex)
        assert (diag_pair.Vinv @ a)[m] == (diag_pair.Vinv @ b)[m]
        assert np.all(diag_pair.Vinv[1:, :1] == 0)

    def test_layer1_extension_equals_base(self, scalar_pair, scalar_pair_pd):
        # block row 1 of P is the identity: psi_1 o P is psi_1
        x = np.array([2.5, 7.0], dtype=complex)
        phi = kc.inherited_eigenfunctions(scalar_pair, scalar_pair_pd, x)
        assert phi[0] == pytest.approx(scalar_pair.eig_of(1).Vinv[0] @ x[:1])


class TestProduct:
    def test_multi_indices_add_eigenvalues_multiply(self, diag_pair, diag_pair_pd):
        # (psi_11 o P)(psi_22 o P) is exact under the coupled step at 0.5 * 0.2
        a, b = diag_pair.modes.index((1, 1)), diag_pair.modes.index((2, 2))
        lam = diag_pair.lams[a] * diag_pair.lams[b]
        assert lam == pytest.approx(0.1)
        X = _random_states(np.random.default_rng(2), 3, 20)
        now = kc.inherited_eigenfunctions(diag_pair, diag_pair_pd, X)
        after = kc.inherited_eigenfunctions(diag_pair, diag_pair_pd, diag_pair.A @ X)
        np.testing.assert_allclose(
            after[a] * after[b], lam * now[a] * now[b], rtol=1e-12, atol=1e-14
        )

    def test_pointwise_product(self, diag_pair, diag_pair_pd):
        # along the coupled orbit, a product across layers decays at the
        # product eigenvalue at every t
        a, b = diag_pair.modes.index((1, 1)), diag_pair.modes.index((2, 1))
        lam = diag_pair.lams[a] * diag_pair.lams[b]
        X = _random_states(np.random.default_rng(3), 3, 20)
        orbit = stacked_orbit(diag_pair.A, X, 20)
        phi = kc.inherited_eigenfunctions(diag_pair, diag_pair_pd, orbit)
        prod = phi[:, a] * phi[:, b]
        expect = lam ** np.arange(21)[:, None] * prod[0]
        np.testing.assert_allclose(prod, expect, rtol=1e-10, atol=1e-14)

    def test_semigroup_eigenvalue_exact(self, replica):
        # the product of every layer's leading psi_i o P under the coupled
        # dynamics: (prod lambda_i)^t times its value at x
        sys_, pd, _ = replica
        idx = sys_.offsets[:-1]
        lam = np.prod(sys_.lams[idx])
        x = sys_.random_state(np.random.default_rng(3)).stacked()
        value = np.prod(kc.inherited_eigenfunctions(sys_, pd, x)[idx])
        orbit = stacked_orbit(sys_.A, x, 7)
        for t in (1, 3, 7):
            got = np.prod(kc.inherited_eigenfunctions(sys_, pd, orbit[t])[idx])
            assert got == pytest.approx(lam**t * value, rel=1e-9, abs=1e-12)


class TestKoopmanApply:
    def test_nominal_eigen_decay(self, replica):
        # (prod lambda_i)^t psi(x) under the decoupled dynamics
        sys_, _, _ = replica
        idx = sys_.offsets[:-1]
        lam = np.prod(sys_.lams[idx])
        x = sys_.random_state(np.random.default_rng(3)).stacked()
        orbit = stacked_orbit(sys_.N, x, 7)
        for t in (1, 3, 7):
            expect = lam**t * np.prod((sys_.Vinv @ x)[idx])
            assert np.prod((sys_.Vinv @ orbit[t])[idx]) == pytest.approx(
                expect, rel=1e-9, abs=1e-12
            )

    def test_lin_with_pert_hand_value(self, scalar_pair, scalar_pair_pd):
        # pert-composed eigenfunction under the coupled step: 0.9 * 3.5 = 3.15
        x = np.array([1.0, 1.0], dtype=complex)
        now = kc.inherited_eigenfunctions(scalar_pair, scalar_pair_pd, x)
        after = kc.inherited_eigenfunctions(scalar_pair, scalar_pair_pd, scalar_pair.A @ x)
        assert after[1] == pytest.approx(3.15, abs=1e-12)
        assert now[1] == pytest.approx(3.5, abs=1e-12)


class TestEigenfunctionResidual:
    def test_decoupled_zero(self):
        sys_ = kc.CascadeSystem.build(
            [np.diag([0.4, 0.3]), np.diag([0.9, 0.8])],
            {(2, 1): np.zeros((2, 2))},
        )
        pd = kc.compute_perturbation(sys_)
        samples = [sys_.random_state(np.random.default_rng(4)) for _ in range(5)]
        res = kc.eigenfunction_residuals(sys_, pd, samples, horizon=20)
        assert max(res.values()) < 1e-13

    def test_scalar_pair_tight(self, scalar_pair, scalar_pair_pd):
        samples = [scalar_pair.random_state(np.random.default_rng(5)) for _ in range(10)]
        res = kc.eigenfunction_residuals(scalar_pair, scalar_pair_pd, samples, horizon=50)
        assert res[(2, 1)] < 1e-10

    def test_replica_all_pairs(self, replica):
        sys_, pd, _ = replica
        samples = [sys_.random_state(np.random.default_rng(6)) for _ in range(20)]
        res = kc.eigenfunction_residuals(sys_, pd, samples, horizon=50)
        assert len(res) == sum(sys_.dims)
        assert max(res.values()) < 1e-8


    def test_batched_matches_per_sample_loop(self):
        # the per-sample loop the batched sweep replaced, as the oracle. With
        # the system's own P every residual is rounding noise, and the two
        # summation orders differ at that scale, u ||Vinv|| ||P||. With the
        # P of another cascade the residuals are of order 1 and must agree
        # to 1e-13.
        system = cli_cascade(45)
        other = kc.random_chained_cascade(
            list(system.dims), list(system.norms), np.random.default_rng(8)
        )
        rng = np.random.default_rng(7)
        samples = [system.random_state(rng) for _ in range(20)]
        horizon = 50
        lam_t = system.lams ** np.arange(1, horizon + 1)[:, None]
        own = kc.compute_perturbation(system)
        rounding = np.finfo(float).eps * kc.operator_norm(system.Vinv) * kc.operator_norm(own.P)
        for pd, atol in [(kc.compute_perturbation(other), 1e-13), (own, rounding)]:
            worst = np.zeros(len(system.modes))
            for x in samples:
                orbit = stacked_orbit(system.A, x.stacked(), horizon)
                f = (orbit @ pd.P.T) @ system.Vinv.T
                resid = np.abs(f[1:] - lam_t * f[0]) / np.maximum(1.0, np.abs(f[0]))
                worst = np.maximum(worst, resid.max(axis=0))
            res = kc.eigenfunction_residuals(system, pd, samples, horizon=horizon)
            assert list(res) == list(system.modes)
            np.testing.assert_allclose(list(res.values()), worst, rtol=1e-13, atol=atol)

    def test_no_samples(self, scalar_pair, scalar_pair_pd):
        res = kc.eigenfunction_residuals(scalar_pair, scalar_pair_pd, [], horizon=5)
        assert res == {(1, 1): 0.0, (2, 1): 0.0}


class TestEigenfunctionBounds:
    def test_replica_bounds_and_decay(self, replica):
        sys_, pd, x0 = replica
        rep = kc.check_eigenfunction_bounds(sys_, pd, x0, 100)
        assert rep.bounds_ok, rep.max_bound_violation
        assert rep.decay_ok
        assert rep.passed
        # ratio decays by >= 1e3 from its max for every coupled layer pair
        assert all(r < 1e-3 for r in rep.decay_ratios.values())

    def test_decoupled_trivially_passes(self):
        sys_ = kc.CascadeSystem.build(
            [np.diag([0.4, 0.3]), np.diag([0.9, 0.8])],
            {(2, 1): np.zeros((2, 2))},
        )
        pd = kc.compute_perturbation(sys_)
        x0 = sys_.random_state(np.random.default_rng(7))
        rep = kc.check_eigenfunction_bounds(sys_, pd, x0, 60)
        assert rep.passed


class TestLaplaceAverage:
    def test_decoupled_exact_every_n(self):
        sys_ = kc.CascadeSystem.build(
            [np.array([[0.5]]), np.diag([0.9, 0.2])],
        )
        pd = kc.compute_perturbation(sys_)
        x = sys_.random_state(np.random.default_rng(8))
        target = kc.inherited_eigenfunctions(sys_, pd, x.stacked())[1]
        for N in (1, 5, 50):
            avg = kc.laplace_average(sys_, pd, 2, 1, x, N)
            assert avg == pytest.approx(target, rel=1e-10, abs=1e-12)

    def test_scalar_pair_converges_with_rate(self, scalar_pair, scalar_pair_pd):
        # partial-sum oracle: error at N vs 2N approximately halves
        x = kc.StateVector.of([[1.0], [1.0]])
        target = 3.5
        errs = {
            N: abs(kc.laplace_average(scalar_pair, scalar_pair_pd, 2, 1, x, N) - target)
            for N in (250, 500, 1000, 2000)
        }
        assert errs[1000] < 5e-3 * abs(target)
        for N in (250, 500, 1000):
            assert errs[2 * N] < errs[N]
            assert errs[2 * N] == pytest.approx(errs[N] / 2, rel=0.2)

    def test_layer1_exact_every_n(self, scalar_pair, scalar_pair_pd):
        x = kc.StateVector.of([[0.7], [0.3]])
        target = scalar_pair.eig_of(1).Vinv[0] @ x.layer(1)
        for N in (1, 10, 100):
            avg = kc.laplace_average(scalar_pair, scalar_pair_pd, 1, 1, x, N)
            assert avg == pytest.approx(target, rel=1e-12, abs=1e-14)

    def test_not_peripheral_raises(self, diag_pair, diag_pair_pd):
        x = diag_pair.random_state(np.random.default_rng(9))
        with pytest.raises(kc.NotPeripheralError):
            kc.laplace_average(diag_pair, diag_pair_pd, 2, 2, x, 50)

    def test_convergence_envelope(self, scalar_pair, scalar_pair_pd):
        # |avg(N) - target| is non-increasing and below C/N, C from the
        # first ten terms (with a 1.25 safety factor)
        x = kc.StateVector.of([[1.0], [1.0]])
        target = 3.5
        errs = [
            abs(kc.laplace_average(scalar_pair, scalar_pair_pd, 2, 1, x, N) - target)
            for N in range(1, 81)
        ]
        for k in range(1, len(errs)):
            assert errs[k] <= errs[k - 1] * (1 + 1e-12) + 1e-15
        C = 1.25 * max((k + 1) * e for k, e in enumerate(errs[:10]))
        for k, e in enumerate(errs):
            assert e < C / (k + 1)


class TestDeflatedLaplaceAverage:
    def test_peripheral_matches_plain(self, scalar_pair, scalar_pair_pd):
        x = kc.StateVector.of([[1.0], [1.0]])
        for N in (10, 200):
            plain = kc.laplace_average(scalar_pair, scalar_pair_pd, 2, 1, x, N)
            deflated = kc.laplace_average(
                scalar_pair, scalar_pair_pd, 2, 1, x, N, deflate=True
            )
            assert deflated == pytest.approx(plain, rel=1e-10, abs=1e-12)

    def test_converges_where_raw_average_diverges(self, diag_pair, diag_pair_pd):
        # interior eigenvalue 0.2 sits below the upstream modes (0.5, 0.9):
        # the raw average blows up, the deflated one nails psi o pert
        x = kc.StateVector.of([[1.0], [1.0, 1.0]])
        m = diag_pair.modes.index((2, 2))
        target = kc.inherited_eigenfunctions(diag_pair, diag_pair_pd, x.stacked())[m]
        lam = diag_pair.lams[m]
        assert abs(lam) == pytest.approx(0.2, abs=1e-12)

        # raw-average oracle: the plain psi along the coupled orbit
        orbit = stacked_orbit(diag_pair.A, x.stacked(), 20)
        raw_terms = (orbit @ diag_pair.Vinv[m]) / lam ** np.arange(21)
        raw_errs = [
            abs(np.mean(raw_terms[:N]) - target) for N in (5, 10, 15, 20)
        ]
        assert raw_errs[-1] > 100 * abs(target)  # diverging
        assert raw_errs[-1] > raw_errs[0]

        for N in (5, 10, 20):
            avg = kc.laplace_average(diag_pair, diag_pair_pd, 2, 2, x, N, deflate=True)
            assert avg == pytest.approx(target, rel=1e-6, abs=1e-9)

    def test_decoupled_interior_exact(self):
        sys_ = kc.CascadeSystem.build([np.array([[0.5]]), np.diag([0.9, 0.2])])
        pd = kc.compute_perturbation(sys_)
        x = sys_.random_state(np.random.default_rng(10))
        target = kc.inherited_eigenfunctions(sys_, pd, x.stacked())[sys_.modes.index((2, 2))]
        for N in (1, 7, 40):
            avg = kc.laplace_average(sys_, pd, 2, 2, x, N, deflate=True)
            assert avg == pytest.approx(target, rel=1e-10, abs=1e-12)

    def test_noise_takeover_raises(self, diag_pair, diag_pair_pd):
        # rounding noise grows like (0.9 / 0.2)^t; deep averages must refuse
        x = kc.StateVector.of([[1.0], [1.0, 1.0]])
        with pytest.raises(kc.DeflationIncompleteError):
            kc.laplace_average(diag_pair, diag_pair_pd, 2, 2, x, 400, deflate=True)


def _laplace_mode(system, pd, x, m):
    """One mode's Laplace quantities, computed on their own: the subsystem
    end k, lambda, whether the mode is deflated, the averaged row, its
    coefficients along the exact eigenfunctions (rows of Vinv P), the kept
    set, every phi(x) and the ceiling of the kept non-target components."""
    i, _ = system.modes[m]
    k = system.offsets[i]
    lam = system.lams[m]
    rows = system.Vinv[:k, :k] @ pd.P[:k, :k]
    coeffs = np.linalg.solve(rows.T, system.Vinv[m, :k])
    phi = rows @ x[:k]
    deflate = not kc.peripheral_modes(system)[m]
    if deflate:
        keep = np.abs(system.lams[:k]) <= abs(lam) + PERIPHERAL_TOL
        row = (coeffs * keep) @ rows
    else:
        keep = np.ones(k, dtype=bool)
        row = system.Vinv[m, :k]
    others = keep.copy()
    others[m] = False
    ceiling = float(np.sum(np.abs(coeffs[others] * phi[others])))
    return k, lam, deflate, row, coeffs, keep, phi, ceiling


def _reference_statuses(system, pd, x, Ns):
    """Per-mode, per-N reference: the orbit of A[:k, :k] / lambda to N - 1,
    the terms w @ row, and the status rule. A failed N fails every larger
    one, because the rule takes a maximum over a longer prefix."""
    out = {}
    for m, mode in enumerate(system.modes):
        k, lam, deflate, row, _, _, phi, ceiling = _laplace_mode(system, pd, x, m)
        limit = 10.0 * ceiling + 1e3 * (1.0 + abs(phi[m]))
        out[mode] = []
        for N in Ns:
            if INCOMPLETE in out[mode]:
                out[mode].append(INCOMPLETE)
                continue
            with np.errstate(over="ignore", invalid="ignore"):
                w = stacked_orbit(system.A[:k, :k] / lam, x[:k], N - 1)
                errs = np.abs(w @ row - phi[m])
            ok = np.isfinite(w).all() and not (deflate and errs.max() > limit)
            out[mode].append("ok" if ok else INCOMPLETE)
    return out


def _closed_form_mean(system, pd, x, m, N):
    """Exact N-term mean sum_j c_j phi_j(x) g_N(lambda_j / lambda) over the
    kept modes, g_N(r) = (1 - r^N) / (N (1 - r)), and the scale
    ceiling + |phi(x)| its agreement is measured in."""
    k, lam, _, _, coeffs, keep, phi, ceiling = _laplace_mode(system, pd, x, m)
    g = np.ones(k, dtype=np.complex128)
    others = keep.copy()
    others[m] = False
    r = system.lams[:k][others] / lam
    g[others] = (1 - r**N) / (N * (1 - r))
    return np.sum((coeffs * phi * g)[keep]), ceiling + abs(phi[m])


class TestLaplaceTable:
    @pytest.fixture(scope="class")
    def cli_tables(self):
        """The Laplace table repro-paper writes at seeds 45-52."""
        out = []
        for seed in range(45, 53):
            system = cli_cascade(seed)
            pd = kc.compute_perturbation(system)
            rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(3)[2])
            x = system.random_state(rng).stacked()
            out.append((seed, system, pd, x, kc.laplace_table(
                system, pd, kc.StateVector.unstack(x, system.dims), LAPLACE_NS
            )))
        return out

    def test_statuses_match_per_mode_reference(self, cli_tables):
        for seed, system, pd, x, table in cli_tables:
            assert list(table) == list(system.modes)
            got = {
                mode: [v if isinstance(v, str) else "ok" for v in row]
                for mode, row in table.items()
            }
            assert got == _reference_statuses(system, pd, x, LAPLACE_NS), seed

    def test_ok_rows_match_closed_form_at_largest_n(self, cli_tables):
        checked = 0
        for seed, system, pd, x, table in cli_tables:
            for m, mode in enumerate(system.modes):
                avg = table[mode][-1]
                if isinstance(avg, str):
                    continue
                exact, scale = _closed_form_mean(system, pd, x, m, LAPLACE_NS[-1])
                assert abs(avg - exact) <= 1e-11 * scale, (seed, mode)
                checked += 1
        assert checked >= 50

    @pytest.mark.parametrize("pair", ["scalar_pair", "diag_pair"])
    def test_pairs_match_closed_form_every_n(self, request, pair):
        system = request.getfixturevalue(pair)
        pd = request.getfixturevalue(pair + "_pd")
        x = kc.StateVector.of([[1.0], [1.0] * system.dims[1]])
        Ns = (1, 2, 3) + LAPLACE_NS
        table = kc.laplace_table(system, pd, x, Ns)
        checked = 0
        for m, mode in enumerate(system.modes):
            for N, avg in zip(Ns, table[mode]):
                if isinstance(avg, str):
                    continue
                exact, scale = _closed_form_mean(system, pd, x.stacked(), m, N)
                assert abs(avg - exact) <= 1e-11 * scale, (mode, N)
                checked += 1
        assert checked >= len(Ns) * (len(system.modes) - 1)

    @pytest.mark.xfail(strict=True, reason="the status rule labels a noise-dominated average ok")
    def test_noise_dominated_average_not_ok(self, diag_pair, diag_pair_pd):
        # At N = 50 rounding noise along 0.9 dominates the deflated (2, 2)
        # average, 13 (ceiling + |phi|) from the exact mean, far inside the
        # 10 ceiling + 1e3 (1 + |phi|) limit of the status rule.
        x = kc.StateVector.of([[1.0], [1.0, 1.0]])
        [avg] = kc.laplace_table(diag_pair, diag_pair_pd, x, (50,))[(2, 2)]
        exact, scale = _closed_form_mean(diag_pair, diag_pair_pd, x.stacked(), 2, 50)
        assert isinstance(avg, str) or abs(avg - exact) <= 1e-11 * scale

    def test_failed_mode_fails_at_every_larger_n(self, diag_pair, diag_pair_pd):
        # rounding noise along 0.9 takes over the deflated (2, 2) average
        x = kc.StateVector.of([[1.0], [1.0, 1.0]])
        row = kc.laplace_table(diag_pair, diag_pair_pd, x, (10, 400, 1000))[(2, 2)]
        assert not isinstance(row[0], str)
        assert row[1:] == [INCOMPLETE, INCOMPLETE]

    def test_grid_must_increase(self, scalar_pair, scalar_pair_pd):
        x = kc.StateVector.of([[1.0], [1.0]])
        for Ns in ((100, 10), (0, 10), (10, 10), ()):
            with pytest.raises(ValueError):
                kc.laplace_table(scalar_pair, scalar_pair_pd, x, Ns)


class TestPeripheralTolerance:
    def test_scalar_layers_always_peripheral(self, scalar_pair):
        for i in (1, 2):
            lam = complex(scalar_pair.eig_of(i).eigenvalues[0])
            assert abs(abs(lam) - scalar_pair.norms[i - 1]) <= PERIPHERAL_TOL


class TestEigenfunctionJson:
    def test_schema(self, scalar_pair):
        obj = kc.observables.eigenfunction_to_json(scalar_pair, 2, 1, composed_with_pert=True)
        assert set(obj) == {"layer", "index", "eigenvalue", "coeff_row", "composed_with_pert"}
        assert obj["layer"] == 2 and obj["index"] == 1
        assert obj["coeff_row"]["rows"] == 1 and obj["coeff_row"]["cols"] == 1
        assert obj["composed_with_pert"] is True
