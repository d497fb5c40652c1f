"""Unit tests for conjugated (nonlinear) cascades and their checks."""

from __future__ import annotations

import numpy as np
import pytest

import koopcascade as kc
from koopcascade import conjugacy, linalg
from koopcascade.cli import NONLINEAR_CHECKS, TolProfile, run_checks
from koopcascade.orbits import stacked_orbit
from tests.conftest import cli_cascade, cli_state, state_gap


def bisect_cubic_root(w: float, a: float, lo: float, hi: float, iters: int = 200) -> float:
    """Oracle: bisection solve of u + a*u**3 = w on [lo, hi]."""
    g = lambda u: u + a * u**3 - w  # noqa: E731
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if g(mid) > 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


@pytest.fixture(scope="module")
def cubic_conj():
    return kc.polynomial_conjugacy([0.1, 0.1])


class TestPolynomialConjugacy:
    def test_zero_coeffs_behave_as_identity(self, scalar_pair):
        conj = kc.polynomial_conjugacy([0.0, 0.0])
        x = scalar_pair.random_state(np.random.default_rng(0))
        assert state_gap(conj.forward(x), x) == 0.0
        assert state_gap(conj.inverse(x), x) == 0.0

    def test_scalar_forward_value(self):
        conj = kc.polynomial_conjugacy([0.1])
        y = conj.forward(kc.StateVector.of([[2.0]]))
        assert y.layer(1)[0] == pytest.approx(2.8, abs=1e-15)

    def test_scalar_inverse_against_bisection_oracle(self):
        conj = kc.polynomial_conjugacy([0.1])
        x = conj.inverse(kc.StateVector.of([[2.8]]))
        oracle = bisect_cubic_root(2.8, 0.1, 0.0, 2.8)
        assert x.layer(1)[0] == pytest.approx(oracle, abs=1e-10)
        assert x.layer(1)[0] == pytest.approx(2.0, abs=1e-10)

    @pytest.mark.parametrize("a", [0.0, 1e-8, 0.1, 1e250])
    def test_inverse_converges_far_from_origin(self, a):
        # |w| = 4.1e30 is what a 12-layer repro-paper run feeds the inverse;
        # at a = 1e-8 the w near 1e4 straddle a w^2 = 1, where the cubic term
        # takes over; at a = 1e250, 1.5 sqrt(3a) w overflows for w = 1e249
        w = [4.1e30, 1e6, 0.5, 0.0]
        if a == 1e-8:
            w += [3e3, 1e4, 3e4]
        if a == 1e250:
            w += [1e249]
        w = np.array(w + [-v for v in w])
        conj = kc.polynomial_conjugacy([a])
        u = conj.inverse(kc.StateVector.of([w])).layer(1)
        residual = np.abs(u.real + a * u.real**3 - w)
        assert np.all(residual <= 1e-15 * (1.0 + np.abs(w)))
        assert np.all(u.imag == 0.0)

    def test_round_trip_on_unit_ball(self, cubic_conj):
        # ||tau(tau^-1(y)) - y|| / (1 + ||y||) on 1000 states of the unit
        # ball; both layers are scalar, so the composite norm is the 1-norm
        rng = np.random.default_rng(1)
        raw = rng.uniform(-1, 1, (1000, 2)) + 1j * rng.uniform(-1, 1, (1000, 2))
        Y = raw * (rng.uniform(0, 1, 1000) / np.abs(raw).sum(axis=1))[:, None]
        forward, inverse = cubic_conj.stacked_maps((1, 1))
        err = np.abs(forward(inverse(Y)) - Y).sum(axis=1) / (1 + np.abs(Y).sum(axis=1))
        assert err.max() < 1e-10

    def test_origin_fixed(self, cubic_conj):
        zero = kc.StateVector.of([[0.0], [0.0]])
        assert kc.composite_norm(cubic_conj.forward(zero)) == 0.0
        assert kc.composite_norm(cubic_conj.inverse(zero)) == 0.0

    def test_negative_coefficient_rejected(self):
        with pytest.raises(ValueError):
            kc.polynomial_conjugacy([0.1, -0.2])

    def test_complex_parts_treated_separately(self):
        conj = kc.polynomial_conjugacy([0.5])
        y = conj.forward(kc.StateVector.of([[1.0 + 2.0j]]))
        assert y.layer(1)[0] == pytest.approx((1.5) + 1j * (2.0 + 0.5 * 8.0), abs=1e-14)


class TestIterateNonlinear:
    def test_identity_conjugacy_matches_linear(self, scalar_pair):
        nl = kc.NonlinearCascade(base=scalar_pair, conj=kc.identity_conjugacy())
        x0 = np.array([1.0, 1.0], dtype=complex)
        Y, X = kc.conjugated_orbit(nl, scalar_pair.A, x0, 20)
        lin = stacked_orbit(scalar_pair.A, x0, 20)
        assert np.array_equal(Y, lin)
        assert np.array_equal(X, lin)

    def test_stepwise_equals_single_conjugation(self, replica):
        # two-path oracle: tau(Lin^t(tau^-1(y))) vs repeated conjugated
        # steps, and Lin^t(tau^-1(y)) vs the tau^-1 the loop kept
        sys_, _, x0 = replica
        conj = kc.polynomial_conjugacy([0.1] * sys_.n)
        nl = kc.NonlinearCascade(base=sys_, conj=conj)
        forward, inverse = conj.stacked_maps(sys_.dims)
        y0 = forward(x0.stacked())
        Y, X = kc.conjugated_orbit(nl, sys_.A, y0, 50)
        lin = stacked_orbit(sys_.A, inverse(y0), 50)

        def composite(Z):
            return linalg.layer_norms(Z, sys_.offsets).sum(axis=1)

        assert np.all(composite(Y - forward(lin)) <= 1e-8 * (1 + composite(Y)))
        assert np.all(composite(X - lin) <= 1e-8 * (1 + composite(lin)))

    @pytest.mark.parametrize("a", [0.1, 1.0])
    def test_inverse_states_follow_linear_orbit(self, a):
        # X[t] = tau^-1(Y[t]) is Lin^t X[0] up to the rounding of the inverse
        system = cli_cascade(45)
        x0 = cli_state(system, 45)
        conj = kc.polynomial_conjugacy([a] * system.n)
        nl = kc.NonlinearCascade(base=system, conj=conj)
        _, X = kc.conjugated_orbit(nl, system.A, conj.forward(x0).stacked(), 200)
        lin = stacked_orbit(system.A, X[0], 200)
        assert np.abs(X - lin).max() <= 1e-14 * np.abs(X).max()

    def test_zero_fixed_point(self, scalar_pair):
        nl = kc.NonlinearCascade(base=scalar_pair, conj=kc.polynomial_conjugacy([0.1, 0.1]))
        Y, X = kc.conjugated_orbit(nl, scalar_pair.A, np.zeros(2, dtype=complex), 10)
        assert np.all(Y == 0) and np.all(X == 0)


class TestEigenfunctionTransfer:
    def test_nominal_nonlinear_eigenfunction(self, replica):
        # psi o tau^-1 is an eigenfunction of the nominal nonlinear system
        sys_, _, _ = replica
        conj = kc.polynomial_conjugacy([0.1] * sys_.n)
        nl = kc.NonlinearCascade(base=sys_, conj=conj)
        rng = np.random.default_rng(2)
        for i in (1, sys_.n):
            m = sys_.offsets[i - 1]  # mode (i, 1)
            psi = sys_.Vinv[m]
            for _ in range(10):
                y = conj.forward(sys_.random_state(rng, layer_norm=0.2))
                _, X = kc.conjugated_orbit(nl, sys_.N, y.stacked(), 1)
                lhs = psi @ X[1]
                rhs = sys_.lams[m] * (psi @ conj.inverse(y).stacked())
                assert abs(lhs - rhs) <= 1e-9


class TestNonlinearEquivalence:
    def test_identity_conjugacy_reduces_to_linear_numbers(self, replica):
        sys_, pd, x0 = replica
        nl = kc.NonlinearCascade(base=sys_, conj=kc.identity_conjugacy())
        Y, X = kc.conjugated_orbit(nl, sys_.A, x0.stacked(), 60)
        rep = kc.check_nonlinear_equivalence(nl, pd, Y, X)
        # the series the check reads: the coupled orbit against the nominal
        # one from the perturbed start
        nominal, _ = kc.conjugated_orbit(nl, sys_.N, pd.P @ X[0], 60)
        errors = linalg.layer_norms(Y - nominal, sys_.offsets).sum(axis=1)
        lin = kc.iterate_lin(sys_, x0, 60)
        nom = kc.iterate_nom(sys_, kc.apply_perturbation(pd, x0), 60)
        oracle = [state_gap(lin[t], nom[t]) for t in range(61)]
        for t in range(61):
            assert errors[t] == pytest.approx(oracle[t], rel=1e-12, abs=1e-14)
        assert rep.detail["terminal_error"] == pytest.approx(oracle[-1], rel=1e-12, abs=1e-14)
        assert rep.detail["max_error"] == pytest.approx(max(oracle), rel=1e-12, abs=1e-14)
        assert rep.detail["terminal_ratio"] == pytest.approx(oracle[-1] / max(oracle), rel=1e-12)

    def test_cubic_conjugacy_on_replica(self, replica):
        sys_, pd, x0 = replica
        conj = kc.polynomial_conjugacy([0.1] * sys_.n)
        nl = kc.NonlinearCascade(base=sys_, conj=conj)
        rep = kc.check_nonlinear_equivalence(
            nl, pd, *kc.conjugated_orbit(nl, sys_.A, conj.forward(x0).stacked(), 200)
        )
        assert rep.passed
        assert rep.detail["terminal_ratio"] < 1e-3
        assert rep.detail["entered_ball_at"] is not None

    def test_mixed_zero_layer_passes(self, replica):
        sys_, pd, x0 = replica
        coeffs = [0.1] * sys_.n
        coeffs[1] = 0.0
        conj = kc.polynomial_conjugacy(coeffs)
        nl = kc.NonlinearCascade(base=sys_, conj=conj)
        rep = kc.check_nonlinear_equivalence(
            nl, pd, *kc.conjugated_orbit(nl, sys_.A, conj.forward(x0).stacked(), 200)
        )
        assert rep.passed


class TestNonlinearEigenfunctionDecay:
    def test_identity_conjugacy_matches_linear_path(self, replica):
        sys_, pd, x0 = replica
        nl = kc.NonlinearCascade(base=sys_, conj=kc.identity_conjugacy())
        _, X = kc.conjugated_orbit(nl, sys_.A, x0.stacked(), 60)
        reports = kc.check_nonlinear_eigenfunction_decay(nl, pd, X)
        assert list(reports) == list(sys_.modes)
        for rep in reports.values():
            assert rep.detail["paths_agree"]
            assert rep.detail["path_discrepancy"] == 0.0

    def test_cubic_paths_agree_and_decay(self, replica):
        sys_, pd, x0 = replica
        conj = kc.polynomial_conjugacy([0.1] * sys_.n)
        nl = kc.NonlinearCascade(base=sys_, conj=conj)
        _, X = kc.conjugated_orbit(nl, sys_.A, conj.forward(x0).stacked(), 100)
        reports = kc.check_nonlinear_eigenfunction_decay(nl, pd, X, agreement_horizon=50)
        for mode, rep in reports.items():
            assert rep.detail["paths_agree"], (mode, rep.detail["path_discrepancy"])
            assert rep.detail["path_discrepancy"] <= 1e-8
            assert rep.detail["decay_ok"], mode
            assert rep.detail["terminal_ratio"] < 1e-3

    def test_all_modes_match_per_mode_oracle(self, replica):
        # per-mode loop over StateVectors: invert each state, evaluate the
        # rows of V_i^-1, multiply the powers of lambda step by step
        sys_, pd, x0 = replica
        T, h, decay_factor, agreement_tol = 100, 50, 1e-3, 1e-8
        conj = kc.polynomial_conjugacy([0.1] * sys_.n)
        nl = kc.NonlinearCascade(base=sys_, conj=conj)
        y0 = conj.forward(x0)
        Y, X = kc.conjugated_orbit(nl, sys_.A, y0.stacked(), T)
        reports = kc.check_nonlinear_eigenfunction_decay(
            nl, pd, X, decay_factor=decay_factor, agreement_horizon=h,
            agreement_tol=agreement_tol,
        )
        xs = [conj.inverse(kc.StateVector.unstack(y, sys_.dims)) for y in Y]
        lin = kc.iterate_lin(sys_, xs[0], T)
        px = kc.apply_perturbation(pd, xs[0])
        # the ratio series the check reads, one column per mode
        predicted = sys_.lam_powers(T) * kc.inherited_eigenfunctions(sys_, pd, X[0])
        norm_pow = np.repeat(sys_.norms, sys_.dims) ** np.arange(T + 1)[:, None]
        series = np.abs(X @ sys_.Vinv.T - predicted) / norm_pow
        assert list(reports) == list(sys_.modes)
        for m, ((i, s), rep) in enumerate(reports.items()):
            row = sys_.eig_of(i).Vinv[s - 1]
            lam = sys_.eig_of(i).eigenvalues[s - 1]
            target = row @ px.layer(i)
            lam_pow, norm_pow = 1.0 + 0.0j, 1.0
            ratios, ratios_lin = [], []
            for t in range(T + 1):
                predicted = lam_pow * target
                ratios.append(abs(row @ xs[t].layer(i) - predicted) / norm_pow)
                ratios_lin.append(abs(row @ lin[t].layer(i) - predicted) / norm_pow)
                lam_pow *= lam
                norm_pow *= sys_.norms[i - 1]
            discrepancy = max(abs(a - b) for a, b in zip(ratios[: h + 1], ratios_lin[: h + 1]))
            peak = max(ratios)
            decay_ok = peak == 0.0 or ratios[-1] / peak < decay_factor
            paths_agree = discrepancy <= agreement_tol
            detail = rep.detail
            assert (rep.passed, detail["decay_ok"], detail["paths_agree"]) == (
                decay_ok and paths_agree, decay_ok, paths_agree
            ), (i, s)
            assert abs(detail["path_discrepancy"] - discrepancy) <= 1e-13, (i, s)
            tol = 1e-12 * max(1.0, peak)
            assert max(abs(a - b) for a, b in zip(series[:, m], ratios)) <= tol, (i, s)
            assert abs(detail["max_ratio"] - peak) <= tol, (i, s)
            # terminal_ratio is ratios[T] / peak, 0 where peak is 0
            terminal = detail["terminal_ratio"] * detail["max_ratio"]
            assert abs(terminal - ratios[-1]) <= tol, (i, s)


class TestNewtonSolves:
    def test_each_orbit_state_inverted_once(self, monkeypatch):
        # run_checks as repro-paper --seed 45 calls it: one coupled and one
        # nominal orbit at T = 200; the decay check reads the coupled one
        system = cli_cascade(45)
        x0 = cli_state(system, 45)
        pd = kc.compute_perturbation(system)
        calls = []
        solve = conjugacy._CubicInverse.solve

        def counted(self, w):
            calls.append(w.shape)
            return solve(self, w)

        monkeypatch.setattr(conjugacy._CubicInverse, "solve", counted)
        T = 200
        results = run_checks(
            system, pd, x0, T, list(NONLINEAR_CHECKS), TolProfile(),
            kc.polynomial_conjugacy([0.1] * system.n),
        )
        assert all(r.passed for r in results.values())
        # one solve per orbit state: at most two orbits of T + 1 states
        assert 1 <= len(calls) <= 2 * (T + 1)
        assert set(calls) == {(2 * sum(system.dims),)}


class TestConjugacyJson:
    def test_polynomial_round_trip(self):
        conj = kc.polynomial_conjugacy([0.1, 0.2])
        obj = conj.to_json()
        assert obj == {"kind": "polynomialDiagonal", "a": [0.1, 0.2]}
        back = kc.conjugacy_from_json(obj)
        x = kc.StateVector.of([[0.5], [0.25]])
        assert state_gap(back.forward(x), conj.forward(x)) == 0.0

    def test_identity_round_trip(self):
        obj = kc.identity_conjugacy().to_json()
        assert obj == {"kind": "identity"}
        back = kc.conjugacy_from_json(obj)
        x = kc.StateVector.of([[1.0]])
        assert back.forward(x) is x

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            kc.conjugacy_from_json({"kind": "mystery"})
