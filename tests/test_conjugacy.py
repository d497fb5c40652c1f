"""Unit tests for conjugated (nonlinear) cascades and their checks."""

from __future__ import annotations

import numpy as np
import pytest

import koopcascade as kc
from koopcascade import conjugacy
from koopcascade.cli import NONLINEAR_CHECKS, TolProfile, run_checks
from tests.conftest import cli_cascade


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
        assert kc.composite_norm(conj.forward(x) - x) == 0.0
        assert kc.composite_norm(conj.inverse(x) - x) == 0.0
        assert conj.inverse_mode == "closedForm"

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

    def test_inverse_converges_far_from_origin(self):
        # |w| = 4.1e30 is what a 12-layer repro-paper run feeds the inverse;
        # from w / (1 + a w^2) Newton would need about 115 steps
        w = np.array([4.1e30, -4.1e30, 1e6, -1e6, 0.5, -0.5, 0.0])
        conj = kc.polynomial_conjugacy([0.1])
        u = conj.inverse(kc.StateVector.of([w])).layer(1)
        residual = np.abs(u.real + 0.1 * u.real**3 - w)
        assert np.all(residual <= 1e-15 * (1.0 + np.abs(w)))
        assert np.all(u.imag == 0.0)

    def test_round_trip_on_unit_ball(self, cubic_conj):
        rng = np.random.default_rng(1)
        states = []
        for _ in range(1000):
            raw = [rng.uniform(-1, 1, 1) + 1j * rng.uniform(-1, 1, 1) for _ in range(2)]
            x = kc.StateVector.of(raw)
            nrm = kc.composite_norm(x)
            if nrm > 0:
                states.append(x.scale(rng.uniform(0, 1) / nrm))
        assert kc.round_trip_error(cubic_conj, states) < 1e-10

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
        x0 = kc.StateVector.of([[1.0], [1.0]])
        lin = kc.iterate_lin(scalar_pair, x0, 20)
        non = kc.iterate_nonlinear(nl, x0, 20)
        for t in range(21):
            assert kc.composite_norm(lin[t] - non[t]) == 0.0

    def test_stepwise_equals_single_conjugation(self, replica):
        # two-path oracle: tau(Lin^t(tau^-1(y))) vs repeated conjugated steps
        sys_, _, x0 = replica
        conj = kc.polynomial_conjugacy([0.1] * sys_.n)
        nl = kc.NonlinearCascade(base=sys_, conj=conj)
        y0 = conj.forward(x0)
        stepped = kc.iterate_nonlinear(nl, y0, 50)
        lin = kc.iterate_lin(sys_, conj.inverse(y0), 50)
        for t in range(51):
            direct = conj.forward(lin[t])
            err = kc.composite_norm(stepped[t] - direct)
            assert err <= 1e-8 * (1 + kc.composite_norm(stepped[t]))

    def test_zero_fixed_point(self, scalar_pair):
        nl = kc.NonlinearCascade(base=scalar_pair, conj=kc.polynomial_conjugacy([0.1, 0.1]))
        trace = kc.iterate_nonlinear(nl, scalar_pair.zero_state(), 10)
        for t in range(11):
            assert kc.composite_norm(trace[t]) == 0.0


class TestEigenfunctionTransfer:
    def test_nominal_nonlinear_eigenfunction(self, replica):
        # psi o tau^-1 is an eigenfunction of the nominal nonlinear system
        sys_, _, _ = replica
        conj = kc.polynomial_conjugacy([0.1] * sys_.n)
        nl = kc.NonlinearCascade(base=sys_, conj=conj)
        rng = np.random.default_rng(2)
        for i in (1, sys_.n):
            psi = kc.principal_eigenfunction(sys_, i, 1)
            for _ in range(10):
                y = conj.forward(sys_.random_state(rng, layer_norm=0.2))
                _, X = kc.conjugated_orbit(nl, sys_.N, y.stacked(), 1)
                lhs = psi(kc.StateVector.unstack(X[1], sys_.dims).layer(i))
                rhs = psi.eigenvalue * psi(conj.inverse(y).layer(i))
                assert abs(lhs - rhs) <= 1e-9


class TestNonlinearEquivalence:
    def test_identity_conjugacy_reduces_to_linear_numbers(self, replica):
        sys_, pd, x0 = replica
        nl = kc.NonlinearCascade(base=sys_, conj=kc.identity_conjugacy())
        rep = kc.check_nonlinear_equivalence(
            nl, pd, *kc.conjugated_orbit(nl, sys_.A, x0.stacked(), 60)
        )
        lin = kc.iterate_lin(sys_, x0, 60)
        nom = kc.iterate_nom(sys_, kc.apply_perturbation(pd, x0), 60)
        for t in range(61):
            assert rep.errors[t] == pytest.approx(
                kc.composite_norm(lin[t] - nom[t]), rel=1e-12, abs=1e-14
            )

    def test_cubic_conjugacy_on_replica(self, replica):
        sys_, pd, x0 = replica
        conj = kc.polynomial_conjugacy([0.1] * sys_.n)
        nl = kc.NonlinearCascade(base=sys_, conj=conj)
        rep = kc.check_nonlinear_equivalence(
            nl, pd, *kc.conjugated_orbit(nl, sys_.A, conj.forward(x0).stacked(), 200)
        )
        assert rep.passed
        assert rep.terminal_ratio < 1e-3
        assert rep.entered_ball_at is not None

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
            assert rep.paths_agree
            assert rep.path_discrepancy == 0.0

    def test_cubic_paths_agree_and_decay(self, replica):
        sys_, pd, x0 = replica
        conj = kc.polynomial_conjugacy([0.1] * sys_.n)
        nl = kc.NonlinearCascade(base=sys_, conj=conj)
        _, X = kc.conjugated_orbit(nl, sys_.A, conj.forward(x0).stacked(), 100)
        reports = kc.check_nonlinear_eigenfunction_decay(nl, pd, X, agreement_horizon=50)
        for mode, rep in reports.items():
            assert rep.paths_agree, (mode, rep.path_discrepancy)
            assert rep.path_discrepancy <= 1e-8
            assert rep.decay_ok, mode
            assert rep.terminal_ratio < 1e-3

    def test_all_modes_match_per_mode_oracle(self, replica):
        # per-mode loop over StateVectors: invert each state, evaluate the
        # rows of V_i^-1, multiply the powers of lambda step by step
        sys_, pd, x0 = replica
        T, h, decay_factor, agreement_tol = 100, 50, 1e-3, 1e-8
        conj = kc.polynomial_conjugacy([0.1] * sys_.n)
        nl = kc.NonlinearCascade(base=sys_, conj=conj)
        y0 = conj.forward(x0)
        _, X = kc.conjugated_orbit(nl, sys_.A, y0.stacked(), T)
        reports = kc.check_nonlinear_eigenfunction_decay(
            nl, pd, X, decay_factor=decay_factor, agreement_horizon=h,
            agreement_tol=agreement_tol,
        )
        xs = [conj.inverse(y) for y in kc.iterate_nonlinear(nl, y0, T).states]
        lin = kc.iterate_lin(sys_, xs[0], T)
        px = kc.apply_perturbation(pd, xs[0])
        assert set(reports) == set(sys_.modes)
        for (i, s), rep in reports.items():
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
            assert (rep.passed, rep.decay_ok, rep.paths_agree) == (
                decay_ok and paths_agree, decay_ok, paths_agree
            ), (i, s)
            assert abs(rep.path_discrepancy - discrepancy) <= 1e-13, (i, s)
            drift = max(abs(a - b) for a, b in zip(rep.ratios, ratios))
            assert drift <= 1e-12 * max(1.0, peak), (i, s)


class TestNewtonSolves:
    def test_each_orbit_state_inverted_once(self, monkeypatch):
        # run_checks as repro-paper --seed 45 calls it: one coupled and one
        # nominal orbit at T = 200; the decay check reads the coupled one
        system = cli_cascade(45)
        x0 = system.random_state(np.random.default_rng(np.random.SeedSequence(45).spawn(3)[1]))
        pd = kc.compute_perturbation(system)
        calls = []
        solve = conjugacy._invert_monotone_cubic

        def counted(w, a):
            calls.append(w.shape)
            return solve(w, a)

        monkeypatch.setattr(conjugacy, "_invert_monotone_cubic", counted)
        T = 200
        results = run_checks(
            system, pd, x0, T, list(NONLINEAR_CHECKS), TolProfile(),
            {"kind": "polynomialDiagonal", "a": [0.1] * system.n},
        )
        assert all(r["passed"] for r in results.values())
        assert len(calls) <= 2 * (T + 1)


class TestConjugacyJson:
    def test_polynomial_round_trip(self):
        conj = kc.polynomial_conjugacy([0.1, 0.2])
        obj = conj.to_json()
        assert obj == {"kind": "polynomialDiagonal", "a": [0.1, 0.2]}
        back = kc.conjugacy_from_json(obj)
        x = kc.StateVector.of([[0.5], [0.25]])
        assert kc.composite_norm(back.forward(x) - conj.forward(x)) == 0.0

    def test_identity_round_trip(self):
        obj = kc.identity_conjugacy().to_json()
        assert obj == {"kind": "identity"}
        back = kc.conjugacy_from_json(obj)
        x = kc.StateVector.of([[1.0]])
        assert back.forward(x) is x

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            kc.conjugacy_from_json({"kind": "mystery"})
