"""Unit tests for orbit iteration, error series, and bound checks."""

from __future__ import annotations

import io
import math

import numpy as np
import pytest

import koopcascade as kc
from koopcascade.orbits import CSV_COLUMNS, LOG_CLAMP, log_slope, write_error_csv
from tests.conftest import make_replica, state_gap


def hand_iterate(L_list, couplings, layers0, T):
    """Oracle: plain-python step recursion, independent of the library path."""
    states = [list(layers0)]
    for _ in range(T):
        prev = states[-1]
        nxt = []
        for i, L in enumerate(L_list, start=1):
            acc = np.asarray(L, dtype=complex) @ prev[i - 1]
            for (ii, j), C in couplings.items():
                if ii == i:
                    acc = acc + np.asarray(C, dtype=complex) @ prev[j - 1]
            nxt.append(acc)
        states.append(nxt)
    return states


class TestIterate:
    def test_scalar_pair_hand_recursion(self, scalar_pair):
        x0 = kc.StateVector.of([[1.0], [1.0]])
        trace = kc.iterate_lin(scalar_pair, x0, 10)
        np.testing.assert_allclose(trace[1].layer(1), [0.5], atol=1e-15)
        np.testing.assert_allclose(trace[1].layer(2), [1.9], atol=1e-15)
        np.testing.assert_allclose(trace[2].layer(1), [0.25], atol=1e-15)
        np.testing.assert_allclose(trace[2].layer(2), [2.21], atol=1e-15)
        oracle = hand_iterate(
            [np.array([[0.5]]), np.array([[0.9]])],
            {(2, 1): np.array([[1.0]])},
            list(x0.layers),
            10,
        )
        for t in range(11):
            for i in (1, 2):
                np.testing.assert_allclose(trace[t].layer(i), oracle[t][i - 1], atol=1e-13)

    def test_zero_couplings_match_nom(self):
        sys_ = kc.CascadeSystem.build(
            [np.diag([0.4, 0.3]), np.diag([0.9, 0.8])],
            {(2, 1): np.zeros((2, 2))},
        )
        x0 = sys_.random_state(np.random.default_rng(0))
        lin = kc.iterate_lin(sys_, x0, 30)
        nom = kc.iterate_nom(sys_, x0, 30)
        for t in range(31):
            assert state_gap(lin[t], nom[t]) == 0.0

    def test_fixed_point_zero(self, scalar_pair):
        trace = kc.iterate_lin(scalar_pair, scalar_pair.zero_state(), 5)
        for t in range(6):
            assert kc.composite_norm(trace[t]) == 0.0

    def test_nom_diag_per_coordinate_decay(self):
        sys_ = kc.CascadeSystem.build([np.diag([0.5, 0.9])])
        x0 = kc.StateVector.of([[1.0, 2.0]])
        trace = kc.iterate_nom(sys_, x0, 12)
        for t in range(13):
            np.testing.assert_allclose(
                trace[t].layer(1), [0.5**t, 2.0 * 0.9**t], rtol=1e-13
            )

    def test_horizon_zero(self, scalar_pair):
        x0 = kc.StateVector.of([[1.0], [2.0]])
        trace = kc.iterate_nom(scalar_pair, x0, 0)
        assert len(trace) == 1
        assert trace[0] is x0

    def test_general_cascade_supported(self):
        sys_ = kc.CascadeSystem.build(
            [np.array([[0.5]]), np.array([[0.7]]), np.array([[0.9]])],
            {(3, 1): np.array([[2.0]]), (2, 1): np.array([[1.0]])},
        )
        x0 = kc.StateVector.of([[1.0], [0.0], [0.0]])
        trace = kc.iterate_lin(sys_, x0, 2)
        oracle = hand_iterate(
            [[[0.5]], [[0.7]], [[0.9]]],
            {(3, 1): np.array([[2.0]]), (2, 1): np.array([[1.0]])},
            list(x0.layers),
            2,
        )
        for i in (1, 2, 3):
            np.testing.assert_allclose(trace[2].layer(i), oracle[2][i - 1], atol=1e-14)

    def test_overflow_detected(self):
        sys_ = kc.CascadeSystem.build([np.array([[2.0]])])
        with pytest.raises(kc.OrbitOverflowError):
            kc.iterate_lin(sys_, kc.StateVector.of([[1.0]]), 60)

    def test_semigroup(self, replica):
        sys_, _, x0 = replica
        full = kc.iterate_lin(sys_, x0, 40)
        first = kc.iterate_lin(sys_, x0, 15)
        rest = kc.iterate_lin(sys_, first[15], 25)
        assert state_gap(full[40], rest[25]) <= 1e-10

    def test_linearity(self, replica):
        sys_, _, _ = replica
        rng = np.random.default_rng(12)
        x = sys_.random_state(rng)
        y = sys_.random_state(rng)
        a, b = 0.7 - 0.2j, -1.3 + 0.5j
        def mix(u, v):
            return kc.StateVector.of([a * p + b * q for p, q in zip(u, v)])

        left = kc.iterate_lin(sys_, mix(x, y), 25)[25]
        right = mix(kc.iterate_lin(sys_, x, 25)[25], kc.iterate_lin(sys_, y, 25)[25])
        assert state_gap(left, right) <= 1e-10

    def test_layer1_paths_identical(self, replica):
        sys_, pd, x0 = replica
        lin = kc.iterate_lin(sys_, x0, 50)
        nom = kc.iterate_nom(sys_, kc.apply_perturbation(pd, x0), 50)
        for t in range(51):
            assert np.array_equal(lin[t].layer(1), nom[t].layer(1))


class TestErrorSeries:
    def test_decoupled_all_zero(self):
        sys_ = kc.CascadeSystem.build(
            [np.diag([0.4, 0.3]), np.diag([0.9, 0.8])],
            {(2, 1): np.zeros((2, 2))},
        )
        pd = kc.compute_perturbation(sys_)
        es = kc.compute_error_series(sys_, pd, sys_.random_state(np.random.default_rng(1)), 40)
        assert np.all(es.abs_err == 0.0)
        assert np.all(es.rel_err == 0.0)

    def test_scalar_pair_exact_errors(self, scalar_pair, scalar_pair_pd):
        # abs err is |D21| * 0.5^t * |x1|; rel err divides by 0.9^t
        # the measured difference of the two orbits carries rounding at the
        # ulp of the ambient orbit scale (~1e-17), hence the absolute floor
        x0 = kc.StateVector.of([[1.0], [1.0]])
        es = kc.compute_error_series(scalar_pair, scalar_pair_pd, x0, 60)
        for t in range(61):
            assert es.abs_err[0, t] == 0.0
            assert es.abs_err[1, t] == pytest.approx(2.5 * 0.5**t, rel=1e-10, abs=1e-16)
            assert es.rel_err[1, t] == pytest.approx(
                2.5 * (5 / 9) ** t, rel=1e-10, abs=1e-16 / 0.9**t
            )

    def test_layer1_identically_zero(self, replica):
        sys_, pd, x0 = replica
        es = kc.compute_error_series(sys_, pd, x0, 80)
        assert np.all(es.abs_err[0] == 0.0)

    def test_bound_constant_formula(self, scalar_pair, scalar_pair_pd):
        x0 = kc.StateVector.of([[2.0], [1.0]])
        es = kc.compute_error_series(scalar_pair, scalar_pair_pd, x0, 5)
        assert es.bound_constant[0] == 0.0
        # sum_j<2 ||D21|| * ||pert_1(x)|| = 2.5 * 2
        assert es.bound_constant[1] == pytest.approx(5.0, rel=1e-12)


class TestCheckErrorBounds:
    def test_decoupled_trivially_passes(self):
        sys_ = kc.CascadeSystem.build(
            [np.diag([0.4, 0.3]), np.diag([0.9, 0.8])],
            {(2, 1): np.zeros((2, 2))},
        )
        pd = kc.compute_perturbation(sys_)
        es = kc.compute_error_series(sys_, pd, sys_.random_state(np.random.default_rng(2)), 40)
        rep = kc.check_error_bounds(es)
        assert rep.passed
        assert rep.max_bound_violation <= 0.0
        assert all(r == 0.0 for r in rep.decay_ratios)

    def test_replica_seeds_pass(self):
        # reference-scale systems over many seeds
        for seed in range(50):
            system, rng = make_replica(seed + 1000)
            pd = kc.compute_perturbation(system)
            x0 = system.random_state(rng)
            es = kc.compute_error_series(system, pd, x0, 150)
            rep = kc.check_error_bounds(es)
            assert rep.passed, f"seed {seed + 1000}: {rep}"

    def test_adversarial_reversed_norms_fails_decay(self):
        # swapped layer norms violate the hierarchy; the perturbation data
        # is assembled by hand to bypass validation
        sys_ = kc.CascadeSystem.build(
            [np.array([[0.9]]), np.array([[0.5]])], {(2, 1): np.array([[1.0]])}
        )
        ctilde = 1.0 / (1.0 - 0.9 / 0.5)
        d21 = ctilde / 0.5
        pd = kc.PerturbationData(
            dims=(1, 1),
            P=np.array([[1.0, 0.0], [d21, 1.0]], dtype=complex),
            Q=np.array([[1.0, 0.0], [-d21, 1.0]], dtype=complex),
        )
        x0 = kc.StateVector.of([[1.0], [1.0]])
        es = kc.compute_error_series(sys_, pd, x0, 60)
        # the closed form still holds, so the decaying bound is tight...
        assert np.max(es.abs_err - es.bound_decaying) <= 1e-9
        # ...but the relative error grows instead of decaying
        rep = kc.check_error_bounds(es)
        assert not rep.decay_ok
        assert not rep.passed
        assert es.rel_err[1, 60] > es.rel_err[1, 0]

    def test_window_validation(self, scalar_pair, scalar_pair_pd):
        es = kc.compute_error_series(scalar_pair, scalar_pair_pd, kc.StateVector.of([[1.0], [1.0]]), 10)
        with pytest.raises(ValueError):
            kc.check_error_bounds(es, window_start=11)


class TestAsymptoticEquivalence:
    def test_replica_composite_convergence(self, replica):
        sys_, pd, x0 = replica
        rep = kc.check_asymptotic_equivalence(sys_, pd, x0, 200, ratio_tol=1e-6)
        assert rep.passed
        assert rep.terminal_error <= 1e-6 * rep.initial_error

    def test_relative_error_terminal_and_monotone(self, replica):
        sys_, pd, x0 = replica
        es = kc.compute_error_series(sys_, pd, x0, 200)
        for k in range(1, sys_.n):
            peak = float(np.max(es.rel_err[k]))
            assert es.rel_err[k, 200] / peak < 1e-4
            # eventually monotone: non-increasing over the last quarter
            tail = es.rel_err[k, 150:201]
            assert np.all(tail[1:] <= tail[:-1] * (1 + 1e-6) + LOG_CLAMP)


class TestCsvExport:
    def test_header_and_shape(self, scalar_pair, scalar_pair_pd):
        es = kc.compute_error_series(scalar_pair, scalar_pair_pd, kc.StateVector.of([[1.0], [1.0]]), 3)
        buf = io.StringIO()
        write_error_csv(es, buf)
        lines = buf.getvalue().strip().split("\n")
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 1 + 4 * 2  # (T+1) * layers
        first = lines[1].split(",")
        assert first[0] == "0" and first[1] == "1"
        assert float(first[2]) == 0.0
        assert float(first[6]) == pytest.approx(math.log(LOG_CLAMP))

    def test_rows_in_t_major_order(self, scalar_pair, scalar_pair_pd):
        es = kc.compute_error_series(scalar_pair, scalar_pair_pd, kc.StateVector.of([[1.0], [1.0]]), 2)
        buf = io.StringIO()
        write_error_csv(es, buf)
        rows = [line.split(",")[:2] for line in buf.getvalue().strip().split("\n")[1:]]
        assert rows == [["0", "1"], ["0", "2"], ["1", "1"], ["1", "2"], ["2", "1"], ["2", "2"]]

    def test_deterministic_bytes(self, replica, tmp_path):
        sys_, pd, x0 = replica
        es = kc.compute_error_series(sys_, pd, x0, 20)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        kc.error_series_to_csv(es, p1)
        kc.error_series_to_csv(es, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bound_dominates_error_rowwise(self, replica, tmp_path):
        sys_, pd, x0 = replica
        es = kc.compute_error_series(sys_, pd, x0, 50)
        path = tmp_path / "errors.csv"
        kc.error_series_to_csv(es, path)
        for line in path.read_text().strip().split("\n")[1:]:
            parts = line.split(",")
            assert float(parts[2]) <= float(parts[4]) + 1e-9

    def test_log_slope_helper(self):
        values = [math.exp(-0.3 * t) for t in range(101)]
        assert log_slope(values, 20, 80) == pytest.approx(-0.3, abs=1e-9)
