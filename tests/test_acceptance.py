"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the lines inline.
Criteria 2, 3, and 5 share twenty seeded chained cascades (n <= 7, layer
dims <= 6, layer norms 0.9^(n+1-i)); criteria 4 and 8 use the 7-layer
reference replica with unit initial conditions.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

import koopcascade as kc
from koopcascade.cli import main as cli_main
from koopcascade.orbits import log_slope
from tests.conftest import make_replica
from tests.test_perturbation import banded_spectra, geometric_sum_direct

MASTER_SEED = 2028
REPLICA_SEED = 45


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"\n[ACCEPTANCE {num}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def suite():
    """Twenty seeded systems with perturbation data, an initial state, and
    twenty sample states each."""
    out = []
    for child in np.random.SeedSequence(MASTER_SEED).spawn(20):
        rng = np.random.default_rng(child)
        n = int(rng.integers(2, 8))
        dims = [int(d) for d in rng.integers(2, 7, n)]
        norms = [0.9 ** (n + 1 - i) for i in range(1, n + 1)]
        system = kc.random_chained_cascade(dims, norms, rng)
        pd = kc.compute_perturbation(system)
        x0 = system.random_state(rng)
        samples = [system.random_state(rng) for _ in range(20)]
        out.append((system, pd, x0, samples))
    return out


@pytest.fixture(scope="module")
def replica_full():
    system, rng = make_replica(REPLICA_SEED)
    x0 = system.random_state(rng)
    return system, kc.compute_perturbation(system), x0


def test_criterion_1_geometric_sum_identity():
    """Two-sided diagonal geometric sums match their closed form entrywise."""
    start = time.perf_counter()
    rng = np.random.default_rng(MASTER_SEED)
    worst = 0.0
    for _ in range(100):
        d_i, d_j = int(rng.integers(1, 7)), int(rng.integers(1, 7))
        lam_i, lam_j = banded_spectra(rng, d_i, d_j)
        B = rng.uniform(-1, 1, (d_i, d_j)) + 1j * rng.uniform(-1, 1, (d_i, d_j))
        Bt = kc.geometric_sum_solve(B, lam_i, lam_j)
        running = np.zeros_like(B)
        li_pow = np.ones(d_i, dtype=complex)
        lj_pow = np.ones(d_j, dtype=complex)
        for t in range(1, 51):
            running = running + (B / li_pow[:, None]) * lj_pow[None, :]
            li_pow *= lam_i
            lj_pow *= lam_j
            rhs = Bt - (Bt / li_pow[:, None]) * lj_pow[None, :]
            worst = max(worst, float(np.max(np.abs(running - rhs))))
    elapsed = time.perf_counter() - start
    # spot check the incremental accumulation against the naive oracle
    check = geometric_sum_direct(B, lam_i, lam_j, 50)
    assert np.max(np.abs(check - running)) < 1e-10
    _report(
        1,
        worst < 1e-10 and elapsed < 5.0,
        f"100 triples, t<=50, worst entrywise gap {worst:.3e} (tol 1e-10), "
        f"{elapsed:.2f}s (< 5s)",
    )


def test_criterion_2_closed_form_equivalence(suite):
    """Closed-form states match direct iteration for t <= 200 everywhere."""
    start = time.perf_counter()
    worst = 0.0
    for system, pd, x0, _ in suite:
        cf = kc.ClosedFormSolution(system, pd)
        trace = kc.iterate_lin(system, x0, 200)
        states = cf.trace(x0, 200)
        for t in range(201):
            for i in range(1, system.n + 1):
                diff = float(np.linalg.norm(states[t].layer(i) - trace[t].layer(i)))
                denom = max(float(np.linalg.norm(trace[t].layer(i))), 1e-300)
                worst = max(worst, diff / denom)
    elapsed = time.perf_counter() - start
    _report(
        2,
        worst < 1e-8 and elapsed < 30.0,
        f"20 systems, every t<=200: worst per-layer relative error "
        f"{worst:.3e} (tol 1e-8), {elapsed:.2f}s (< 30s)",
    )


def test_criterion_3_error_bounds(suite):
    """Absolute error under the decaying bound under the constant envelope."""
    worst_bound = -np.inf
    worst_env = -np.inf
    for system, pd, x0, _ in suite:
        es = kc.compute_error_series(system, pd, x0, 200)
        env = es.bound_envelope()
        worst_bound = max(worst_bound, float(np.max(es.abs_err[1:] - es.bound_decaying[1:])))
        worst_env = max(worst_env, float(np.max(es.bound_decaying[1:] - env[1:])))
    _report(
        3,
        worst_bound <= 1e-9 and worst_env <= 1e-9,
        f"20 systems, i>=2, t<=200: worst bound violation {worst_bound:.3e}, "
        f"worst envelope violation {worst_env:.3e} (tol 1e-9, zero tolerance "
        "for true violations)",
    )


def test_criterion_4_zero_asymptotic_relative_error(replica_full):
    """Reference replica: terminal relative-error ratio and log-linear decay."""
    system, pd, x0 = replica_full
    es = kc.compute_error_series(system, pd, x0, 200)
    worst_ratio = 0.0
    worst_slope = -np.inf
    for k in range(1, system.n):
        peak = float(np.max(es.rel_err[k]))
        worst_ratio = max(worst_ratio, float(es.rel_err[k, 200]) / peak)
        worst_slope = max(worst_slope, log_slope(es.rel_err[k], 100, 200))
    _report(
        4,
        worst_ratio < 1e-3 and worst_slope < 0.0,
        f"replica, layers >= 2: worst terminal/peak ratio {worst_ratio:.3e} "
        f"(tol 1e-3), worst log-fit slope over [100,200] {worst_slope:.3e} (< 0)",
    )


def test_criterion_5_eigenfunction_exactness(suite):
    """Pert-composed eigenfunction residuals stay at rounding level."""
    worst = 0.0
    for system, pd, _, samples in suite:
        res = kc.eigenfunction_residuals(system, pd, samples, horizon=50)
        worst = max(worst, max(res.values()))
    _report(
        5,
        worst < 1e-8,
        f"20 systems, all (layer, index), 20 samples, t<=50: worst residual "
        f"{worst:.3e} (tol 1e-8)",
    )


def test_criterion_6_hand_checked_example(scalar_pair, scalar_pair_pd):
    """Scalar two-layer system: every constructed quantity to 1e-12."""
    pd = scalar_pair_pd
    ctilde = kc.matrix_from_json(kc.perturbation_to_json(scalar_pair, pd)["Ctilde"]["2,1"])
    ct = abs(ctilde[0, 0] - 2.25)
    d = abs(pd.D(2, 1)[0, 0] - 2.5)
    p = abs(pd.P[1, 0] - 2.5)
    # psi_2 o P, evaluated before and after one coupled step
    rng = np.random.default_rng(6)
    X = np.stack([scalar_pair.random_state(rng).stacked() for _ in range(50)], axis=1)
    f = kc.inherited_eigenfunctions(scalar_pair, pd, X)[1]
    lhs = kc.inherited_eigenfunctions(scalar_pair, pd, scalar_pair.A @ X)[1]
    worst_eig = float(np.max(np.abs(lhs - 0.9 * f)))
    ok = ct < 1e-12 and d < 1e-12 and p < 1e-12 and worst_eig < 1e-12
    _report(
        6,
        ok,
        f"Ctilde gap {ct:.2e}, D gap {d:.2e}, pert gap {p:.2e}, eigenfunction "
        f"identity gap {worst_eig:.2e} (all tol 1e-12)",
    )


def test_criterion_7_laplace_average(scalar_pair, scalar_pair_pd):
    """Cesaro average converges to psi o pert at the O(1/N) rate."""
    x = kc.StateVector.of([[1.0], [1.0]])
    target = 3.5
    errs = {
        N: abs(kc.laplace_average(scalar_pair, scalar_pair_pd, 2, 1, x, N) - target)
        for N in (500, 1000, 2000)
    }
    ok = errs[1000] < 5e-3 * abs(target) and errs[2000] < errs[1000] < errs[500]
    _report(
        7,
        ok,
        f"|avg(1000) - 3.5| = {errs[1000]:.3e} (tol {5e-3 * 3.5:.2e}); halving: "
        f"{errs[500]:.2e} -> {errs[1000]:.2e} -> {errs[2000]:.2e}",
    )


def test_criterion_8_nonlinear_transfer(replica_full):
    """Cubic conjugacy: orbit equivalence decays; eigenfunction quantities
    agree between the nonlinear and linear paths."""
    system, pd, x0 = replica_full
    conj = kc.polynomial_conjugacy([0.1] * system.n)
    nl = kc.NonlinearCascade(base=system, conj=conj)
    y0 = conj.forward(x0)

    Y, X = kc.conjugated_orbit(nl, system.A, y0.stacked(), 200)
    eq = kc.check_nonlinear_equivalence(nl, pd, Y, X)
    reports = kc.check_nonlinear_eigenfunction_decay(nl, pd, X[:51], agreement_horizon=50)
    worst_disc = max(rep.detail["path_discrepancy"] for rep in reports.values())
    ok = eq.detail["terminal_ratio"] < 1e-3 and worst_disc <= 1e-8
    _report(
        8,
        ok,
        f"orbit error terminal/peak {eq.detail['terminal_ratio']:.3e} (tol 1e-3); worst "
        f"nonlinear-vs-linear path discrepancy over all (i,s), t<=50: "
        f"{worst_disc:.3e} (tol 1e-8)",
    )


def test_criterion_9_determinism(tmp_path):
    """Same seed, byte-identical CSV artifacts from the one-shot experiment."""
    a, b = tmp_path / "runA", tmp_path / "runB"
    code_a = cli_main(["repro-paper", "--out-dir", str(a)])
    code_b = cli_main(["repro-paper", "--out-dir", str(b)])
    same_err = (a / "errors.csv").read_bytes() == (b / "errors.csv").read_bytes()
    same_lap = (a / "laplace.csv").read_bytes() == (b / "laplace.csv").read_bytes()
    ok = code_a == 0 and code_b == 0 and same_err and same_lap
    _report(
        9,
        ok,
        f"repro runs exited {code_a}/{code_b}; errors.csv identical: {same_err}; "
        f"laplace.csv identical: {same_lap}",
    )
