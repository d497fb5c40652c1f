"""The ``orbit-batch`` workload: the full linear analysis of one initial
condition, as in-process calls into koopcascade on the 7-layer reference
cascade (the system ``repro-paper`` draws at seed 45).

Every library call goes through the ``koopcascade`` package namespace, so a
``tracing.Tracer`` installed later sees it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

import koopcascade as kc

REFERENCE_SEED = 45
LAYERS = 7
HORIZON = 200
RESIDUAL_HORIZON = 50


def setup():
    """The reference cascade, its condition report and perturbation data,
    drawn exactly as ``koopcascade repro-paper --seed 45`` draws them."""
    rng = np.random.default_rng(np.random.SeedSequence(REFERENCE_SEED).spawn(3)[0])
    dims = [int(d) for d in rng.integers(2, 7, LAYERS)]
    norms = [0.9 ** (LAYERS + 1 - i) for i in range(1, LAYERS + 1)]
    system = kc.random_chained_cascade(dims, norms, rng)
    report = kc.validate_conditions(system)
    return system, kc.compute_perturbation(system, report)


@dataclass
class OrbitResult:
    x0: np.ndarray
    error_series: object
    reports_passed: dict[str, bool]
    closed_form: np.ndarray
    coupled: np.ndarray
    max_residual: float


def _stacked(states) -> np.ndarray:
    return np.array([s.stacked() for s in states])


def operation(system, pd, x0) -> OrbitResult:
    """Error series and bounds, asymptotic equivalence, eigenfunction bounds,
    closed form against the iterated orbit, eigenfunction residual sweep."""
    es = kc.compute_error_series(system, pd, x0, HORIZON)
    passed = {
        "error-bounds": kc.check_error_bounds(es).passed,
        "asymptotic-equivalence": kc.check_asymptotic_equivalence(
            system, pd, x0, HORIZON
        ).passed,
        "eigenfunction-bounds": kc.check_eigenfunction_bounds(
            system, pd, x0, HORIZON
        ).passed,
    }
    closed = _stacked(kc.ClosedFormSolution(system, pd).trace(x0, HORIZON))
    coupled = _stacked(kc.iterate_lin(system, x0, HORIZON).states)
    residuals = kc.eigenfunction_residuals(system, pd, [x0], horizon=RESIDUAL_HORIZON)
    return OrbitResult(
        x0=x0.stacked(),
        error_series=es,
        reports_passed=passed,
        closed_form=closed,
        coupled=coupled,
        max_residual=max(residuals.values()),
    )
