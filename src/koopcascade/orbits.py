"""Orbit iteration for coupled and decoupled cascades, plus error series.

For a validated cascade with any lower-triangular coupling and its
perturbation map P (inverse Q), the coupled orbit from x and the decoupled
orbit from P x converge to each other faster than each layer's own decay
rate. This module measures that: per layer, the absolute error, the error
relative to ||L_i||^t, the exact decaying upper bound
sum_{j<i} ||Q_ij|| ||L_j^t (P x)_j||, and the constant envelope
(sum_{j<i} ||Q_ij|| ||(P x)_j||) ||L_i||^t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import IO, Sequence

import numpy as np

from . import linalg
from .cascade import CascadeSystem, StateVector
from .errors import DimensionMismatchError, OrbitOverflowError
from .perturbation import PerturbationData

OVERFLOW_LIMIT = 1e12
LOG_CLAMP = 1e-300
# A series whose terminal value sits this far below its peak has converged
# to the rounding floor; window-based decay ratios are meaningless there.
FLOOR_RATIO = 1e-8


@dataclass(frozen=True)
class OrbitTrace:
    """States of one orbit indexed by t = 0..T."""

    states: tuple[StateVector, ...]
    kind: str

    @property
    def horizon(self) -> int:
        return len(self.states) - 1

    def __getitem__(self, t: int) -> StateVector:
        return self.states[t]

    def __len__(self) -> int:
        return len(self.states)


def check_state(sys: CascadeSystem, x0: StateVector) -> None:
    if x0.dims != sys.dims:
        raise DimensionMismatchError(f"state dims {x0.dims} != system dims {sys.dims}")


def lin_step(sys: CascadeSystem, x: StateVector) -> StateVector:
    """One step of the coupled system (works for any lower-triangular coupling map)."""
    return StateVector.unstack(sys.A @ x.stacked(), sys.dims)


def stacked_orbit(M: np.ndarray, x0: np.ndarray, T: int) -> np.ndarray:
    """[x0, M x0, ..., M^T x0] along a new leading axis; x0 is one stacked
    state of shape (dim,) or a batch of them as the columns of (dim, K)."""
    out = np.empty((T + 1,) + x0.shape, dtype=np.complex128)
    out[0] = x0
    for t in range(T):
        out[t + 1] = M @ out[t]
    return out


def checked_orbit(
    sys: CascadeSystem, M: np.ndarray, x0: np.ndarray, T: int, kind: str
) -> np.ndarray:
    """stacked_orbit that raises OrbitOverflowError once any state after x0
    has a composite norm above OVERFLOW_LIMIT."""
    if T < 0:
        raise ValueError(f"T must be >= 0, got {T}")
    X = stacked_orbit(M, x0, T)
    with np.errstate(over="ignore", invalid="ignore"):
        composite = linalg.layer_norms(X[1:], sys.offsets, axis=1).sum(axis=1)
    if not np.all(composite <= OVERFLOW_LIMIT):
        raise OrbitOverflowError(
            f"composite norm exceeded {OVERFLOW_LIMIT:.1e} while iterating {kind}"
        )
    return X


def _trace(
    sys: CascadeSystem, M: np.ndarray, x0: StateVector, T: int, kind: str
) -> OrbitTrace:
    check_state(sys, x0)
    X = checked_orbit(sys, M, x0.stacked(), T, kind)
    states = (x0,) + tuple(StateVector.unstack(x, sys.dims) for x in X[1:])
    return OrbitTrace(states=states, kind=kind)


def iterate_lin(sys: CascadeSystem, x0: StateVector, T: int) -> OrbitTrace:
    """Coupled orbit for t = 0..T."""
    return _trace(sys, sys.A, x0, T, "Lin")


def iterate_nom(sys: CascadeSystem, x0: StateVector, T: int) -> OrbitTrace:
    """Decoupled orbit for t = 0..T."""
    return _trace(sys, sys.N, x0, T, "Nom")


def _orbit_pair(
    sys: CascadeSystem, pd: PerturbationData, x0: StateVector, T: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stacked coupled orbit from x0, decoupled orbit from P x0, and P x0."""
    check_state(sys, x0)
    x = x0.stacked()
    px = pd.P @ x
    return (
        checked_orbit(sys, sys.A, x, T, "Lin"),
        checked_orbit(sys, sys.N, px, T, "Nom"),
        px,
    )


@dataclass(frozen=True, eq=False)
class ErrorSeries:
    """Per-layer error time series between the coupled orbit from x and the
    decoupled orbit from pert(x).

    Arrays have shape (n, T+1); bound_constant has shape (n,). Layer 1 is
    identically zero: both orbits take the same arithmetic path there.
    """

    horizon: int
    layer_norms: tuple[float, ...]
    abs_err: np.ndarray
    rel_err: np.ndarray
    bound_decaying: np.ndarray
    bound_constant: np.ndarray

    @property
    def n(self) -> int:
        return len(self.layer_norms)

    def bound_envelope(self) -> np.ndarray:
        """bound_constant[i] * ||L_i||^t, shape (n, T+1)."""
        t = np.arange(self.horizon + 1)
        norms = np.asarray(self.layer_norms)[:, None]
        return self.bound_constant[:, None] * norms**t


def compute_error_series(
    sys: CascadeSystem, pd: PerturbationData, x0: StateVector, T: int
) -> ErrorSeries:
    """Simulate both orbits and assemble all four series.

    The decaying bound is sum_{j<i} ||Q_ij|| ||L_j^t (P x)_j||, with the
    propagated perturbed layers V (lam^t * Vinv P x) and exactly P x at t = 0.
    """
    lin, nom, px = _orbit_pair(sys, pd, x0, T)
    abs_err = linalg.layer_norms(lin - nom, sys.offsets).T

    t_grid = np.arange(T + 1)
    propagated = linalg.apply_by_block_rows(
        sys.lams ** t_grid[:, None] * (sys.Vinv @ px), sys.V, sys.offsets
    )
    propagated[0] = px
    d_norms = np.zeros((sys.n, sys.n))
    for i in range(2, sys.n + 1):
        for j in range(1, i):
            d_norms[i - 1, j - 1] = linalg.operator_norm(pd.D(i, j))
    bound_a = d_norms @ linalg.layer_norms(propagated, sys.offsets).T

    norms = np.asarray(sys.norms)
    return ErrorSeries(
        horizon=T,
        layer_norms=sys.norms,
        abs_err=abs_err,
        rel_err=abs_err / norms[:, None] ** t_grid,
        bound_decaying=bound_a,
        bound_constant=bound_a[:, 0].copy(),
    )


@dataclass(frozen=True)
class BoundCheckReport:
    """Did the error series respect its proved bounds and decay empirically?

    max_bound_violation: worst abs_err - bound_decaying over all (layer, t).
    max_envelope_violation: worst bound_decaying - envelope over all (layer, t).
    decay_ratios[i]: rel_err(T) / rel_err(T0) per layer (window check).
    terminal_ratios[i]: rel_err(T) / max_t rel_err per layer.
    """

    passed: bool
    bounds_ok: bool
    decay_ok: bool
    max_bound_violation: float
    max_envelope_violation: float
    decay_ratios: tuple[float, ...]
    terminal_ratios: tuple[float, ...]
    slack: float
    decay_factor: float
    window_start: int

    def to_json(self) -> dict:
        return {
            "passed": bool(self.passed),
            "bounds_ok": bool(self.bounds_ok),
            "decay_ok": bool(self.decay_ok),
            "max_bound_violation": float(self.max_bound_violation),
            "max_envelope_violation": float(self.max_envelope_violation),
            "decay_ratios": [float(r) for r in self.decay_ratios],
            "terminal_ratios": [float(r) for r in self.terminal_ratios],
            "slack": float(self.slack),
            "decay_factor": float(self.decay_factor),
            "window_start": int(self.window_start),
        }


def check_error_bounds(
    es: ErrorSeries,
    slack: float = 1e-9,
    decay_factor: float = 1e-3,
    window_start: int | None = None,
    rel_floor: float = 1e-10,
) -> BoundCheckReport:
    """Verify the two bound inequalities for every (layer, t) and the
    empirical relative-error decay over the last part of the horizon.

    The limit statement is operationalized as rel_err(T) <= decay_factor *
    rel_err(window_start), with window_start defaulting to T // 2. Two
    escapes count as converged regardless of the window ratio: a terminal
    relative error at or below rel_floor, or a terminal value at least
    eight orders below the series peak. Both cover series whose true error
    decays at the spectral-radius rate and hits the rounding floor
    mid-horizon, after which the measured values flatten.
    """
    T = es.horizon
    t0 = T // 2 if window_start is None else window_start
    if not 0 <= t0 <= T:
        raise ValueError(f"window_start {t0} outside horizon 0..{T}")

    envelope = es.bound_envelope()
    bound_viol = float(np.max(es.abs_err - es.bound_decaying)) if es.abs_err.size else 0.0
    env_viol = float(np.max(es.bound_decaying - envelope)) if es.abs_err.size else 0.0
    bounds_ok = bound_viol <= slack and env_viol <= slack

    decay_ratios = []
    terminal_ratios = []
    decay_ok = True
    for k in range(es.n):
        base = es.rel_err[k, t0]
        term = es.rel_err[k, T]
        peak = float(np.max(es.rel_err[k]))
        decay_ratios.append(term / base if base > 0 else 0.0)
        terminal_ratios.append(term / peak if peak > 0 else 0.0)
        if (
            k >= 1
            and term > base * decay_factor + LOG_CLAMP
            and term > rel_floor
            and term > peak * FLOOR_RATIO
        ):
            decay_ok = False

    return BoundCheckReport(
        passed=bounds_ok and decay_ok,
        bounds_ok=bounds_ok,
        decay_ok=decay_ok,
        max_bound_violation=bound_viol,
        max_envelope_violation=env_viol,
        decay_ratios=tuple(decay_ratios),
        terminal_ratios=tuple(terminal_ratios),
        slack=slack,
        decay_factor=decay_factor,
        window_start=t0,
    )


@dataclass(frozen=True)
class EquivalenceReport:
    """Composite-norm convergence of the two orbits (whole-state check)."""

    passed: bool
    initial_error: float
    terminal_error: float
    ratio: float

    def to_json(self) -> dict:
        return {
            "passed": bool(self.passed),
            "initial_error": float(self.initial_error),
            "terminal_error": float(self.terminal_error),
            "ratio": float(self.ratio),
        }


def check_asymptotic_equivalence(
    sys: CascadeSystem,
    pd: PerturbationData,
    x0: StateVector,
    T: int,
    ratio_tol: float = 1e-6,
    slack: float = 1e-9,
) -> EquivalenceReport:
    """Composite-norm distance between the coupled orbit from x0 and the
    decoupled orbit from pert(x0) must shrink by ratio_tol over the horizon."""
    lin, nom, _ = _orbit_pair(sys, pd, x0, T)
    ends = linalg.layer_norms(lin[[0, T]] - nom[[0, T]], sys.offsets).sum(axis=1)
    e0, eT = float(ends[0]), float(ends[1])
    ratio = eT / e0 if e0 > 0 else 0.0
    return EquivalenceReport(
        passed=eT <= max(ratio_tol * e0, slack),
        initial_error=e0,
        terminal_error=eT,
        ratio=ratio,
    )


# ---------------------------------------------------------------------------
# CSV export
# ---------------------------------------------------------------------------

CSV_COLUMNS = (
    "t",
    "layer",
    "abs_err",
    "rel_err",
    "bound_a",
    "bound_b_times_norm_pow",
    "log_abs_err",
    "log_rel_err",
)


def _clamped_log(v: float) -> float:
    return math.log(max(v, LOG_CLAMP))


def write_error_csv(es: ErrorSeries, fh: IO[str]) -> None:
    """One row per (t, layer), natural logs clamped at 1e-300."""
    envelope = es.bound_envelope()
    fh.write(",".join(CSV_COLUMNS) + "\n")
    for t in range(es.horizon + 1):
        for k in range(es.n):
            row = (
                str(t),
                str(k + 1),
                f"{es.abs_err[k, t]:.17g}",
                f"{es.rel_err[k, t]:.17g}",
                f"{es.bound_decaying[k, t]:.17g}",
                f"{envelope[k, t]:.17g}",
                f"{_clamped_log(es.abs_err[k, t]):.17g}",
                f"{_clamped_log(es.rel_err[k, t]):.17g}",
            )
            fh.write(",".join(row) + "\n")


def error_series_to_csv(es: ErrorSeries, path) -> None:
    with open(path, "w", newline="") as fh:
        write_error_csv(es, fh)


def log_slope(values: Sequence[float], t_start: int, t_end: int) -> float:
    """Least-squares slope of log(values[t]) over t in [t_start, t_end]."""
    ts = np.arange(t_start, t_end + 1)
    ys = np.array([_clamped_log(float(values[t])) for t in ts])
    return float(np.polyfit(ts, ys, 1)[0])
