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
    return _error_series(sys, pd, *_orbit_pair(sys, pd, x0, T))


def _error_series(
    sys: CascadeSystem,
    pd: PerturbationData,
    lin: np.ndarray,
    nom: np.ndarray,
    px: np.ndarray,
) -> ErrorSeries:
    """compute_error_series from the orbits _orbit_pair returns."""
    T = len(lin) - 1
    abs_err = linalg.layer_norms(lin - nom, sys.offsets).T

    propagated = linalg.apply_by_block_rows(
        sys.lam_powers(T) * (sys.Vinv @ px), sys.V, sys.offsets
    )
    propagated[0] = px
    bound_a = pd.d_norms @ linalg.layer_norms(propagated, sys.offsets).T

    norms = np.asarray(sys.norms)
    return ErrorSeries(
        horizon=T,
        layer_norms=sys.norms,
        abs_err=abs_err,
        rel_err=abs_err / norms[:, None] ** np.arange(T + 1),
        bound_decaying=bound_a,
        bound_constant=bound_a[:, 0].copy(),
    )


@dataclass(frozen=True)
class CheckResult:
    """The verdict of one check and the fields its report carries.

    detail holds plain float/bool/int/dict/list values; to_json() is the
    check's entry in verify_report.json.
    """

    passed: bool
    detail: dict

    def to_json(self) -> dict:
        return {"passed": self.passed, **self.detail}


def check_error_bounds(
    es: ErrorSeries,
    slack: float = 1e-9,
    decay_factor: float = 1e-3,
    window_start: int | None = None,
    rel_floor: float = 1e-10,
) -> CheckResult:
    """Verify the two bound inequalities for every (layer, t) and the
    empirical relative-error decay over the last part of the horizon.

    The limit statement is operationalized as rel_err(T) <= decay_factor *
    rel_err(window_start), with window_start defaulting to T // 2. Two
    escapes count as converged regardless of the window ratio: a terminal
    relative error at or below rel_floor, or a terminal value at least
    eight orders below the series peak. Both cover series whose true error
    decays at the spectral-radius rate and hits the rounding floor
    mid-horizon, after which the measured values flatten.

    detail: max_bound_violation, the worst abs_err - bound_decaying over all
    (layer, t); max_envelope_violation, the worst bound_decaying - envelope;
    per layer, decay_ratios rel_err(T) / rel_err(window_start) and
    terminal_ratios rel_err(T) / max_t rel_err (0 where the divisor is not
    positive); and the tolerances used.
    """
    T = es.horizon
    t0 = T // 2 if window_start is None else window_start
    if not 0 <= t0 <= T:
        raise ValueError(f"window_start {t0} outside horizon 0..{T}")

    envelope = es.bound_envelope()
    bound_viol = float(np.max(es.abs_err - es.bound_decaying)) if es.abs_err.size else 0.0
    env_viol = float(np.max(es.bound_decaying - envelope)) if es.abs_err.size else 0.0
    bounds_ok = bool(bound_viol <= slack and env_viol <= slack)

    base, term = es.rel_err[:, t0], es.rel_err[:, T]
    peak = es.rel_err.max(axis=1)
    decay_ratios = np.divide(term, base, out=np.zeros_like(term), where=base > 0)
    terminal_ratios = np.divide(term, peak, out=np.zeros_like(term), where=peak > 0)
    stalled = (
        (term > base * decay_factor + LOG_CLAMP)
        & (term > rel_floor)
        & (term > peak * FLOOR_RATIO)
    )
    decay_ok = not stalled[1:].any()

    return CheckResult(
        passed=bounds_ok and decay_ok,
        detail={
            "bounds_ok": bounds_ok,
            "decay_ok": decay_ok,
            "max_bound_violation": bound_viol,
            "max_envelope_violation": env_viol,
            "decay_ratios": decay_ratios.tolist(),
            "terminal_ratios": terminal_ratios.tolist(),
            "slack": float(slack),
            "decay_factor": float(decay_factor),
            "window_start": int(t0),
        },
    )


def check_asymptotic_equivalence(
    sys: CascadeSystem,
    pd: PerturbationData,
    x0: StateVector,
    T: int,
    ratio_tol: float = 1e-6,
    slack: float = 1e-9,
) -> CheckResult:
    """Composite-norm distance between the coupled orbit from x0 and the
    decoupled orbit from pert(x0) must shrink by ratio_tol over the horizon."""
    lin, nom, _ = _orbit_pair(sys, pd, x0, T)
    ends = linalg.layer_norms(lin[[0, T]] - nom[[0, T]], sys.offsets).sum(axis=1)
    e0, eT = float(ends[0]), float(ends[1])
    return CheckResult(
        passed=bool(eT <= max(ratio_tol * e0, slack)),
        detail={
            "initial_error": e0,
            "terminal_error": eT,
            "ratio": eT / e0 if e0 > 0 else 0.0,
        },
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
_CSV_ROW = "%d,%d,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g\n"


def _clamped_log(v: float) -> float:
    return math.log(max(v, LOG_CLAMP))


def write_error_csv(es: ErrorSeries, fh: IO[str]) -> None:
    """One row per (t, layer), natural logs clamped at 1e-300."""
    fh.write(",".join(CSV_COLUMNS) + "\n")
    # rows of Python floats by t: formatting numpy scalars one by one is slower
    abs_err, rel_err, bound, envelope = (
        s.T.tolist() for s in (es.abs_err, es.rel_err, es.bound_decaying, es.bound_envelope())
    )
    for t in range(es.horizon + 1):
        for k, (a, r, b, e) in enumerate(
            zip(abs_err[t], rel_err[t], bound[t], envelope[t]), start=1
        ):
            fh.write(_CSV_ROW % (t, k, a, r, b, e, _clamped_log(a), _clamped_log(r)))


def error_series_to_csv(es: ErrorSeries, path) -> None:
    with open(path, "w", newline="") as fh:
        write_error_csv(es, fh)


def log_slope(values: Sequence[float], t_start: int, t_end: int) -> float:
    """Least-squares slope of log(values[t]) over t in [t_start, t_end]."""
    ts = np.arange(t_start, t_end + 1)
    ys = np.array([_clamped_log(float(values[t])) for t in ts])
    return float(np.polyfit(ts, ys, 1)[0])
