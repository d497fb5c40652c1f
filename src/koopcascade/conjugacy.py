"""Nonlinear cascades realized through a topological change of coordinates.

A conjugacy tau (a homeomorphism fixing the origin) turns the linear
cascade into a nonlinear one by NonLin = tau o Lin o tau^-1. Everything
proved for the linear system transports: the nominal nonlinear system is
tau o Nom o tau^-1, its perturbation map is tau o pert o tau^-1, and
eigenfunctions transfer as psi o tau^-1. The stock conjugacy is a
per-coordinate monotone cubic u -> u + a*u^3 applied to real and
imaginary parts, inverted in closed form (hyperbolic Cardano) plus one
Newton step.

Every nonlinear orbit comes from one loop on stacked arrays,
conjugated_orbit, which keeps the tau^-1 of each state it solved; both
checks are array code over its output.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Sequence

import numpy as np

from . import linalg
from .cascade import CascadeSystem, StateVector
from .errors import DimensionMismatchError, OrbitOverflowError
from .observables import inherited_eigenfunctions
from .orbits import checked_orbit
from .perturbation import PerturbationData

CONJ_TOL = 1e-10
WORKING_BALL_RADIUS = 2.0


@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def _invert_monotone_cubic(w: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Solve u + a*u**3 = w coordinatewise (a >= 0 per coordinate, strictly
    increasing).

    Closed form (hyperbolic Cardano): u = (2/r) sinh(asinh(1.5 r w) / 3) with
    r = sqrt(3a), polished by one Newton step. Where 1.5 r w is not finite the
    cubic term dominates and the start is cbrt(w / a) instead. Coordinates with
    a = 0 give u = w exactly. Non-finite w gives a non-finite u, silently.
    """
    r = np.sqrt(3.0 * a)
    z = 1.5 * r * w
    u = np.where(np.isfinite(z), 2.0 / r * np.sinh(np.arcsinh(z) / 3.0), np.cbrt(w / a))
    u = np.where(a == 0.0, w, u)
    return u - (u + a * u**3 - w) / (1.0 + 3.0 * a * u * u)


@np.errstate(over="ignore", invalid="ignore")
def _cubic(v: np.ndarray, c: np.ndarray) -> np.ndarray:
    """u -> u + c*u**3 on the real and imaginary parts of stacked states
    (coordinates along the last axis); overflow gives inf, silently."""
    re, im = v.real, v.imag
    return (re + c * re**3) + 1j * (im + c * im**3)


def _cubic_inverse(v: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Inverse of _cubic: one closed-form solve over all real and imaginary
    parts."""
    u = _invert_monotone_cubic(np.stack([v.real, v.imag]), c)
    return u[0] + 1j * u[1]


def _coords(a: tuple[float, ...], dims: Sequence[int]) -> np.ndarray:
    """Per-layer coefficients spread over the stacked coordinates."""
    if len(dims) != len(a):
        raise DimensionMismatchError(
            f"state has {len(dims)} layers, conjugacy expects {len(a)}"
        )
    return np.repeat(a, dims)


@dataclass(frozen=True)
class Conjugacy:
    """Forward/inverse coordinate change on the full state space.

    Fixes the origin; round trips on the working ball stay within
    CONJ_TOL * (1 + composite norm). forward and inverse act on one
    StateVector; stacked_maps gives the same maps on stacked arrays.
    """

    kind: str
    forward: Callable[[StateVector], StateVector]
    inverse: Callable[[StateVector], StateVector]
    cubic_coeffs: tuple[float, ...] | None = None

    def stacked_maps(self, dims: Sequence[int]) -> tuple[Callable, Callable]:
        """(tau, tau^-1) on stacked states of a cascade with these layer
        dims, coordinates along the last axis."""
        if self.cubic_coeffs is None:
            return (lambda v: v), (lambda v: v)
        c = _coords(self.cubic_coeffs, dims)
        return partial(_cubic, c=c), partial(_cubic_inverse, c=c)

    def to_json(self) -> dict:
        if self.kind == "identity":
            return {"kind": "identity"}
        if self.kind == "polynomialDiagonal":
            return {"kind": "polynomialDiagonal", "a": list(self.cubic_coeffs or ())}
        raise ValueError(f"conjugacy kind {self.kind!r} is not serializable")


def identity_conjugacy() -> Conjugacy:
    return Conjugacy(
        kind="identity",
        forward=lambda x: x,
        inverse=lambda x: x,
    )


def polynomial_conjugacy(coeffs: Sequence[float]) -> Conjugacy:
    """Diagonal cubic coordinate change: per layer i, each real and imaginary
    part u maps to u + a_i * u**3. Requires a_i >= 0 (global bijection)."""
    a = tuple(float(c) for c in coeffs)
    if any(not np.isfinite(c) or c < 0 for c in a):
        raise ValueError(f"cubic coefficients must be finite and >= 0, got {a}")

    def on_states(stacked_map):
        def apply(x: StateVector) -> StateVector:
            return StateVector.unstack(stacked_map(x.stacked(), _coords(a, x.dims)), x.dims)

        return apply

    return Conjugacy(
        kind="polynomialDiagonal",
        forward=on_states(_cubic),
        inverse=on_states(_cubic_inverse),
        cubic_coeffs=a,
    )


def conjugacy_from_json(obj) -> Conjugacy:
    kind = obj["kind"]
    if kind == "identity":
        return identity_conjugacy()
    if kind == "polynomialDiagonal":
        return polynomial_conjugacy(obj["a"])
    raise ValueError(f"unknown conjugacy kind {kind!r}")


@dataclass(frozen=True, eq=False)
class NonlinearCascade:
    """Linear cascade viewed through a conjugacy: one step is
    tau(Lin(tau^-1(y))), the nominal step tau(Nom(tau^-1(y)))."""

    base: CascadeSystem
    conj: Conjugacy


def conjugated_orbit(
    nl: NonlinearCascade, M: np.ndarray, y0: np.ndarray, T: int
) -> tuple[np.ndarray, np.ndarray]:
    """Orbit of y[t+1] = tau(M tau^-1(y[t])) from the stacked state y0, with
    M = base.A (coupled) or base.N (nominal).

    Returns Y, the (T+1, dim) orbit, and X with X[t] = tau^-1(Y[t]).
    Raises OrbitOverflowError if any state of either is not finite.
    """
    if T < 0:
        raise ValueError(f"T must be >= 0, got {T}")
    forward, inverse = nl.conj.stacked_maps(nl.base.dims)
    Y = np.empty((T + 1, y0.size), dtype=np.complex128)
    X = np.empty_like(Y)
    Y[0] = y0
    for t in range(T):
        X[t] = inverse(Y[t])
        Y[t + 1] = forward(M @ X[t])
    X[T] = inverse(Y[T])
    if not (np.isfinite(Y).all() and np.isfinite(X).all()):
        raise OrbitOverflowError("non-finite state while iterating the conjugated orbit")
    return Y, X


@dataclass(frozen=True)
class NonlinearEquivalenceReport:
    """Decay of the nonlinear coupled/nominal orbit distance.

    errors[t] = composite distance at step t between the coupled orbit from
    y0 and the nominal nonlinear orbit from the perturbed initial condition.
    """

    passed: bool
    errors: tuple[float, ...]
    terminal_ratio: float
    decay_factor: float
    entered_ball_at: int | None

    def to_json(self) -> dict:
        return {
            "passed": bool(self.passed),
            "terminal_error": float(self.errors[-1]),
            "max_error": float(max(self.errors)),
            "terminal_ratio": float(self.terminal_ratio),
            "decay_factor": float(self.decay_factor),
            "entered_ball_at": self.entered_ball_at,
        }


def check_nonlinear_equivalence(
    nl: NonlinearCascade,
    pd: PerturbationData,
    Y: np.ndarray,
    X: np.ndarray,
    decay_factor: float = 1e-3,
) -> NonlinearEquivalenceReport:
    """Verify that the coupled nonlinear orbit and the perturbed nominal
    nonlinear orbit converge to each other over the horizon.

    Y and X are the coupled orbit from y0 and its tau^-1, as
    conjugated_orbit(nl, nl.base.A, y0, T) returns them.
    """
    sys = nl.base
    forward, _ = nl.conj.stacked_maps(sys.dims)
    nominal, _ = conjugated_orbit(nl, sys.N, forward(pd.P @ X[0]), len(Y) - 1)
    # states near the float64 limit overflow the plain squares of layer_norms,
    # which then rescales them
    with np.errstate(over="ignore"):
        errors = linalg.layer_norms(Y - nominal, sys.offsets).sum(axis=1)
        norms = linalg.layer_norms(Y, sys.offsets).sum(axis=1)
    peak = float(errors.max())
    ratio = float(errors[-1]) / peak if peak > 0 else 0.0
    inside = np.flatnonzero(norms <= WORKING_BALL_RADIUS)
    return NonlinearEquivalenceReport(
        passed=ratio < decay_factor or peak == 0.0,
        errors=tuple(errors.tolist()),
        terminal_ratio=ratio,
        decay_factor=decay_factor,
        entered_ball_at=int(inside[0]) if inside.size else None,
    )


@dataclass(frozen=True)
class NonlinearEigenfunctionReport:
    """Nonlinear-path eigenfunction evolution vs its linear-path twin.

    ratios[t] is the nonlinear-path difference divided by the layer norm
    to the t; path_discrepancy is the largest |nonlinear - linear| ratio
    disagreement over the agreement horizon.
    """

    passed: bool
    decay_ok: bool
    paths_agree: bool
    ratios: tuple[float, ...]
    terminal_ratio: float
    path_discrepancy: float
    agreement_horizon: int
    decay_factor: float
    agreement_tol: float

    def to_json(self) -> dict:
        return {
            "passed": bool(self.passed),
            "decay_ok": bool(self.decay_ok),
            "paths_agree": bool(self.paths_agree),
            "terminal_ratio": float(self.terminal_ratio),
            "max_ratio": float(max(self.ratios)),
            "path_discrepancy": float(self.path_discrepancy),
            "agreement_horizon": int(self.agreement_horizon),
            "decay_factor": float(self.decay_factor),
            "agreement_tol": float(self.agreement_tol),
        }


def check_nonlinear_eigenfunction_decay(
    nl: NonlinearCascade,
    pd: PerturbationData,
    X: np.ndarray,
    decay_factor: float = 1e-3,
    agreement_horizon: int = 50,
    agreement_tol: float = 1e-8,
) -> dict[tuple[int, int], NonlinearEigenfunctionReport]:
    """Track every (psi_is o tau^-1) along the nonlinear orbit against its
    eigenvalue prediction at the perturbed start, relative to the layer
    norm decay; one report per mode (i, s).

    X is tau^-1 of the coupled nonlinear orbit for t = 0..T, the second
    array conjugated_orbit(nl, nl.base.A, y0, T) returns; its first T + 1
    states from a longer orbit are the same. The same quantities evaluated
    purely on the linear side (at X[0]) must agree along the way; that
    identity is the cross-check.
    """
    sys = nl.base
    T = len(X) - 1
    predicted = sys.lam_powers(T) * inherited_eigenfunctions(sys, pd, X[0])
    norm_pow = np.repeat(sys.norms, sys.dims) ** np.arange(T + 1)[:, None]
    linear = checked_orbit(sys, sys.A, X[0], T, "Lin")
    ratios, ratios_lin = (
        np.abs(linalg.apply_by_block_rows(Z, sys.Vinv, sys.offsets) - predicted) / norm_pow
        for Z in (X, linear)
    )

    h = min(agreement_horizon, T)
    discrepancy = np.abs(ratios[: h + 1] - ratios_lin[: h + 1]).max(axis=0)
    peak = ratios.max(axis=0)
    terminal = np.divide(ratios[-1], peak, out=np.zeros_like(peak), where=peak > 0)
    decay_ok = (peak == 0.0) | (terminal < decay_factor)
    paths_agree = discrepancy <= agreement_tol
    return {
        mode: NonlinearEigenfunctionReport(
            passed=bool(decay_ok[m] and paths_agree[m]),
            decay_ok=bool(decay_ok[m]),
            paths_agree=bool(paths_agree[m]),
            ratios=tuple(ratios[:, m].tolist()),
            terminal_ratio=float(terminal[m]),
            path_discrepancy=float(discrepancy[m]),
            agreement_horizon=h,
            decay_factor=decay_factor,
            agreement_tol=agreement_tol,
        )
        for m, mode in enumerate(sys.modes)
    }
