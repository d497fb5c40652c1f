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
from .orbits import CheckResult, checked_orbit
from .perturbation import PerturbationData

CONJ_TOL = 1e-10
WORKING_BALL_RADIUS = 2.0


# Inside the cubic maps, overflow gives inf, 2/r is inf at a = 0 and the
# closed form's inf*0 there is replaced by w; these are expected, so the maps
# run with their floating-point warnings off.
_FP_IGNORE = {"over": "ignore", "divide": "ignore", "invalid": "ignore"}


def _cubic(v: np.ndarray, c: np.ndarray) -> np.ndarray:
    """u -> u + c*u**3 on the real and imaginary parts of stacked states
    (coordinates along the last axis); overflow gives inf. Call under
    np.errstate(**_FP_IGNORE)."""
    re, im = v.real, v.imag
    return (re + c * re**3) + 1j * (im + c * im**3)


class _CubicInverse:
    """Inverse of _cubic with the coefficients c: solves u + a*u**3 = w for
    each real and imaginary part w of stacked states (a >= 0 per coordinate,
    strictly increasing).

    Closed form (hyperbolic Cardano): u = (2/r) sinh(asinh(1.5 r w) / 3) with
    r = sqrt(3a), polished by one Newton step. Where 1.5 r w is not finite the
    cubic term dominates and the start is cbrt(w / a) instead. Coordinates with
    a = 0 give u = w exactly. Non-finite w gives a non-finite u, silently.
    The constants of a are computed once, here; call under
    np.errstate(**_FP_IGNORE).
    """

    def __init__(self, c: np.ndarray):
        # the float64 view of a complex state interleaves re_0, im_0, re_1, ...
        a = np.repeat(c, 2)
        r = np.sqrt(3.0 * a)
        with np.errstate(divide="ignore"):
            self.two_over_r = 2.0 / r
        self.a, self.r15, self.a3, self.linear = a, 1.5 * r, 3.0 * a, a == 0.0

    def __call__(self, v: np.ndarray) -> np.ndarray:
        w = np.ascontiguousarray(v, dtype=np.complex128).view(np.float64)
        return self.solve(w).view(np.complex128)

    def solve(self, w: np.ndarray) -> np.ndarray:
        """u with u + a*u**3 = w, coordinatewise on float64 parts."""
        z = self.r15 * w
        u = self.two_over_r * np.sinh(np.arcsinh(z) / 3.0)
        huge = ~np.isfinite(z)
        if huge.any():
            u[huge] = np.cbrt(w / self.a)[huge]
        np.copyto(u, w, where=self.linear)
        return u - (u + self.a * u**3 - w) / (1.0 + self.a3 * u * u)


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
        return tuple(np.errstate(**_FP_IGNORE)(f) for f in self._bare_stacked_maps(dims))

    def _bare_stacked_maps(self, dims: Sequence[int]) -> tuple[Callable, Callable]:
        """stacked_maps without their np.errstate(**_FP_IGNORE), for a caller
        that holds it over many calls."""
        if self.cubic_coeffs is None:
            return (lambda v: v), (lambda v: v)
        c = _coords(self.cubic_coeffs, dims)
        return partial(_cubic, c=c), _CubicInverse(c)

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
        @np.errstate(**_FP_IGNORE)
        def apply(x: StateVector) -> StateVector:
            return StateVector.unstack(stacked_map(x.stacked(), _coords(a, x.dims)), x.dims)

        return apply

    return Conjugacy(
        kind="polynomialDiagonal",
        forward=on_states(_cubic),
        inverse=on_states(lambda v, c: _CubicInverse(c)(v)),
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
    forward, inverse = nl.conj._bare_stacked_maps(nl.base.dims)
    Y = np.empty((T + 1, y0.size), dtype=np.complex128)
    X = np.empty_like(Y)
    Y[0] = y0
    # an overflowing M @ X[t] is reported below, as every non-finite state is
    with np.errstate(**_FP_IGNORE):
        for t in range(T):
            X[t] = inverse(Y[t])
            Y[t + 1] = forward(M @ X[t])
        X[T] = inverse(Y[T])
    if not (np.isfinite(Y).all() and np.isfinite(X).all()):
        raise OrbitOverflowError("non-finite state while iterating the conjugated orbit")
    return Y, X


def check_nonlinear_equivalence(
    nl: NonlinearCascade,
    pd: PerturbationData,
    Y: np.ndarray,
    X: np.ndarray,
    decay_factor: float = 1e-3,
) -> CheckResult:
    """Verify that the coupled nonlinear orbit and the perturbed nominal
    nonlinear orbit converge to each other over the horizon.

    Y and X are the coupled orbit from y0 and its tau^-1, as
    conjugated_orbit(nl, nl.base.A, y0, T) returns them. detail holds the
    terminal and max composite distance between Y and the nominal orbit from
    the perturbed start, their ratio, and entered_ball_at, the first t with
    Y[t] inside the working ball (None if never).
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
    return CheckResult(
        passed=bool(ratio < decay_factor or peak == 0.0),
        detail={
            "terminal_error": float(errors[-1]),
            "max_error": peak,
            "terminal_ratio": ratio,
            "decay_factor": float(decay_factor),
            "entered_ball_at": int(inside[0]) if inside.size else None,
        },
    )


def check_nonlinear_eigenfunction_decay(
    nl: NonlinearCascade,
    pd: PerturbationData,
    X: np.ndarray,
    decay_factor: float = 1e-3,
    agreement_horizon: int = 50,
    agreement_tol: float = 1e-8,
) -> dict[tuple[int, int], CheckResult]:
    """Track every (psi_is o tau^-1) along the nonlinear orbit against its
    eigenvalue prediction at the perturbed start, relative to the layer
    norm decay; one result per mode (i, s).

    X is tau^-1 of the coupled nonlinear orbit for t = 0..T, the second
    array conjugated_orbit(nl, nl.base.A, y0, T) returns; its first T + 1
    states from a longer orbit are the same. The same quantities evaluated
    purely on the linear side (at X[0]) must agree along the way; that
    identity is the cross-check.

    The ratio at step t is the nonlinear-path difference over the layer norm
    to the t; path_discrepancy is the largest |nonlinear - linear| ratio
    disagreement over the agreement horizon.
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
        mode: CheckResult(
            passed=bool(decay_ok[m] and paths_agree[m]),
            detail={
                "decay_ok": bool(decay_ok[m]),
                "paths_agree": bool(paths_agree[m]),
                "terminal_ratio": float(terminal[m]),
                # max() passes over a NaN ratio (0/0 once the norm power
                # underflows) that peak would carry
                "max_ratio": max(ratios[:, m].tolist()),
                "path_discrepancy": float(discrepancy[m]),
                "agreement_horizon": int(h),
                "decay_factor": float(decay_factor),
                "agreement_tol": float(agreement_tol),
            },
        )
        for m, mode in enumerate(sys.modes)
    }
