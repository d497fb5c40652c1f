"""Nonlinear cascades realized through a topological change of coordinates.

A conjugacy tau (a homeomorphism fixing the origin) turns the linear
cascade into a nonlinear one by NonLin = tau o Lin o tau^-1. Everything
proved for the linear system transports: the nominal nonlinear system is
tau o Nom o tau^-1, its perturbation map is tau o pert o tau^-1, and
eigenfunctions transfer as psi o tau^-1. The stock conjugacy is a
per-coordinate monotone cubic u -> u + a*u^3 applied to real and
imaginary parts, inverted by safeguarded Newton.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import linalg
from .cascade import CascadeSystem, StateVector
from .errors import DimensionMismatchError, NewtonDivergenceError
from .observables import principal_eigenfunction
from .orbits import OrbitTrace, iterate_lin, lin_step, nom_step
from .perturbation import PerturbationData, apply_perturbation

CONJ_TOL = 1e-10
NEWTON_TOL = 1e-12
NEWTON_MAX_ITER = 100
WORKING_BALL_RADIUS = 2.0


def _invert_monotone_cubic(w: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Solve u + a*u**3 = w coordinatewise (a >= 0 per coordinate, strictly
    increasing).

    Newton with a bisection safeguard on the bracket [0, w] (signs included);
    residual tolerance NEWTON_TOL * (1 + |w|). The start is w / (1 + a*w**2),
    or cbrt(w / a) where a*w**2 > 1, where the cubic term dominates; both lie
    in the bracket. Coordinates with a = 0 are exact from the first iterate,
    u = w.
    """
    lo = np.minimum(w, 0.0)
    hi = np.maximum(w, 0.0)
    cubic = a * w * w > 1.0
    u = np.where(cubic, np.cbrt(w / np.where(cubic, a, 1.0)), w / (1.0 + a * w * w))
    tol = NEWTON_TOL * (1.0 + np.abs(w))
    for _ in range(NEWTON_MAX_ITER):
        f = u + a * u**3 - w
        if np.all(np.abs(f) <= tol):
            return u
        hi = np.where(f > 0, np.minimum(hi, u), hi)
        lo = np.where(f < 0, np.maximum(lo, u), lo)
        step = f / (1.0 + 3.0 * a * u * u)
        u_new = u - step
        outside = (u_new < lo) | (u_new > hi)
        u = np.where(outside, 0.5 * (lo + hi), u_new)
    raise NewtonDivergenceError(
        f"cubic inversion did not converge in {NEWTON_MAX_ITER} iterations "
        f"(max a={float(np.max(a))})"
    )


@dataclass(frozen=True)
class Conjugacy:
    """Forward/inverse coordinate change on the full state space.

    Fixes the origin; round trips on the working ball stay within
    CONJ_TOL * (1 + composite norm).
    """

    kind: str
    forward: Callable[[StateVector], StateVector]
    inverse: Callable[[StateVector], StateVector]
    inverse_mode: str
    cubic_coeffs: tuple[float, ...] | None = None

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
        inverse_mode="closedForm",
    )


def polynomial_conjugacy(coeffs: Sequence[float]) -> Conjugacy:
    """Diagonal cubic coordinate change: per layer i, each real and imaginary
    part u maps to u + a_i * u**3. Requires a_i >= 0 (global bijection)."""
    a = tuple(float(c) for c in coeffs)
    if any(not np.isfinite(c) or c < 0 for c in a):
        raise ValueError(f"cubic coefficients must be finite and >= 0, got {a}")

    def coeffs_for(x: StateVector) -> np.ndarray:
        if len(x) != len(a):
            raise DimensionMismatchError(
                f"state has {len(x)} layers, conjugacy expects {len(a)}"
            )
        return np.repeat(a, x.dims)

    def forward(x: StateVector) -> StateVector:
        c = coeffs_for(x)
        v = x.stacked()
        re, im = v.real, v.imag
        return StateVector.unstack((re + c * re**3) + 1j * (im + c * im**3), x.dims)

    def inverse(y: StateVector) -> StateVector:
        """One safeguarded Newton solve over all real and imaginary parts."""
        c = coeffs_for(y)
        v = y.stacked()
        u = _invert_monotone_cubic(np.concatenate([v.real, v.imag]), np.concatenate([c, c]))
        return StateVector.unstack(u[: v.size] + 1j * u[v.size :], y.dims)

    return Conjugacy(
        kind="polynomialDiagonal",
        forward=forward,
        inverse=inverse,
        inverse_mode="closedForm" if all(c == 0 for c in a) else "newton",
        cubic_coeffs=a,
    )


def conjugacy_from_json(obj) -> Conjugacy:
    kind = obj["kind"]
    if kind == "identity":
        return identity_conjugacy()
    if kind == "polynomialDiagonal":
        return polynomial_conjugacy(obj["a"])
    raise ValueError(f"unknown conjugacy kind {kind!r}")


def round_trip_error(
    conj: Conjugacy,
    states: Sequence[StateVector],
) -> float:
    """Max scaled round-trip error max ||tau(tau^-1(y)) - y|| / (1 + ||y||)."""
    worst = 0.0
    for y in states:
        back = conj.forward(conj.inverse(y))
        err = linalg.composite_norm(back - y) / (1.0 + linalg.composite_norm(y))
        worst = max(worst, err)
    return worst


@dataclass(frozen=True, eq=False)
class NonlinearCascade:
    """Linear cascade viewed through a conjugacy: one step is
    tau(Lin(tau^-1(y)))."""

    base: CascadeSystem
    conj: Conjugacy

    def step(self, y: StateVector) -> StateVector:
        return self.conj.forward(lin_step(self.base, self.conj.inverse(y)))

    def nominal_step(self, y: StateVector) -> StateVector:
        return self.conj.forward(nom_step(self.base, self.conj.inverse(y)))

    def perturb(self, pd: PerturbationData, y: StateVector) -> StateVector:
        """tau o pert o tau^-1, the nonlinear initial-condition perturbation."""
        return self.conj.forward(apply_perturbation(pd, self.conj.inverse(y)))


def _iterate_steps(step, y0: StateVector, T: int, kind: str) -> OrbitTrace:
    if T < 0:
        raise ValueError(f"T must be >= 0, got {T}")
    states = [y0]
    y = y0
    for _ in range(T):
        y = step(y)
        states.append(y)
    return OrbitTrace(states=tuple(states), kind=kind)


def iterate_nonlinear(nl: NonlinearCascade, y0: StateVector, T: int) -> OrbitTrace:
    """Coupled nonlinear orbit, stepped one conjugated step at a time."""
    return _iterate_steps(nl.step, y0, T, "NonLin")


def iterate_nominal_nonlinear(nl: NonlinearCascade, y0: StateVector, T: int) -> OrbitTrace:
    """Nominal (decoupled-through-the-conjugacy) nonlinear orbit."""
    return _iterate_steps(nl.nominal_step, y0, T, "NominalNonlinear")


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
    y0: StateVector,
    T: int,
    decay_factor: float = 1e-3,
) -> NonlinearEquivalenceReport:
    """Verify that the coupled nonlinear orbit and the perturbed nominal
    nonlinear orbit converge to each other over the horizon."""
    coupled = iterate_nonlinear(nl, y0, T)
    nominal = iterate_nominal_nonlinear(nl, nl.perturb(pd, y0), T)
    errors = tuple(
        linalg.composite_norm(coupled[t] - nominal[t]) for t in range(T + 1)
    )
    peak = max(errors)
    ratio = errors[-1] / peak if peak > 0 else 0.0
    entered = next(
        (
            t
            for t in range(T + 1)
            if linalg.composite_norm(coupled[t]) <= WORKING_BALL_RADIUS
        ),
        None,
    )
    return NonlinearEquivalenceReport(
        passed=ratio < decay_factor or peak == 0.0,
        errors=errors,
        terminal_ratio=ratio,
        decay_factor=decay_factor,
        entered_ball_at=entered,
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
    i: int,
    s: int,
    y0: StateVector,
    T: int,
    decay_factor: float = 1e-3,
    agreement_horizon: int = 50,
    agreement_tol: float = 1e-8,
) -> NonlinearEigenfunctionReport:
    """Track (psi o tau^-1) along the nonlinear orbit against its eigenvalue
    prediction at the perturbed start, relative to the layer norm decay.

    The same quantity evaluated purely on the linear side (at tau^-1(y0))
    must agree along the way; that identity is the cross-check.
    """
    sys = nl.base
    psi = principal_eigenfunction(sys, i, s)
    lam = psi.eigenvalue
    x0 = nl.conj.inverse(y0)
    target = psi(apply_perturbation(pd, x0).layer(i))

    coupled_nl = iterate_nonlinear(nl, y0, T)
    coupled_lin = iterate_lin(sys, x0, T)

    norm_i = sys.norms[i - 1]
    ratios = []
    ratios_lin = []
    lam_pow = 1.0 + 0.0j
    norm_pow = 1.0
    for t in range(T + 1):
        val_nl = psi(nl.conj.inverse(coupled_nl[t]).layer(i))
        val_lin = psi(coupled_lin[t].layer(i))
        predicted = lam_pow * target
        ratios.append(abs(val_nl - predicted) / norm_pow)
        ratios_lin.append(abs(val_lin - predicted) / norm_pow)
        lam_pow *= lam
        norm_pow *= norm_i

    h = min(agreement_horizon, T)
    discrepancy = max(abs(a - b) for a, b in zip(ratios[: h + 1], ratios_lin[: h + 1]))
    peak = max(ratios)
    terminal = ratios[-1] / peak if peak > 0 else 0.0
    decay_ok = peak == 0.0 or terminal < decay_factor
    paths_agree = discrepancy <= agreement_tol
    return NonlinearEigenfunctionReport(
        passed=decay_ok and paths_agree,
        decay_ok=decay_ok,
        paths_agree=paths_agree,
        ratios=tuple(ratios),
        terminal_ratio=terminal,
        path_discrepancy=discrepancy,
        agreement_horizon=h,
        decay_factor=decay_factor,
        agreement_tol=agreement_tol,
    )
