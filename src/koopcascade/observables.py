"""Inherited eigenfunctions of a cascade and their checks.

A layer's s-th principal eigenfunction is the coordinate functional in its
eigenbasis: psi(x_i) = (s-th row of Vinv_i) . x_i, an eigenfunction of the
decoupled layer dynamics at the s-th eigenvalue (magnitude-descending
order). Extended to the full state space and composed with the
perturbation map, it becomes an exact eigenfunction of the coupled
dynamics; for every mode at once these are Vinv (P x). This module
evaluates them and verifies them by residual sweeps, bound checks and
generalized Laplace (Cesaro) averaging.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import linalg
from .cascade import CascadeSystem, StateVector
from .errors import DeflationIncompleteError, DimensionMismatchError, NotPeripheralError
from .orbits import check_state, checked_orbit, compute_error_series
from .perturbation import PerturbationData

PERIPHERAL_TOL = 1e-9


def inherited_eigenfunctions(
    sys: CascadeSystem, pd: PerturbationData, x: np.ndarray
) -> np.ndarray:
    """(psi_m o P)(x) for every mode m, ordered as sys.modes: Vinv (P x) for
    the stacked state x, or for each column of a (dim, K) batch of them."""
    return sys.Vinv @ (pd.P @ x)


# ---------------------------------------------------------------------------
# Eigenfunction residuals for the coupled dynamics
# ---------------------------------------------------------------------------


def eigenfunction_residuals(
    sys: CascadeSystem,
    pd: PerturbationData,
    sample_points: Sequence[StateVector],
    horizon: int = 20,
) -> dict[tuple[int, int], float]:
    """Max scaled eigenfunction residual for every (layer, index >= 1) pair.

    For each sample x and t in 1..horizon the residual of f = psi o pert is
    |f(orbit_t(x)) - lambda^t f(x)| / max(1, |f(x)|); exactness of the
    construction means these stay at rounding level. All pairs and samples
    are read off one orbit of the samples stacked as columns.
    """
    for x in sample_points:
        check_state(sys, x)
    worst = np.zeros(len(sys.modes))
    if sample_points:
        x0 = np.stack([x.stacked() for x in sample_points], axis=1)
        # In place where possible: the orbit is one column per sample, and
        # each temporary of its size would raise the CLI's peak memory.
        f = np.matmul(pd.P, checked_orbit(sys, sys.A, x0, horizon, "Lin"))
        np.matmul(sys.Vinv, f, out=f)
        f[1:] -= sys.lams[:, None] ** np.arange(1, horizon + 1)[:, None, None] * f[0]
        resid = np.abs(f[1:]) / np.maximum(1.0, np.abs(f[0]))
        worst = resid.max(axis=(0, 2), initial=0.0)
    return dict(zip(sys.modes, worst.tolist()))


# ---------------------------------------------------------------------------
# Generalized Laplace (Cesaro) averages
# ---------------------------------------------------------------------------


def peripheral_modes(sys: CascadeSystem) -> np.ndarray:
    """Whether each stacked mode's |lambda| equals its layer norm within
    PERIPHERAL_TOL; the Laplace table deflates every other mode."""
    return np.abs(np.abs(sys.lams) - np.repeat(sys.norms, sys.dims)) <= PERIPHERAL_TOL


def _laplace(
    sys: CascadeSystem,
    pd: PerturbationData,
    x: np.ndarray,
    idx: np.ndarray,
    deflate: np.ndarray,
    Ns: Sequence[int],
) -> list[list[complex | None]]:
    """Laplace averages of the stacked modes idx at every N of the
    increasing grid Ns, from one batched orbit; None where an average fails.

    Mode p averages the terms row_p . w_t, t < N, along the orbit w_t of
    A[:k, :k] / lam_p from x[:k], where k ends the mode's layer: A is block
    lower triangular, so layers 1..i evolve on their own under its leading
    block, and the rescaled orbit stays bounded while no mode the row sees
    is faster than lam_p. row_p is the mode's Vinv row; where deflate[p],
    its components along the exact eigenfunctions of the subsystem (the
    rows of Vinv P) faster than |lam_p| are removed first.

    An average fails once a state within its first N steps is not finite,
    or, deflated, once a term strays from phi_p(x) by more than
    10 ceiling + 1e3 (1 + |phi_p(x)|), where ceiling is the exact bound of
    the kept non-target components. Deflation removes the fast components
    analytically but the orbit still carries them, so rounding noise along
    them grows like (mu_max / |lam_p|)^t and eventually takes over. A failed
    mode leaves the orbit after the segment of Ns it failed in; every
    larger N fails with it.
    """
    P = idx.size
    offsets = np.asarray(sys.offsets)
    layer = np.searchsorted(offsets, idx, side="right") - 1
    ends = offsets[layer + 1]
    lam = sys.lams[idx]
    K = int(ends.max())

    avg_rows = np.zeros((P, K), dtype=np.complex128)
    expected = np.zeros(P, dtype=np.complex128)
    ceiling = np.zeros(P)
    for i in sorted(set(layer.tolist())):
        k = offsets[i + 1]
        mine = np.flatnonzero(layer == i)
        avg_rows[mine, :k] = sys.Vinv[idx[mine], :k]
        sel = mine[deflate[mine]]
        if sel.size == 0:
            continue
        # Exact eigenfunctions of the subsystem, one per row, and the
        # coefficients of every deflated row along them in one solve.
        rows = sys.Vinv[:k, :k] @ pd.P[:k, :k]
        coeffs = np.linalg.solve(rows.T, avg_rows[sel, :k].T).T
        keep = np.abs(sys.lams[:k]) <= np.abs(lam[sel])[:, None] + PERIPHERAL_TOL
        avg_rows[sel, :k] = (coeffs * keep) @ rows
        phi = rows @ x[:k]
        expected[sel] = phi[idx[sel]]
        # The kept non-target components never exceed their t = 0 moduli.
        keep[np.arange(sel.size), idx[sel]] = False
        ceiling[sel] = np.sum(np.abs(coeffs * phi) * keep, axis=1)
    limit = 10.0 * ceiling + 1e3 * (1.0 + np.abs(expected))

    # Padded stack: the lanes beyond a mode's k stay exactly 0.
    M = np.zeros((P, K, K), dtype=np.complex128)
    w = np.zeros((P, K, 1), dtype=np.complex128)
    for p in range(P):
        k = ends[p]
        M[p, :k, :k] = sys.A[:k, :k] / lam[p]
        w[p, :k, 0] = x[:k]
    avg_rows = avg_rows[:, None, :]

    out: list[list[complex | None]] = [[None] * len(Ns) for _ in range(P)]
    live = np.arange(P)
    worst = np.zeros(P)
    segments: list[np.ndarray] = []  # terms of the live modes, one array per segment
    prev = np.empty_like(w)
    start = 0
    # Overflow of a rescaled orbit is an expected failure (a dropped fast
    # mode dominating); it is caught by the finite check.
    with np.errstate(over="ignore", invalid="ignore"):
        for j, N in enumerate(Ns):
            seg = np.empty((N - start, live.size, 1, 1), dtype=np.complex128)
            for t in range(N - start):
                np.matmul(avg_rows, w, out=seg[t])
                np.matmul(M, w, out=prev)
                w, prev = prev, w
            segments.append(seg[:, :, 0, 0])
            # A step multiplies every lane of the state (0 * inf is nan),
            # so once a state is not finite no later one is: state N - 1
            # decides for the whole prefix.
            finite = np.isfinite(prev).all(axis=(1, 2))
            worst = np.maximum(worst, np.abs(segments[-1] - expected).max(axis=0))
            ok = finite & ~(deflate[live] & (worst > limit))
            for q in np.flatnonzero(ok):
                prefix = np.concatenate([part[:, q] for part in segments])
                out[live[q]][j] = complex(np.mean(prefix))
            segments = [part[:, ok] for part in segments]
            live, M, w, avg_rows = live[ok], M[ok], w[ok], avg_rows[ok]
            worst, expected, limit = worst[ok], expected[ok], limit[ok]
            if live.size == 0:
                break
            prev = np.empty_like(w)
            start = N
    return out


def laplace_table(
    sys: CascadeSystem,
    pd: PerturbationData,
    x: StateVector,
    Ns: Sequence[int],
    modes: Sequence[tuple[int, int]] | None = None,
) -> dict[tuple[int, int], list[complex | str]]:
    """Partial Cesaro averages (1/N) sum_{t<N} lam^-t f(orbit_t(x)) of the
    extended principal eigenfunctions f, every (layer, index) mode or the
    given ones, at every N of the increasing grid Ns.

    Each average converges to (f o pert)(x). Peripheral modes (see
    peripheral_modes) are averaged plain, every other mode deflated. Each
    entry is the average, or the name of the error that laplace_average
    raises for it. All modes share one orbit loop; a mode leaves it once
    its average fails.
    """
    check_state(sys, x)
    if not Ns or Ns[0] < 1 or any(a >= b for a, b in zip(Ns, Ns[1:])):
        raise ValueError(f"Ns must be increasing and >= 1, got {list(Ns)}")
    position = {mode: m for m, mode in enumerate(sys.modes)}
    modes = list(sys.modes if modes is None else modes)
    idx = np.array([position[mode] for mode in modes], dtype=np.intp)
    averages = _laplace(sys, pd, x.stacked(), idx, ~peripheral_modes(sys)[idx], Ns)
    failed = DeflationIncompleteError.__name__
    return {
        mode: [failed if avg is None else avg for avg in row]
        for mode, row in zip(modes, averages)
    }


def laplace_average(
    sys: CascadeSystem,
    pd: PerturbationData,
    i: int,
    s: int,
    x: StateVector,
    N: int,
    deflate: bool = False,
) -> complex:
    """Partial Cesaro average (1/N) sum_{t<N} lam^-t f(orbit_t(x)) for the
    extended principal eigenfunction f of (layer i, index s): the one-mode,
    one-N entry of laplace_table.

    Converges to (f o pert)(x). Without deflation the eigenvalue must be
    peripheral (|lambda| equal to the layer norm within PERIPHERAL_TOL);
    with deflation, components of f along exact eigenfunctions of strictly
    larger modulus are removed first. Rounding noise along the removed
    components still grows like (mu_max / |lambda|)^t; past roughly
    t = 36 / log(mu_max / |lambda|) it takes over the terms and
    DeflationIncompleteError is raised.
    """
    if not 1 <= i <= sys.n:
        raise IndexError(f"layer {i} out of range 1..{sys.n}")
    if not 1 <= s <= sys.dims[i - 1]:
        raise IndexError(f"index {s} out of range 1..{sys.dims[i - 1]}")
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    if x.dims != sys.dims:
        raise DimensionMismatchError(f"state dims {x.dims} != system dims {sys.dims}")

    idx = sys.offsets[i - 1] + s - 1
    if not deflate and not peripheral_modes(sys)[idx]:
        raise NotPeripheralError(
            f"|eigenvalue| = {abs(sys.lams[idx]):.12g} differs from layer norm "
            f"{sys.norms[i - 1]:.12g}; enable deflation to average here"
        )
    [[avg]] = _laplace(sys, pd, x.stacked(), np.array([idx]), np.array([deflate]), [N])
    if avg is None:
        raise DeflationIncompleteError(
            f"within N = {N} steps the rescaled orbit overflowed or the deflated "
            "terms outgrew their legitimate component ceiling; rounding noise "
            "along a component faster than |lambda| has taken over"
        )
    return avg


# ---------------------------------------------------------------------------
# Eigenfunction evolution bound check
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EigenfunctionBoundReport:
    """Bound and decay status for all extended principal eigenfunctions.

    max_bound_violation: worst |f(orbit_t) - lambda^t f(pert x)| minus the
    functional-norm-scaled decaying bound, over all (i, s, t).
    decay_ratios[(i, s)]: terminal ratio of the norm-relative difference to
    its max over the horizon (layers >= 2 only).
    """

    passed: bool
    bounds_ok: bool
    decay_ok: bool
    max_bound_violation: float
    decay_ratios: dict[tuple[int, int], float]
    slack: float
    decay_factor: float

    def to_json(self) -> dict:
        return {
            "passed": bool(self.passed),
            "bounds_ok": bool(self.bounds_ok),
            "decay_ok": bool(self.decay_ok),
            "max_bound_violation": float(self.max_bound_violation),
            "decay_ratios": {f"{i},{s}": float(r) for (i, s), r in self.decay_ratios.items()},
            "slack": float(self.slack),
            "decay_factor": float(self.decay_factor),
        }


def check_eigenfunction_bounds(
    sys: CascadeSystem,
    pd: PerturbationData,
    x0: StateVector,
    T: int,
    slack: float = 1e-9,
    decay_factor: float = 1e-3,
    rel_floor: float = 1e-10,
) -> EigenfunctionBoundReport:
    """Verify, for every (i, s >= 1), that the evolved eigenfunction stays
    within its decaying bound and that the norm-relative difference decays.

    A whole ratio series at rounding level (max <= slack) passes the decay
    leg trivially (the decoupled / layer-1 situation), as does a terminal
    ratio at or below rel_floor (series converged to the rounding floor).
    """
    es = compute_error_series(sys, pd, x0, T)
    orbit = checked_orbit(sys, sys.A, x0.stacked(), T, "Lin")
    t_grid = np.arange(T + 1)
    layer_of = np.repeat(np.arange(sys.n), sys.dims)
    # f(orbit_t) against lambda^t f(pert x), every (i, s) at once.
    base_vals = inherited_eigenfunctions(sys, pd, x0.stacked())
    values = linalg.apply_by_block_rows(orbit, sys.Vinv, sys.offsets)
    diffs = np.abs(values - sys.lams ** t_grid[:, None] * base_vals)
    row_norms = np.linalg.norm(sys.Vinv, axis=1)
    bound = row_norms * es.bound_decaying.T[:, layer_of] + slack
    max_viol = float(np.max(diffs - bound))

    ratios = diffs / np.asarray(sys.norms)[layer_of] ** t_grid[:, None]
    peak = ratios.max(axis=0)
    term = ratios[T]
    r = np.divide(term, peak, out=np.zeros_like(term), where=peak > 0)
    coupled = layer_of >= 1
    decay_ok = not np.any(
        coupled & (peak > slack) & (term > peak * decay_factor) & (term > rel_floor)
    )
    decay_ratios = {mode: float(r[m]) for m, mode in enumerate(sys.modes) if coupled[m]}

    bounds_ok = max_viol <= 0.0
    return EigenfunctionBoundReport(
        passed=bounds_ok and decay_ok,
        bounds_ok=bounds_ok,
        decay_ok=decay_ok,
        max_bound_violation=max_viol,
        decay_ratios=decay_ratios,
        slack=slack,
        decay_factor=decay_factor,
    )


def eigenfunction_to_json(
    sys: CascadeSystem, i: int, s: int, composed_with_pert: bool
) -> dict:
    """Wire format for the inherited eigenfunction of (layer i, index s)."""
    if not (1 <= i <= sys.n and 1 <= s <= sys.dims[i - 1]):
        raise IndexError(f"no eigenfunction ({i}, {s}) in a cascade of dims {sys.dims}")
    d = sys.eig_of(i)
    return {
        "layer": int(i),
        "index": int(s),
        "eigenvalue": linalg.complex_to_json(d.eigenvalues[s - 1]),
        "coeff_row": linalg.matrix_to_json(d.Vinv[s - 1].reshape(1, -1)),
        "composed_with_pert": bool(composed_with_pert),
    }
