"""Initial-condition perturbation maps for chained cascades, in closed form.

The construction rests on one identity: for diagonal spectra lam (rows)
and mu (columns) with 1 - mu[m]/lam[l] bounded away from zero,

    sum_{k=0}^{t-1} Lam^{-k} B Mu^k  =  Bt - Lam^{-t} Bt Mu^t,

where Bt[l, m] = B[l, m] / (1 - mu[m]/lam[l]). Running that identity up
the chain produces, per layer pair (i, j), matrices D[(i, j)] and the
multilinear perturbation maps

    pert_1(x_1) = x_1
    pert_i(x_1..x_i) = x_i + sum_{j<i} (-1)^(i-1-j) D[(i, j)] pert_j(x_1..x_j)

together with an exact closed form for the coupled orbit:

    layer_i(t) = sum_{j<=i} (-1)^(i-j) D[(i, j)] L_j^t pert_j(x_1..x_j).

All perturbation maps are stored as explicit matrix blocks, so applying,
inverting, and exporting them is exact linear algebra. Stacked, the blocks
form the block lower triangular map P, which conjugates the coupled
operator to the decoupled one (P A = N P), and its exact inverse Q with
blocks (-1)^(i-j) D[(i, j)], so the coupled orbit is x_t = Q N^t P x.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Mapping

import numpy as np

from . import linalg
from .cascade import CascadeSystem, ConditionReport, StateVector, validate_conditions
from .errors import (
    ConditionsNotMetError,
    DimensionMismatchError,
    NotChainedError,
    ResonantPairError,
)


def geometric_sum_solve(B, lam_rows, lam_cols) -> np.ndarray:
    """Closed form of the two-sided diagonal geometric sum.

    Returns Bt with Bt[l, m] = B[l, m] / (1 - lam_cols[m] / lam_rows[l]).
    Raises ResonantPairError if any denominator magnitude is at or below
    the spectral gap tolerance.
    """
    B = linalg.as_complex_matrix(B)
    lam_rows = linalg.as_complex_vector(lam_rows)
    lam_cols = linalg.as_complex_vector(lam_cols)
    if B.shape != (lam_rows.shape[0], lam_cols.shape[0]):
        raise DimensionMismatchError(
            f"B has shape {B.shape}, spectra give ({lam_rows.shape[0]}, {lam_cols.shape[0]})"
        )
    denom = 1.0 - lam_cols[None, :] / lam_rows[:, None]
    worst = float(np.min(np.abs(denom))) if denom.size else float("inf")
    if worst <= linalg.GAP_TOL:
        raise ResonantPairError(
            f"eigenvalue ratio denominator magnitude {worst:.3e} is at or below "
            f"gap tolerance {linalg.GAP_TOL:.1e}"
        )
    return B / denom


@dataclass(frozen=True, eq=False)
class PerturbationData:
    """Coupling-correction matrices and perturbation blocks for one system.

    d maps (i, j) with 1 <= j <= i <= n to D[(i, j)] (D[(i, i)] is the
    identity); ctilde holds the geometric-sum-scaled couplings for j < i;
    pert_blocks[i-1][j-1] is the block of pert_i acting on layer j, with
    the diagonal block an exact identity.
    """

    dims: tuple[int, ...]
    d: Mapping[tuple[int, int], np.ndarray]
    ctilde: Mapping[tuple[int, int], np.ndarray]
    pert_blocks: tuple[tuple[np.ndarray, ...], ...]

    @property
    def n(self) -> int:
        return len(self.dims)

    def pert_row_matrix(self, i: int) -> np.ndarray:
        """Blocks of pert_i concatenated into one matrix of shape (d_i, d_1+..+d_i)."""
        return np.hstack(self.pert_blocks[i - 1])

    def as_matrix(self) -> np.ndarray:
        """Full perturbation map as one block lower-triangular matrix with
        identity diagonal blocks."""
        return self.P.copy()

    @cached_property
    def P(self) -> np.ndarray:
        """The perturbation map on the stacked state."""
        return linalg.block_matrix(
            self.dims,
            {
                (i, j): b
                for i, row in enumerate(self.pert_blocks, start=1)
                for j, b in enumerate(row, start=1)
            },
        )

    @cached_property
    def Q(self) -> np.ndarray:
        """Exact inverse of P, formed without inversion: block (i, j) is
        (-1)^(i-j) D[(i, j)]."""
        return linalg.block_matrix(
            self.dims, {(i, j): (-1.0) ** (i - j) * m for (i, j), m in self.d.items()}
        )

    def d_norms(self) -> dict[tuple[int, int], float]:
        return {key: linalg.operator_norm(m) for key, m in self.d.items()}


def compute_perturbation(
    sys: CascadeSystem, report: ConditionReport | None = None
) -> PerturbationData:
    """Build all correction matrices and perturbation blocks for a chained
    cascade that passed condition validation."""
    if not sys.chained:
        raise NotChainedError(
            "perturbation construction requires a chained cascade "
            "(couplings only on the subdiagonal)"
        )
    if report is None:
        report = validate_conditions(sys)
    if not report.overall:
        raise ConditionsNotMetError(
            "cascade failed condition validation; see the ConditionReport"
        )

    n = sys.n
    d: dict[tuple[int, int], np.ndarray] = {
        (i, i): np.eye(sys.dims[i - 1], dtype=np.complex128) for i in range(1, n + 1)
    }
    ctilde: dict[tuple[int, int], np.ndarray] = {}
    blocks: list[list[np.ndarray]] = []
    if n >= 1:
        blocks.append([np.eye(sys.dims[0], dtype=np.complex128)])

    for i in range(2, n + 1):
        ei = sys.eig_of(i)
        L_inv = ei.inverse_matrix()
        C_chain = sys.coupling(i, i - 1)
        if C_chain is None:
            C_chain = np.zeros((sys.dims[i - 1], sys.dims[i - 2]), dtype=np.complex128)
        for j in range(1, i):
            ej = sys.eig_of(j)
            core = ei.Vinv @ C_chain @ d[(i - 1, j)] @ ej.V
            ct = geometric_sum_solve(core, ei.eigenvalues, ej.eigenvalues)
            ctilde[(i, j)] = ct
            d[(i, j)] = L_inv @ ei.V @ ct @ ej.Vinv

        row: list[np.ndarray] = []
        for k in range(1, i):
            acc = np.zeros((sys.dims[i - 1], sys.dims[k - 1]), dtype=np.complex128)
            for j in range(k, i):
                sign = -1.0 if (i - 1 - j) % 2 else 1.0
                acc += sign * (d[(i, j)] @ blocks[j - 1][k - 1])
            row.append(acc)
        row.append(np.eye(sys.dims[i - 1], dtype=np.complex128))
        blocks.append(row)

    for i in range(1, n + 1):
        for j in range(1, i + 1):
            if not np.all(np.isfinite(d[(i, j)])) or not np.all(
                np.isfinite(blocks[i - 1][j - 1])
            ):
                raise ConditionsNotMetError(
                    f"non-finite perturbation data at layer pair ({i}, {j})"
                )

    return PerturbationData(
        dims=sys.dims,
        d=d,
        ctilde=ctilde,
        pert_blocks=tuple(tuple(row) for row in blocks),
    )


def apply_perturbation(pd: PerturbationData, x: StateVector) -> StateVector:
    """Map an initial condition through the perturbation; layer 1 passes
    through unchanged."""
    if x.dims != pd.dims:
        raise DimensionMismatchError(f"state dims {x.dims} != system dims {pd.dims}")
    return StateVector.unstack(pd.P @ x.stacked(), pd.dims)


class ClosedFormSolution:
    """Exact time-t evaluation of the coupled orbit, x_t = Q V (lam^t * Vinv P x).

    The powers act on the stacked eigenvalues, so each time step costs the
    same regardless of t.
    """

    def __init__(self, sys: CascadeSystem, pd: PerturbationData):
        if sys.dims != pd.dims:
            raise DimensionMismatchError("system and perturbation data disagree on dims")
        self.sys = sys
        self.pd = pd
        self._QV = pd.Q @ sys.V

    def _states(self, x: StateVector, ts: np.ndarray) -> np.ndarray:
        """Stacked states at the times ts, one row per time."""
        if x.dims != self.sys.dims:
            raise DimensionMismatchError(
                f"state dims {x.dims} != system dims {self.sys.dims}"
            )
        coeffs = self.sys.Vinv @ (self.pd.P @ x.stacked())
        return (self.sys.lams ** ts[:, None] * coeffs) @ self._QV.T

    def at(self, x: StateVector, t: int) -> StateVector:
        """State of the coupled orbit at step t >= 0 from initial condition x."""
        if t < 0:
            raise ValueError(f"t must be >= 0, got {t}")
        return StateVector.unstack(self._states(x, np.array([t]))[0], self.sys.dims)

    def trace(self, x: StateVector, T: int) -> list[StateVector]:
        """[at(x, 0), ..., at(x, T)] from one batch of powers."""
        if T < 0:
            raise ValueError(f"T must be >= 0, got {T}")
        return [
            StateVector.unstack(row, self.sys.dims)
            for row in self._states(x, np.arange(T + 1))
        ]


# ---------------------------------------------------------------------------
# JSON export
# ---------------------------------------------------------------------------


def perturbation_to_json(pd: PerturbationData) -> dict:
    return {
        "D": {
            f"{i},{j}": linalg.matrix_to_json(m)
            for (i, j), m in sorted(pd.d.items())
        },
        "Ctilde": {
            f"{i},{j}": linalg.matrix_to_json(m)
            for (i, j), m in sorted(pd.ctilde.items())
        },
        "pert": [linalg.matrix_to_json(pd.pert_row_matrix(i)) for i in range(1, pd.n + 1)],
    }
