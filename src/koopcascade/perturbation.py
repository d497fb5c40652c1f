"""Perturbation map of a cascade and its exact inverse, in closed form.

A cascade has the coupled operator A, block lower triangular with layers
L_i on the diagonal and couplings C_ij (j < i, any pattern, missing ones
zero) below it, and the decoupled operator N = blockdiag(L_i). The
perturbation map P is block lower triangular with identity diagonal
blocks and conjugates one to the other, P A = N P; its exact inverse Q
satisfies A Q = Q N. Block by block these are Sylvester equations in the
layer pair (i, k):

    L_i P_ik - P_ik L_k = sum_{j=k+1..i} P_ij C_jk    (k = i-1 down to 1)
    Q_ik L_k - L_i Q_ik = sum_{j=k..i-1} C_ij Q_jk

They need only disjoint layer spectra. In eigen-coordinates every entry is
one division by lam_l - mu_m, the denominator of the two-sided geometric
sum identity

    sum_{k=0}^{t-1} Lam^{-k} B Mu^k  =  Bt - Lam^{-t} Bt Mu^t,

where Bt[l, m] = B[l, m] / (1 - mu[m]/lam[l]). The coupled orbit is then
x_t = Q N^t P x exactly; with D[(i, j)] = (-1)^(i-j) Q_ij it reads

    layer_i(t) = sum_{j<=i} (-1)^(i-j) D[(i, j)] L_j^t (P x)_j.
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
    """Perturbation map P and its inverse Q for one system, by blocks.

    pert_blocks[i-1][j-1] is block (i, j) of P and d maps (i, j) with
    1 <= j <= i <= n to D[(i, j)] = (-1)^(i-j) Q_ij; both diagonals are
    exact identities. ctilde holds Lam_i V_i^-1 D[(i, j)] V_j for j < i,
    kept for the JSON export.
    """

    dims: tuple[int, ...]
    d: Mapping[tuple[int, int], np.ndarray]
    ctilde: Mapping[tuple[int, int], np.ndarray]
    pert_blocks: tuple[tuple[np.ndarray, ...], ...]

    @property
    def n(self) -> int:
        return len(self.dims)

    def pert_row_matrix(self, i: int) -> np.ndarray:
        """Block row i of P, (P_i1 .. P_ii), as one matrix of shape (d_i, d_1+..+d_i)."""
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
    """Solve P A = N P and A Q = Q N block by block for a cascade that
    passed condition validation, whatever its lower-triangular coupling."""
    if report is None:
        report = validate_conditions(sys)
    if not report.overall:
        raise ConditionsNotMetError(
            "cascade failed condition validation; see the ConditionReport"
        )

    def sylvester(i: int, k: int, R: np.ndarray) -> np.ndarray:
        """X with L_i X - X L_k = R, one division per eigen-coordinate entry."""
        ei, ek = sys.eig_of(i), sys.eig_of(k)
        lam = ei.eigenvalues
        Rh = ei.Vinv @ R @ ek.V
        return ei.V @ geometric_sum_solve(Rh / lam[:, None], lam, ek.eigenvalues) @ ek.Vinv

    A, off, n = sys.A, sys.offsets, sys.n
    P = np.eye(off[-1], dtype=np.complex128)
    Q = P.copy()
    for i in range(2, n + 1):
        ri = slice(off[i - 1], off[i])
        for k in range(i - 1, 0, -1):
            ck = slice(off[k - 1], off[k])
            P[ri, ck] = sylvester(i, k, P[ri, off[k] : off[i]] @ A[off[k] : off[i], ck])
            Q[ri, ck] = sylvester(
                i, k, -A[ri, off[k - 1] : off[i - 1]] @ Q[off[k - 1] : off[i - 1], ck]
            )
    if not (np.all(np.isfinite(P)) and np.all(np.isfinite(Q))):
        raise ConditionsNotMetError("non-finite perturbation data")

    def block(M: np.ndarray, i: int, j: int) -> np.ndarray:
        return M[off[i - 1] : off[i], off[j - 1] : off[j]]

    d = {
        (i, j): (-1.0) ** (i - j) * block(Q, i, j)
        for i in range(1, n + 1)
        for j in range(1, i + 1)
    }
    ctilde = {}
    for (i, j), m in d.items():
        if j < i:
            ei = sys.eig_of(i)
            ctilde[(i, j)] = ei.eigenvalues[:, None] * (ei.Vinv @ m @ sys.eig_of(j).V)
    return PerturbationData(
        dims=sys.dims,
        d=d,
        ctilde=ctilde,
        pert_blocks=tuple(
            tuple(block(P, i, j) for j in range(1, i + 1)) for i in range(1, n + 1)
        ),
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
        return linalg.apply_by_block_rows(
            self.sys.lams ** ts[:, None] * coeffs, self._QV, self.sys.offsets, lower=True
        )

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
