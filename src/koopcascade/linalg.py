"""Dense complex linear-algebra substrate.

Matrices and vectors are plain ``numpy`` arrays of dtype complex128.
Conventions used throughout the package:

- per-layer vector norm: Euclidean 2-norm,
- operator norm: induced spectral norm (largest singular value),
- eigenvalues: sorted by descending magnitude, ties broken by descending
  real part, then descending imaginary part.

Randomness is always driven by an explicit ``numpy.random.Generator``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import DegenerateDrawError, NotDiagonalizableError, SingularMatrixError

# Numerical policy knobs (double-precision headroom for a few hundred steps).
EIG_RESIDUAL_TOL = 1e-8
INV_RESIDUAL_TOL = 1e-8
SING_TOL = 1e-12
COND_CAP = 1e8
MAX_RESAMPLE = 100
GAP_TOL = 1e-9


def as_complex_matrix(m) -> np.ndarray:
    """Coerce to a finite 2-d complex128 array."""
    a = np.array(m, dtype=np.complex128)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got ndim={a.ndim}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix has non-finite entries")
    return a


def as_complex_vector(v) -> np.ndarray:
    """Coerce to a finite 1-d complex128 array."""
    a = np.array(v, dtype=np.complex128)
    if a.ndim == 2 and 1 in a.shape:
        a = a.ravel()
    if a.ndim != 1:
        raise ValueError(f"expected a 1-d vector, got ndim={a.ndim}")
    if not np.all(np.isfinite(a)):
        raise ValueError("vector has non-finite entries")
    return a


@dataclass(frozen=True)
class EigDecomposition:
    """L = V diag(eigenvalues) Vinv with magnitude-sorted eigenvalues."""

    V: np.ndarray
    eigenvalues: np.ndarray
    Vinv: np.ndarray
    condition_number: float

    @property
    def dim(self) -> int:
        return int(self.eigenvalues.shape[0])

    def matrix_power(self, t: int) -> np.ndarray:
        """L**t as V diag(lambda**t) Vinv; t may be negative."""
        return (self.V * self.eigenvalues**t) @ self.Vinv


def _eigenvalue_order(lams: np.ndarray) -> np.ndarray:
    # lexsort uses the LAST key as primary.
    return np.lexsort((-lams.imag, -lams.real, -np.abs(lams)))


def sorted_eigenvalues(L) -> np.ndarray:
    """Eigenvalues of L in the package-wide deterministic order."""
    lams = np.linalg.eigvals(as_complex_matrix(L))
    return lams[_eigenvalue_order(lams)]


def eig_decompose(L) -> EigDecomposition:
    """Deterministically ordered eigendecomposition of a square matrix.

    Raises SingularMatrixError if any |eigenvalue| < SING_TOL and
    NotDiagonalizableError if the eigenvector basis is ill-conditioned
    (condition number above COND_CAP) or the reconstruction residuals
    fail their tolerances.
    """
    L = as_complex_matrix(L)
    if L.shape[0] != L.shape[1]:
        raise ValueError(f"matrix must be square, got shape {L.shape}")
    lams, V = np.linalg.eig(L)
    order = _eigenvalue_order(lams)
    lams = lams[order]
    V = V[:, order]

    if lams.size and float(np.min(np.abs(lams))) < SING_TOL:
        raise SingularMatrixError(
            f"matrix is singular within tolerance (min |eigenvalue| = "
            f"{np.min(np.abs(lams)):.3e} < {SING_TOL})"
        )
    cond = float(np.linalg.cond(V))
    if not np.isfinite(cond) or cond > COND_CAP:
        raise NotDiagonalizableError(
            f"eigenvector condition number {cond:.3e} exceeds cap {COND_CAP:.1e}",
            condition_number=cond,
        )
    Vinv = np.linalg.inv(V)

    scale = max(float(np.linalg.norm(L, "fro")), SING_TOL)
    eig_residual = float(np.linalg.norm(L @ V - V * lams, "fro"))
    if eig_residual > EIG_RESIDUAL_TOL * scale:
        raise NotDiagonalizableError(
            f"eigendecomposition residual {eig_residual:.3e} exceeds tolerance",
            condition_number=cond,
        )
    inv_residual = float(np.linalg.norm(V @ Vinv - np.eye(L.shape[0]), "fro"))
    if inv_residual > INV_RESIDUAL_TOL:
        raise NotDiagonalizableError(
            f"eigenvector inverse residual {inv_residual:.3e} exceeds tolerance",
            condition_number=cond,
        )
    return EigDecomposition(V=V, eigenvalues=lams, Vinv=Vinv, condition_number=cond)


def operator_norm(M) -> float:
    """Induced 2-norm (largest singular value)."""
    M = np.asarray(M, dtype=np.complex128)
    if M.size == 0:
        return 0.0
    return float(np.linalg.norm(M, 2))


def composite_norm(layers: Iterable[np.ndarray]) -> float:
    """Sum of per-layer 2-norms; the norm on the product state space."""
    return float(sum(np.linalg.norm(np.asarray(v)) for v in layers))


def layer_norms(X: np.ndarray, offsets: np.ndarray, axis: int = -1) -> np.ndarray:
    """Per-layer 2-norms of stacked states along ``axis``, whose layer k
    occupies offsets[k]:offsets[k+1]; that axis shrinks to one entry per layer."""
    sq = X.real**2 + X.imag**2
    return np.sqrt(np.add.reduceat(sq, offsets[:-1], axis=axis))


def apply_by_block_rows(
    X: np.ndarray, M: np.ndarray, offsets: np.ndarray, lower: bool = False
) -> np.ndarray:
    """X @ M.T for stacked row-states X of shape (..., dim), taken one block
    row of M at a time; layer k occupies offsets[k]:offsets[k+1].

    M is block diagonal, or block lower triangular where ``lower``, and its
    blocks outside that pattern are never read: block row k, with rows
    r = offsets[k]:offsets[k+1], is X[..., c] @ M[r, c].T with columns
    c = r, or c = 0:offsets[k+1] where ``lower``.

    Skipping the zero blocks cuts the flops about n-fold for n layers and
    keeps each product small on narrow layers. That matters beyond the
    flops: OpenBLAS hands a complex gemm with m*n*k above 65,536 to a second
    thread, which then spins for about 0.1 s of CPU, and at 7 layers of
    width 2-6 and T = 200 no block-row product reaches that size. The result
    agrees with the dense product to rounding, as BLAS may sum the shorter
    rows in another order.
    """
    out = np.empty(X.shape[:-1] + (M.shape[0],), dtype=np.result_type(X, M))
    for a, b in zip(offsets[:-1], offsets[1:]):
        start = 0 if lower else a
        out[..., a:b] = X[..., start:b] @ M[a:b, start:b].T
    return out


def block_matrix(
    dims: Sequence[int], blocks: Mapping[tuple[int, int], np.ndarray]
) -> np.ndarray:
    """Dense complex matrix on the stacked state space with block (i, j)
    (1-based, shape (d_i, d_j)) taken from ``blocks`` and zeros elsewhere."""
    offsets = np.concatenate(([0], np.cumsum(dims))).astype(int)
    M = np.zeros((offsets[-1], offsets[-1]), dtype=np.complex128)
    for (i, j), b in blocks.items():
        M[offsets[i - 1] : offsets[i], offsets[j - 1] : offsets[j]] = b
    return M


def random_matrix_with_norm(
    rows: int, cols: int, target_norm: float, rng: np.random.Generator
) -> np.ndarray:
    """Real entries uniform in [-1, 1], rescaled to the target operator norm.

    Returned as complex128. Resamples internally on an all-zero draw.
    """
    if target_norm <= 0:
        raise ValueError(f"target_norm must be positive, got {target_norm}")
    for _ in range(MAX_RESAMPLE):
        raw = rng.uniform(-1.0, 1.0, size=(rows, cols))
        nrm = operator_norm(raw)
        if nrm > 0.0:
            return np.asarray((target_norm / nrm) * raw, dtype=np.complex128)
    raise DegenerateDrawError(
        f"drew the zero matrix {MAX_RESAMPLE} times for shape ({rows}, {cols})"
    )


def random_unit_vector(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Random complex vector scaled to unit 2-norm (re/im uniform in [-1, 1])."""
    for _ in range(MAX_RESAMPLE):
        v = rng.uniform(-1.0, 1.0, dim) + 1j * rng.uniform(-1.0, 1.0, dim)
        nrm = float(np.linalg.norm(v))
        if nrm > 0.0:
            return v / nrm
    raise DegenerateDrawError(f"drew the zero vector {MAX_RESAMPLE} times (dim={dim})")


# ---------------------------------------------------------------------------
# JSON encoding: complex scalars are [re, im] pairs, matrices are row-major.
# ---------------------------------------------------------------------------


def complex_to_json(z: complex) -> list[float]:
    return [float(np.real(z)), float(np.imag(z))]


def matrix_to_json(M) -> dict:
    """Encode as {"rows": r, "cols": c, "data": [[re, im], ...]} row-major."""
    M = as_complex_matrix(M)
    r, c = M.shape
    flat = M.ravel()
    return {
        "rows": int(r),
        "cols": int(c),
        "data": [[float(z.real), float(z.imag)] for z in flat],
    }


def matrix_from_json(obj) -> np.ndarray:
    rows, cols = int(obj["rows"]), int(obj["cols"])
    data = obj["data"]
    if rows * cols != len(data):
        raise ValueError(
            f"matrix JSON claims {rows}x{cols} but has {len(data)} entries"
        )
    flat = np.array([complex(float(p[0]), float(p[1])) for p in data], dtype=np.complex128)
    return as_complex_matrix(flat.reshape(rows, cols))


def vector_to_json(v) -> dict:
    v = as_complex_vector(v)
    return {
        "dim": int(v.shape[0]),
        "data": [[float(z.real), float(z.imag)] for z in v],
    }


def vector_from_json(obj) -> np.ndarray:
    dim = int(obj["dim"])
    data = obj["data"]
    if dim != len(data):
        raise ValueError(f"vector JSON claims dim {dim} but has {len(data)} entries")
    return as_complex_vector(
        np.array([complex(float(p[0]), float(p[1])) for p in data], dtype=np.complex128)
    )
