"""Independent numpy reference for koopcascade results.

Nothing here imports koopcascade. From a cascade spec (the ``cascade.json``
wire format) it builds the coupled operator ``A`` and the decoupled operator
``N = blockdiag(L_i)`` as dense matrices, solves ``P A = N P`` block by block
as Kronecker linear systems, iterates dense orbits, and takes layer
eigenvalues from ``numpy.linalg.eigvals``.

Every tolerance is derived from the conditioning of the problem, never from a
stored copy of earlier output: ``tol = u * cond(P) * max_i cond(V_i)`` with
``u`` the unit roundoff, ``P`` the perturbation map and ``V_i`` the
eigenvector basis of layer ``i``.
"""

from __future__ import annotations

import numpy as np

UNIT_ROUNDOFF = np.finfo(np.float64).eps / 2


def matrix_from_json(obj) -> np.ndarray:
    """Decode ``{"rows", "cols", "data": [[re, im], ...]}`` (row-major)."""
    data = np.asarray(obj["data"], dtype=np.float64).reshape(-1, 2)
    return (data[:, 0] + 1j * data[:, 1]).reshape(int(obj["rows"]), int(obj["cols"]))


def vector_from_json(obj) -> np.ndarray:
    data = np.asarray(obj["data"], dtype=np.float64).reshape(-1, 2)
    return data[:, 0] + 1j * data[:, 1]


def state_from_json(obj) -> np.ndarray:
    """Stacked state vector from the ``{"layers": [...]}`` wire format."""
    return np.concatenate([vector_from_json(v) for v in obj["layers"]])


def sylvester_perturbation(L: list[np.ndarray], C: list[np.ndarray | None]) -> np.ndarray:
    """Solve ``P A = N P`` for block lower-triangular ``P`` with identity diagonal.

    Block ``(i, j)``, ``j < i``, satisfies ``L_i P_ij - P_ij L_j = P_i,j+1 C_j+1``
    (``C_k`` feeds layer ``k - 1`` into layer ``k``), solved for ``j = i-1..1``
    as ``(I kron L_i - L_j^T kron I) vec(P_ij) = vec(rhs)``.
    """
    dims = [m.shape[0] for m in L]
    off = np.concatenate(([0], np.cumsum(dims)))
    P = np.eye(off[-1], dtype=np.complex128)
    for i in range(len(L)):
        di = dims[i]
        for j in range(i - 1, -1, -1):
            dj = dims[j]
            rhs = P[off[i] : off[i + 1], off[j + 1] : off[j + 2]] @ C[j + 1]
            K = np.kron(np.eye(dj), L[i]) - np.kron(L[j].T, np.eye(di))
            x = np.linalg.solve(K, rhs.reshape(-1, order="F"))
            P[off[i] : off[i + 1], off[j] : off[j + 1]] = x.reshape((di, dj), order="F")
    return P


class Reference:
    """Dense operators, the Sylvester ``P`` and the conditioning tolerance."""

    def __init__(self, L: list[np.ndarray], C: list[np.ndarray | None]):
        self.L = [np.asarray(m, dtype=np.complex128) for m in L]
        self.dims = [m.shape[0] for m in self.L]
        self.offsets = np.concatenate(([0], np.cumsum(self.dims))).astype(int)
        n = int(self.offsets[-1])
        self.N = np.zeros((n, n), dtype=np.complex128)
        self.A = np.zeros((n, n), dtype=np.complex128)
        for i, m in enumerate(self.L):
            blk = self.block(i)
            self.N[blk, blk] = m
            self.A[blk, blk] = m
            if i > 0:
                self.A[blk, self.block(i - 1)] = C[i]
        self.P = sylvester_perturbation(self.L, C)
        self.cond_P = float(np.linalg.cond(self.P))
        self.cond_V = [float(np.linalg.cond(np.linalg.eig(m)[1])) for m in self.L]
        self.eigvals = [np.linalg.eigvals(m) for m in self.L]
        self.tol = UNIT_ROUNDOFF * self.cond_P * max(self.cond_V)

    @staticmethod
    def from_spec(spec: dict) -> "Reference":
        L, C = [], []
        for entry in spec["layers"]:
            L.append(matrix_from_json(entry["L"]))
            C.append(matrix_from_json(entry["C_prev"]) if "C_prev" in entry else None)
        return Reference(L, C)

    def block(self, i: int) -> slice:
        """Slice of layer ``i`` (0-based) in the stacked state."""
        return slice(int(self.offsets[i]), int(self.offsets[i + 1]))

    def orbit(self, M: np.ndarray, x: np.ndarray, T: int) -> np.ndarray:
        """``[x, M x, ..., M^T x]`` as rows of a ``(T+1, n)`` array."""
        out = np.empty((T + 1, x.shape[0]), dtype=np.complex128)
        out[0] = x
        for t in range(T):
            out[t + 1] = M @ out[t]
        return out

    def layer_norms(self, X: np.ndarray) -> np.ndarray:
        """Per-layer 2-norms of stacked states, shape ``(rows, layers)``."""
        return np.stack(
            [np.linalg.norm(X[:, self.block(i)], axis=1) for i in range(len(self.L))], axis=1
        )

    def error_series(self, x0: np.ndarray, T: int) -> tuple[np.ndarray, np.ndarray]:
        """``abs_err[t, i] = |(A^t x0 - N^t P x0)_i|`` and its rounding scale
        ``|(A^t x0)_i| + |(N^t P x0)_i|``."""
        X = self.orbit(self.A, x0, T)
        Y = self.orbit(self.N, self.P @ x0, T)
        return self.layer_norms(X - Y), self.layer_norms(X) + self.layer_norms(Y)

    def match_eigenvalues(self, i: int, lams: np.ndarray) -> float:
        """Largest distance from each of ``lams`` to a distinct eigenvalue of
        layer ``i`` (greedy nearest matching), relative to ``|L_i|``."""
        free = list(self.eigvals[i])
        worst = 0.0
        for lam in lams:
            k = int(np.argmin([abs(lam - mu) for mu in free]))
            worst = max(worst, abs(lam - free.pop(k)))
        return worst / max(np.linalg.norm(self.L[i], 2), UNIT_ROUNDOFF)

    def eigenfunction_residual(self, W: np.ndarray, lams: np.ndarray) -> float:
        """``|W A - diag(lams) W| / (|W| |A|)`` for inherited eigenfunction rows ``W``."""
        R = W @ self.A - lams[:, None] * W
        return float(np.linalg.norm(R, 2) / (np.linalg.norm(W, 2) * np.linalg.norm(self.A, 2)))

    def laplace_bounds(
        self, i: int, w: np.ndarray, lam: complex, x: np.ndarray, Ns
    ) -> tuple[complex, dict[int, float]]:
        """Exact limit ``w . (P x)_i`` of the deflated Laplace average of the
        layer-``i`` functional ``w`` at eigenvalue ``lam``, and for each ``N``
        a bound on ``|avg_N - limit|``.

        The raw functional on layers ``1..i`` expands over the inherited
        eigenfunctions ``W_k`` of that subsystem, ``raw = sum_k c_k W_k``.
        Deflation drops the terms with ``|mu_k| > |lam|``; each kept term
        other than the target adds ``c_k W_k x (1/N) sum_t (mu_k / lam)^t``,
        of modulus at most ``2 |c_k W_k x| / (N |1 - mu_k / lam|)``: the
        ``O(1/N)`` part. The terms are evaluated along the raw orbit, whose
        rounding error after ``t`` steps is at most about
        ``tol * (t+1) * g^t`` relative to the row and state norms, with
        ``g = max(1, rho / |lam|)`` and ``rho`` the subsystem's spectral
        radius: the rounding floor, averaged over ``t < N``.
        """
        sub = slice(0, int(self.offsets[i + 1]))
        rows, mus = [], []
        for j in range(i + 1):
            mu_j, V_j = np.linalg.eig(self.L[j])
            rows.append(np.linalg.inv(V_j) @ self.P[self.block(j), sub])
            mus.append(mu_j)
        W = np.vstack(rows)
        mu = np.concatenate(mus)
        raw = np.zeros(W.shape[1], dtype=np.complex128)
        raw[self.block(i)] = w
        c = np.linalg.solve(W.T, raw)
        phi = W @ x[sub]
        limit = complex(w @ (self.P @ x)[self.block(i)])
        r = mu / lam
        kept = np.abs(mu) <= abs(lam) + 1e-9
        moving = kept & (np.abs(1 - r) > 1e-12)
        K = float(np.sum(2 * np.abs(c[moving] * phi[moving]) / np.abs(1 - r[moving])))
        row_norm = np.linalg.norm(w) + float(
            np.sum(np.abs(c[kept]) * np.linalg.norm(W[kept], axis=1))
        )
        g = max(1.0, float(np.max(np.abs(mu))) / abs(lam))
        bounds = {}
        with np.errstate(over="ignore"):
            for N in Ns:
                t = np.arange(N)
                growth = float(np.mean((t + 1) * g**t))
                floor = self.tol * row_norm * np.linalg.norm(x[sub]) * growth
                bounds[N] = K / N + floor
        return limit, bounds
