"""Cascade systems: layered state, coupling structure, condition validation.

A cascade has layers 1..n with square dynamics matrices ``L[i]`` and
coupling blocks ``C[(i, j)]`` feeding layer j into layer i (j < i, lower
block triangular). A *chained* cascade couples each layer only to its
immediate upstream neighbour (j = i - 1). Layer indices in the public API
are 1-based, matching the block structure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate
from typing import Iterator, Mapping, Sequence

import numpy as np

from . import linalg
from .errors import GenerationFailedError, NotDiagonalizableError, SingularMatrixError
from .linalg import EigDecomposition

# Dimensions used when a generator is asked for "random" layer sizes.
DEFAULT_DIM_RANGE = (2, 6)


@dataclass(frozen=True)
class StateVector:
    """Element of the product state space, one complex vector per layer."""

    layers: tuple[np.ndarray, ...]

    @staticmethod
    def of(vectors: Sequence) -> "StateVector":
        return StateVector(tuple(linalg.as_complex_vector(v) for v in vectors))

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(int(v.shape[0]) for v in self.layers)

    def layer(self, i: int) -> np.ndarray:
        """Layer i (1-based)."""
        if not 1 <= i <= len(self.layers):
            raise IndexError(f"layer index {i} out of range 1..{len(self.layers)}")
        return self.layers[i - 1]

    def stacked(self) -> np.ndarray:
        return np.concatenate(self.layers) if self.layers else np.zeros(0, complex)

    @staticmethod
    def unstack(v: np.ndarray, dims: Sequence[int]) -> "StateVector":
        """Inverse of stacked(): split one stacked vector into layers of the given dims."""
        bounds = (0, *accumulate(dims))
        return StateVector(tuple(v[a:b] for a, b in zip(bounds, bounds[1:])))

    def __iter__(self) -> Iterator[np.ndarray]:
        return iter(self.layers)

    def __len__(self) -> int:
        return len(self.layers)


@dataclass(frozen=True, eq=False)
class CascadeSystem:
    """Immutable cascade with cached eigendecompositions and layer norms.

    ``eig[k]`` is None when layer k+1 was rejected (ill-conditioned or
    singular); ``eigenvalues[k]`` still carries the raw sorted spectrum so
    condition validation can report on bad systems.

    The stacked operators on the concatenated state are built on first use:
    the coupled operator ``A`` (block lower triangular), the decoupled
    ``N = blockdiag(L_i)``, and the eigenbasis ``V = blockdiag(V_i)``,
    ``Vinv = blockdiag(V_i^-1)`` with the eigenvalues ``lams`` in the same
    order, so that ``N = V diag(lams) Vinv``. Layer k occupies
    ``offsets[k-1]:offsets[k]`` and stacked coordinate m is eigenfunction
    ``modes[m] = (layer, index)``.
    """

    dims: tuple[int, ...]
    L: tuple[np.ndarray, ...]
    couplings: Mapping[tuple[int, int], np.ndarray]
    eig: tuple[EigDecomposition | None, ...]
    eigenvalues: tuple[np.ndarray, ...]
    norms: tuple[float, ...]
    layer_condition_numbers: tuple[float, ...]
    layer_invertible: tuple[bool, ...]
    layer_failures: tuple[str | None, ...] = field(repr=False, default=())

    @property
    def n(self) -> int:
        return len(self.dims)

    @property
    def chained(self) -> bool:
        return all(j == i - 1 for (i, j) in self.couplings)

    def coupling(self, i: int, j: int) -> np.ndarray | None:
        return self.couplings.get((i, j))

    @cached_property
    def offsets(self) -> np.ndarray:
        return np.concatenate(([0], np.cumsum(self.dims))).astype(int)

    @cached_property
    def A(self) -> np.ndarray:
        diag = {(i, i): m for i, m in enumerate(self.L, start=1)}
        return linalg.block_matrix(self.dims, {**diag, **self.couplings})

    @cached_property
    def N(self) -> np.ndarray:
        diag = {(i, i): m for i, m in enumerate(self.L, start=1)}
        return linalg.block_matrix(self.dims, diag)

    @cached_property
    def V(self) -> np.ndarray:
        return linalg.block_matrix(
            self.dims, {(i, i): self.eig_of(i).V for i in range(1, self.n + 1)}
        )

    @cached_property
    def Vinv(self) -> np.ndarray:
        return linalg.block_matrix(
            self.dims, {(i, i): self.eig_of(i).Vinv for i in range(1, self.n + 1)}
        )

    @cached_property
    def lams(self) -> np.ndarray:
        return np.concatenate([self.eig_of(i).eigenvalues for i in range(1, self.n + 1)])

    @cached_property
    def modes(self) -> tuple[tuple[int, int], ...]:
        return tuple(
            (i, s) for i, d in enumerate(self.dims, start=1) for s in range(1, d + 1)
        )

    def eig_of(self, i: int) -> EigDecomposition:
        """Decomposition of layer i (1-based); raises if the layer was rejected."""
        d = self.eig[i - 1]
        if d is None:
            raise ValueError(
                f"layer {i} has no valid eigendecomposition: {self.layer_failures[i - 1]}"
            )
        return d

    @staticmethod
    def build(
        L: Sequence, couplings: Mapping[tuple[int, int], np.ndarray] | None = None
    ) -> "CascadeSystem":
        """Assemble a system from layer matrices and a (i, j) -> C map (1-based)."""
        mats = [linalg.as_complex_matrix(m) for m in L]
        for k, m in enumerate(mats):
            if m.shape[0] != m.shape[1]:
                raise ValueError(f"layer {k + 1} matrix is not square: {m.shape}")
        dims = tuple(int(m.shape[0]) for m in mats)
        n = len(dims)

        coup: dict[tuple[int, int], np.ndarray] = {}
        for (i, j), c in (couplings or {}).items():
            if not (1 <= j < i <= n):
                raise ValueError(f"coupling ({i}, {j}) is not lower block triangular")
            c = linalg.as_complex_matrix(c)
            if c.shape != (dims[i - 1], dims[j - 1]):
                raise ValueError(
                    f"coupling ({i}, {j}) has shape {c.shape}, "
                    f"expected ({dims[i - 1]}, {dims[j - 1]})"
                )
            coup[(i, j)] = c

        eigs: list[EigDecomposition | None] = []
        raw_spectra: list[np.ndarray] = []
        conds: list[float] = []
        invertible: list[bool] = []
        failures: list[str | None] = []
        for m in mats:
            lams = linalg.sorted_eigenvalues(m)
            raw_spectra.append(lams)
            invertible.append(bool(lams.size and np.min(np.abs(lams)) >= linalg.SING_TOL))
            try:
                d = linalg.eig_decompose(m)
                eigs.append(d)
                conds.append(d.condition_number)
                failures.append(None)
            except NotDiagonalizableError as exc:
                eigs.append(None)
                conds.append(exc.condition_number)
                failures.append(str(exc))
            except SingularMatrixError as exc:
                eigs.append(None)
                conds.append(float(np.linalg.cond(m)) if m.size else 1.0)
                failures.append(str(exc))

        return CascadeSystem(
            dims=dims,
            L=tuple(mats),
            couplings=coup,
            eig=tuple(eigs),
            eigenvalues=tuple(raw_spectra),
            norms=tuple(linalg.operator_norm(m) for m in mats),
            layer_condition_numbers=tuple(conds),
            layer_invertible=tuple(invertible),
            layer_failures=tuple(failures),
        )

    def zero_state(self) -> StateVector:
        return StateVector(tuple(np.zeros(d, dtype=np.complex128) for d in self.dims))

    def random_state(
        self, rng: np.random.Generator, layer_norm: float = 1.0
    ) -> StateVector:
        """Random state with every layer scaled to the given 2-norm."""
        return StateVector(
            tuple(layer_norm * linalg.random_unit_vector(d, rng) for d in self.dims)
        )


@dataclass(frozen=True)
class ConditionReport:
    """Outcome of the three structural checks a cascade must satisfy:
    per-layer invertibility + diagonalizability, pairwise-disjoint layer
    spectra, and a strictly increasing layer-norm hierarchy topping out
    at 1. ``resonance_margin`` is min |1 - mu/lam| over downstream/upstream
    eigenvalue pairs, the quantity that keeps the perturbation matrices
    finite."""

    layer_diagonalizable: tuple[bool, ...]
    layer_invertible: tuple[bool, ...]
    layer_condition_numbers: tuple[float, ...]
    spectral_gap: float
    resonance_margin: float
    norms: tuple[float, ...]
    norm_hierarchy_ok: bool
    top_norm_marginal: bool
    overall: bool

    def to_json(self) -> dict:
        return {
            "invertible_diagonalizable": [
                bool(d and v)
                for d, v in zip(self.layer_diagonalizable, self.layer_invertible)
            ],
            "layer_diagonalizable": list(self.layer_diagonalizable),
            "layer_invertible": list(self.layer_invertible),
            "condition_numbers": [float(c) for c in self.layer_condition_numbers],
            "disjoint_spectra_gap": float(self.spectral_gap),
            "resonance_margin": float(self.resonance_margin),
            "norms": [float(v) for v in self.norms],
            "norm_hierarchy_ok": bool(self.norm_hierarchy_ok),
            "top_norm_marginal": bool(self.top_norm_marginal),
            "overall": bool(self.overall),
        }


def validate_conditions(sys: CascadeSystem) -> ConditionReport:
    """Check the structural conditions; failures are report fields, not errors."""
    n = sys.n
    diag_ok = tuple(d is not None for d in sys.eig)
    inv_ok = sys.layer_invertible

    gap = float("inf")
    res_margin = float("inf")
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i == j:
                continue
            li = sys.eigenvalues[i - 1]
            lj = sys.eigenvalues[j - 1]
            if li.size == 0 or lj.size == 0:
                continue
            diffs = np.abs(li[:, None] - lj[None, :])
            gap = min(gap, float(np.min(diffs)))
            if i > j:
                with np.errstate(divide="ignore", invalid="ignore"):
                    ratios = np.abs(1.0 - lj[None, :] / li[:, None])
                res_margin = min(res_margin, float(np.min(ratios)))
    if n <= 1:
        gap = float("inf")
        res_margin = float("inf")

    norms = sys.norms
    hierarchy = all(norms[k] < norms[k + 1] for k in range(n - 1))
    top_ok = n == 0 or norms[-1] <= 1.0 + 1e-12
    marginal = n > 0 and abs(norms[-1] - 1.0) <= 1e-12

    overall = (
        all(diag_ok)
        and all(inv_ok)
        and gap > linalg.GAP_TOL
        and res_margin > linalg.GAP_TOL
        and hierarchy
        and top_ok
    )
    return ConditionReport(
        layer_diagonalizable=diag_ok,
        layer_invertible=inv_ok,
        layer_condition_numbers=sys.layer_condition_numbers,
        spectral_gap=gap,
        resonance_margin=res_margin,
        norms=norms,
        norm_hierarchy_ok=hierarchy and top_ok,
        top_norm_marginal=marginal,
        overall=overall,
    )


def random_chained_cascade(
    layer_dims: Sequence[int],
    norm_schedule: Sequence[float],
    rng: np.random.Generator,
) -> CascadeSystem:
    """Random chained cascade whose layers hit the requested operator norms.

    Layer matrices have uniform [-1, 1] entries rescaled to the schedule;
    chain couplings keep raw uniform [-1, 1] entries. The whole system is
    redrawn until it passes validate_conditions.
    """
    if len(layer_dims) != len(norm_schedule):
        raise ValueError("layer_dims and norm_schedule must have the same length")
    if any(d < 1 for d in layer_dims):
        raise ValueError("layer dimensions must be positive")
    if any(
        norm_schedule[k] >= norm_schedule[k + 1] for k in range(len(norm_schedule) - 1)
    ):
        raise ValueError("norm_schedule must be strictly increasing")
    if norm_schedule and norm_schedule[-1] > 1.0:
        raise ValueError("norm_schedule must not exceed 1")

    for _ in range(linalg.MAX_RESAMPLE):
        L = [
            linalg.random_matrix_with_norm(d, d, target, rng)
            for d, target in zip(layer_dims, norm_schedule)
        ]
        couplings = {
            (i, i - 1): np.asarray(
                rng.uniform(-1.0, 1.0, size=(layer_dims[i - 1], layer_dims[i - 2])),
                dtype=np.complex128,
            )
            for i in range(2, len(layer_dims) + 1)
        }
        sys = CascadeSystem.build(L, couplings)
        if validate_conditions(sys).overall:
            return sys
    raise GenerationFailedError(
        f"no valid system after {linalg.MAX_RESAMPLE} full redraws "
        f"(dims={list(layer_dims)}, norms={list(norm_schedule)})"
    )


# ---------------------------------------------------------------------------
# JSON cascade specs
# ---------------------------------------------------------------------------


def cascade_to_json(sys: CascadeSystem) -> dict:
    """Encode layers and couplings; chained couplings use the compact form."""
    layers = []
    for i in range(1, sys.n + 1):
        entry: dict = {"dim": sys.dims[i - 1], "L": linalg.matrix_to_json(sys.L[i - 1])}
        row = {j: c for (ii, j), c in sys.couplings.items() if ii == i}
        if row:
            if set(row) == {i - 1} and sys.chained:
                entry["C_prev"] = linalg.matrix_to_json(row[i - 1])
            else:
                entry["C"] = {str(j): linalg.matrix_to_json(c) for j, c in row.items()}
        layers.append(entry)
    return {"layers": layers}


def cascade_from_json(obj) -> CascadeSystem:
    layers = obj["layers"]
    L = []
    couplings: dict[tuple[int, int], np.ndarray] = {}
    for k, entry in enumerate(layers):
        i = k + 1
        m = linalg.matrix_from_json(entry["L"])
        if m.shape != (int(entry["dim"]), int(entry["dim"])):
            raise ValueError(f"layer {i}: matrix shape {m.shape} != dim {entry['dim']}")
        L.append(m)
        if "C_prev" in entry:
            if i == 1:
                raise ValueError("layer 1 cannot have an upstream coupling")
            couplings[(i, i - 1)] = linalg.matrix_from_json(entry["C_prev"])
        if "C" in entry:
            for j_str, cm in entry["C"].items():
                couplings[(i, int(j_str))] = linalg.matrix_from_json(cm)
    return CascadeSystem.build(L, couplings)


def save_cascade(sys: CascadeSystem, path) -> None:
    import json

    with open(path, "w") as fh:
        json.dump(cascade_to_json(sys), fh)


def load_cascade(path) -> tuple[CascadeSystem, ConditionReport]:
    """Load a cascade spec and validate it in one step."""
    import json

    with open(path) as fh:
        obj = json.load(fh)
    sys = cascade_from_json(obj)
    return sys, validate_conditions(sys)


def state_to_json(x: StateVector) -> dict:
    return {"layers": [linalg.vector_to_json(v) for v in x]}


def state_from_json(obj) -> StateVector:
    return StateVector.of([linalg.vector_from_json(v) for v in obj["layers"]])
