"""Correctness checks of koopcascade results against ``reference.Reference``.

Each check returns a list of problems; an empty list means the result holds.
Tolerances come from ``Reference.tol`` (``u * cond(P) * max cond(V_i)``),
scaled by the size of the quantity compared.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from reference import Reference, matrix_from_json, state_from_json

# Round trips of the cubic conjugacy, relative to 1 + |y|: the library's
# Newton inverse stops at a residual of 1e-12 (1 + |w|) per coordinate and the
# inverse of a monotone cubic has slope at most 1.
ROUND_TRIP_TOL = 1e-10
# Files that two runs of one seed must reproduce byte for byte.
DETERMINISTIC_FILES = ("errors.csv", "laplace.csv", "verify_report.json")


def _load(path: Path):
    with open(path) as fh:
        return json.load(fh)


def _exceeds(name: str, value: float, tol: float) -> list[str]:
    return [] if value <= tol else [f"{name}: {value:.3e} exceeds {tol:.3e}"]


def check_perturbation(ref: Reference, P: np.ndarray) -> list[str]:
    """Every block ``(i, j)``, ``j <= i``, of ``P`` against the Sylvester ``P``,
    relative to the block; blocks above the diagonal must be zero."""
    n = len(ref.dims)
    gap = max(
        np.linalg.norm(P[ref.block(i), ref.block(j)] - ref.P[ref.block(i), ref.block(j)])
        / np.linalg.norm(ref.P[ref.block(i), ref.block(j)])
        for i in range(n)
        for j in range(i + 1)
    )
    upper = max(
        (np.abs(P[ref.block(i), ref.block(i + 1).start :]).max() for i in range(n - 1)),
        default=0.0,
    )
    return _exceeds("P blocks against the Sylvester P (relative)", gap, ref.tol) + _exceeds(
        "P above the block diagonal", upper, 0.0
    )


def check_error_series(
    ref: Reference, x0: np.ndarray, abs_err: np.ndarray, bound_a: np.ndarray
) -> list[str]:
    """``abs_err`` and ``bound_a`` indexed ``[t, layer]``."""
    D, scale = ref.error_series(x0, abs_err.shape[0] - 1)
    slack = ref.tol * scale
    return _exceeds(
        "abs_err against the dense orbits (beyond tol * orbit size)",
        float(np.max(np.abs(abs_err - D) - slack)),
        0.0,
    ) + _exceeds(
        "abs_err above bound_a (beyond tol * orbit size)",
        float(np.max(abs_err - bound_a - slack)),
        0.0,
    )


def inherited_rows(ref: Reference, P: np.ndarray, rows: dict) -> tuple[np.ndarray, np.ndarray]:
    """``W = blockdiag(V_i^-1) P`` and ``Lambda`` from per-(layer, index)
    ``(coeff_row, eigenvalue)`` pairs (layers 1-based)."""
    W, lams = [], []
    for (i, _), (w, lam) in sorted(rows.items()):
        row = np.zeros(P.shape[0], dtype=np.complex128)
        row[ref.block(i - 1)] = w
        W.append(row @ P)
        lams.append(lam)
    return np.array(W), np.array(lams)


def check_eigenfunctions(ref: Reference, P: np.ndarray, rows: dict) -> list[str]:
    """Layer eigenvalues match ``numpy.linalg.eigvals`` and ``|W A - Lambda W|``
    stays at the conditioning floor."""
    problems = []
    for i in range(len(ref.dims)):
        lams = [lam for (layer, _), (_, lam) in rows.items() if layer == i + 1]
        if len(lams) != ref.dims[i]:
            problems.append(f"layer {i + 1}: {len(lams)} eigenfunctions, dim {ref.dims[i]}")
            continue
        problems += _exceeds(
            f"layer {i + 1} eigenvalues against eigvals", ref.match_eigenvalues(i, lams), ref.tol
        )
    W, lams = inherited_rows(ref, P, rows)
    residual = ref.eigenfunction_residual(W, lams)
    return problems + _exceeds("|W A - Lambda W| / (|W| |A|)", residual, ref.tol)


def _cubic(a: list[float], ref: Reference, x: np.ndarray) -> np.ndarray:
    out = x.copy()
    for i, c in enumerate(a):
        v = x[ref.block(i)]
        out[ref.block(i)] = (v.real + c * v.real**3) + 1j * (v.imag + c * v.imag**3)
    return out


def check_round_trips(ref: Reference, spec: dict, states: np.ndarray) -> list[str]:
    """The library's conjugacy inverse against the cubic ``u + a u^3``
    evaluated here, in both directions, on the given stacked states."""
    from koopcascade import StateVector, conjugacy_from_json

    conj = conjugacy_from_json(spec)
    a = list(spec["a"])

    def inverse(y):
        layers = [y[ref.block(i)] for i in range(len(ref.dims))]
        return conj.inverse(StateVector.of(layers)).stacked()

    worst = 0.0
    for x in states:
        y = _cubic(a, ref, x)
        size = 1 + np.linalg.norm(y)
        back = inverse(y)
        worst = max(
            worst,
            np.linalg.norm(back - x) / size,
            np.linalg.norm(_cubic(a, ref, back) - y) / size,
        )
    return _exceeds("conjugacy round trip", worst, ROUND_TRIP_TOL)


def _perturbation_from_json(ref: Reference, obj: dict) -> np.ndarray:
    P = np.zeros_like(ref.P)
    for i, block_row in enumerate(obj["pert"]):
        m = matrix_from_json(block_row)
        P[ref.block(i), : m.shape[1]] = m
    return P


def check_laplace(ref: Reference, out: Path, rows: dict, x_ref: np.ndarray) -> list[str]:
    """``ref`` columns equal ``(V_i^-1 P x_ref)_s``; ``ok`` averages lie within
    the O(1/N) bound of ``Reference.laplace_bounds``."""
    with open(out / "laplace.csv", newline="") as fh:
        table = list(csv.DictReader(fh))
    Ns = sorted({int(r["N"]) for r in table})
    cache = {}
    worst_ref, worst_avg = 0.0, 0.0
    for r in table:
        key = (int(r["layer"]), int(r["index"]))
        w, lam = rows[key]
        if key not in cache:
            cache[key] = ref.laplace_bounds(key[0] - 1, w, lam, x_ref, Ns)
        limit, bounds = cache[key]
        scale = np.linalg.norm(w) * np.linalg.norm((ref.P @ x_ref)[ref.block(key[0] - 1)])
        got = complex(float(r["ref_re"]), float(r["ref_im"]))
        worst_ref = max(worst_ref, abs(got - limit) / (ref.tol * scale))
        if r["status"] == "ok":
            avg = complex(float(r["avg_re"]), float(r["avg_im"]))
            worst_avg = max(worst_avg, abs(avg - limit) / bounds[int(r["N"])])
    return _exceeds(
        "laplace.csv ref against w . (P x_ref)_i, in tolerances", worst_ref, 1.0
    ) + _exceeds("laplace.csv ok rows against the O(1/N) bound, in bounds", worst_avg, 1.0)


def check_repro_dir(out: Path) -> list[str]:
    """All reference checks on one ``repro-paper`` output directory."""
    ref = Reference.from_spec(_load(out / "cascade.json"))
    P = _perturbation_from_json(ref, _load(out / "perturbation.json"))
    x0 = state_from_json(_load(out / "x0.json"))
    table = np.loadtxt(out / "errors.csv", delimiter=",", skiprows=1, ndmin=2)
    T = int(table[:, 0].max())
    n = len(ref.dims)
    if table.shape[0] != (T + 1) * n:
        return [f"errors.csv has {table.shape[0]} rows, expected {(T + 1) * n}"]
    t, layer = table[:, 0].astype(int), table[:, 1].astype(int) - 1
    abs_err = np.zeros((T + 1, n))
    bound_a = np.zeros((T + 1, n))
    abs_err[t, layer] = table[:, 2]
    bound_a[t, layer] = table[:, 4]

    eigs = _load(out / "eigenfunctions.json")
    rows = {}
    for entry in eigs["entries"]:
        f = entry["eigenfunction"]
        rows[(f["layer"], f["index"])] = (
            matrix_from_json(f["coeff_row"]).ravel(),
            complex(*f["eigenvalue"]),
        )
    x_ref = state_from_json(eigs["reference_state"])
    orbit = ref.orbit(ref.A, x0, T)
    return (
        check_perturbation(ref, P)
        + check_error_series(ref, x0, abs_err, bound_a)
        + check_eigenfunctions(ref, P, rows)
        + check_laplace(ref, out, rows, x_ref)
        + check_round_trips(ref, _load(out / "conjugacy.json"), orbit)
    )


def failing_checks(out: Path) -> list[str]:
    """Names of the checks ``verify_report.json`` marks as failed."""
    path = out / "verify_report.json"
    if not path.exists():
        return ["verify_report.json missing"]
    return sorted(k for k, v in _load(path)["checks"].items() if not v["passed"])


def same_bytes(a: Path, b: Path) -> list[str]:
    return [
        f"{b / name} differs from {a / name}"
        for name in DETERMINISTIC_FILES
        if (a / name).read_bytes() != (b / name).read_bytes()
    ]


def check_orbit_setup(ref: Reference, system, pd) -> tuple[list[str], float]:
    """The library's ``P`` and inherited eigenfunctions for ``orbit-batch``;
    also returns ``|W|``, the scale of the eigenfunction residual floor."""
    P = pd.as_matrix()
    rows = {
        (i, s): (system.eig_of(i).Vinv[s - 1], complex(system.eig_of(i).eigenvalues[s - 1]))
        for i in range(1, system.n + 1)
        for s in range(1, system.dims[i - 1] + 1)
    }
    w_norm = float(np.linalg.norm(inherited_rows(ref, P, rows)[0], 2))
    return check_perturbation(ref, P) + check_eigenfunctions(ref, P, rows), w_norm


def check_orbit_result(ref: Reference, w_norm: float, result) -> list[str]:
    """One ``orbit-batch`` operation: error series against the dense orbits,
    closed form and iterated orbit against ``A^t x0`` step by step, residual
    sweep at the floor ``tol * |W| * |x0|``, and every library check passed."""
    es = result.error_series
    problems = check_error_series(ref, result.x0, es.abs_err.T, es.bound_decaying.T)
    T = result.coupled.shape[0] - 1
    exact = ref.orbit(ref.A, result.x0, T)
    # Rounding scale per step: tol * (|A^t x0| + |N^t P x0|).
    decoupled = ref.orbit(ref.N, ref.P @ result.x0, T)
    scale = ref.tol * (np.linalg.norm(exact, axis=1) + np.linalg.norm(decoupled, axis=1))
    for name, states in (("closed form", result.closed_form), ("iterate_lin", result.coupled)):
        gap = float(np.max(np.linalg.norm(states - exact, axis=1) / scale))
        problems += _exceeds(f"{name} against A^t x0, in tol * orbit size", gap, 1.0)
    floor = ref.tol * w_norm * np.linalg.norm(result.x0)
    problems += _exceeds("eigenfunction residual sweep", result.max_residual, floor)
    return problems + [f"{name} failed" for name, ok in result.reports_passed.items() if not ok]
