"""Command-line front end.

Subcommands:

  generate    -- draw a random chained cascade and write its spec + condition report
  simulate    -- run coupled vs decoupled orbits, export the error-series CSV
  verify      -- run the selected analysis checks, write a JSON report
  eigs        -- eigenfunction inventory with residuals and Laplace averages
  repro-paper -- one-shot reference experiment (7 layers, norms 0.9^(8-i))

All data goes to files; stdout carries human-readable summaries only.
Fixed seeds give byte-identical CSV output across runs on the same build.

Exit codes: 0 ok, 2 generation failed or usage error (including a --spec,
--x0 or --conjugacy file that cannot be read as JSON, and an --x0 or
--conjugacy file that does not fit the spec's layers), 3 validation failed,
4 orbit overflow, 5 verification checks failed (for eigs: a residual above
tolerance).
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import sys as _sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from functools import cached_property
from pathlib import Path

import numpy as np

from . import __version__, linalg
from .cascade import (
    DEFAULT_DIM_RANGE,
    CascadeSystem,
    StateVector,
    cascade_from_json,
    cascade_to_json,
    random_chained_cascade,
    state_from_json,
    state_to_json,
    validate_conditions,
)
from .conjugacy import (
    Conjugacy,
    NonlinearCascade,
    check_nonlinear_eigenfunction_decay,
    check_nonlinear_equivalence,
    conjugacy_from_json,
    conjugated_orbit,
    polynomial_conjugacy,
)
from .errors import GenerationFailedError, OrbitOverflowError
from .observables import (
    check_eigenfunction_bounds,
    eigenfunction_residuals,
    eigenfunction_to_json,
    inherited_eigenfunctions,
    laplace_table,
    peripheral_modes,
)
from .orbits import (
    CheckResult,
    ErrorSeries,
    check_asymptotic_equivalence,
    check_error_bounds,
    compute_error_series,
    error_series_to_csv,
)
from .perturbation import PerturbationData, compute_perturbation, perturbation_to_json

LAPLACE_N_GRID = (10, 100, 1000)

EXIT_OK = 0
EXIT_GENERATION = 2
EXIT_USAGE = 2
EXIT_VALIDATION = 3
EXIT_OVERFLOW = 4
EXIT_CHECKS = 5


@dataclass
class TolProfile:
    """Check tolerances; 'strict' tightens everything one notch."""

    name: str = "default"
    slack: float = 1e-9
    decay_factor: float = 1e-3
    equivalence_ratio: float = 1e-6
    residual_tol: float = 1e-8
    agreement_tol: float = 1e-8
    rel_floor: float = 1e-10

    @staticmethod
    def named(name: str) -> "TolProfile":
        if name == "default":
            return TolProfile()
        if name == "strict":
            return TolProfile(
                name="strict",
                slack=1e-10,
                decay_factor=1e-4,
                equivalence_ratio=1e-7,
                residual_tol=1e-9,
                agreement_tol=1e-9,
                rel_floor=1e-11,
            )
        raise ValueError(f"unknown tolerance profile {name!r}")


@dataclass
class ExperimentConfig:
    """Knobs of the reference experiment and its generalizations."""

    layers: int = 7
    norm_base: float = 0.9
    dim_range: tuple[int, int] = DEFAULT_DIM_RANGE
    seed: int = 42
    horizon: int = 100
    tol_profile: str = "default"

    def norm_schedule(self) -> list[float]:
        """||L_i|| = norm_base^(layers + 1 - i), positive, strictly increasing, <= 1."""
        sched = [self.norm_base ** (self.layers + 1 - i) for i in range(1, self.layers + 1)]
        if not (
            sched
            and 0.0 < sched[0]
            and all(a < b for a, b in zip(sched, sched[1:]))
            and sched[-1] <= 1.0
        ):
            raise ValueError(
                f"norm schedule must be positive, strictly increasing and <= 1: {sched}"
            )
        return sched


def _rng_streams(seed: int, count: int) -> list[np.random.Generator]:
    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(count)]


def _write_json(path: Path, obj) -> None:
    # one write: json.dump makes one per token
    with open(path, "w") as fh:
        fh.write(json.dumps(obj, indent=1, sort_keys=True) + "\n")


def write_manifest(out_dir: Path, config: dict, checks: dict, files: list[Path]) -> Path:
    manifest = {
        "library_version": __version__,
        "created_utc": datetime.now(timezone.utc).isoformat(),
        "config": config,
        "checks": checks,
        "files": {
            f.name: {"sha256": hashlib.sha256(f.read_bytes()).hexdigest(),
                     "bytes": f.stat().st_size}
            for f in files
            if f.exists()
        },
    }
    path = out_dir / "manifest.json"
    _write_json(path, manifest)
    return path


GNUPLOT_TEMPLATE = """\
# Companion plot script for {csv}. Layer 1 is excluded: its error is zero
# by construction. Usage: gnuplot {gp}
set datafile separator ','
set key outside
set xlabel 't'
set ylabel 'log abs err'
plot for [i=2:{n}] '{csv}' using 1:($2==i ? $7 : 1/0) with lines title sprintf('layer %d', i), \\
     for [i=2:{n}] '{csv}' using 1:($2==i ? log($6) : 1/0) every 10 with points pt 3 lc 'black' notitle
"""


def _write_error_series(out_dir: Path, es, n_layers: int) -> list[Path]:
    """errors.csv and its companion plot script errors.gp."""
    csv_path, gp_path = out_dir / "errors.csv", out_dir / "errors.gp"
    error_series_to_csv(es, csv_path)
    gp_path.write_text(
        GNUPLOT_TEMPLATE.format(csv=csv_path.name, gp=gp_path.name, n=n_layers)
    )
    return [csv_path, gp_path]


def _write_verify_report(
    out_dir: Path, report, results: dict, profile: TolProfile, horizon: int
) -> bool:
    """verify_report.json for these check results; returns whether all passed."""
    overall = all(r.passed for r in results.values())
    _write_json(out_dir / "verify_report.json", {
        "validation": report.to_json(),
        "checks": {name: r.to_json() for name, r in results.items()},
        "overall": overall,
        "tol_profile": profile.name,
        "horizon": horizon,
    })
    return overall


def _draw_cascade(cfg: ExperimentConfig) -> CascadeSystem:
    """cfg's random cascade: layer dims, then matrices, from cfg.seed's first stream."""
    rng = _rng_streams(cfg.seed, 1)[0]
    dims = [int(d) for d in rng.integers(cfg.dim_range[0], cfg.dim_range[1] + 1, cfg.layers)]
    return random_chained_cascade(dims, cfg.norm_schedule(), rng)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_generate(args) -> int:
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    cfg = ExperimentConfig(
        layers=args.layers,
        norm_base=args.norm_base,
        dim_range=(args.dim_min, args.dim_max),
        seed=args.seed,
        tol_profile=args.tol_profile,
    )
    system = _draw_cascade(cfg)
    report = validate_conditions(system)

    spec_path = out_dir / "cascade.json"
    _write_json(spec_path, cascade_to_json(system))
    report_path = out_dir / "conditions.json"
    _write_json(report_path, report.to_json())
    write_manifest(
        out_dir, asdict(cfg), {"conditions": report.overall}, [spec_path, report_path]
    )
    print(
        f"generated {system.n}-layer cascade, dims {list(system.dims)}, "
        f"validation {'pass' if report.overall else 'FAIL'} -> {spec_path}"
    )
    return EXIT_OK if report.overall else EXIT_VALIDATION


class UsageError(Exception):
    """A command-line argument the command cannot use; main prints the
    message and exits EXIT_USAGE."""


def _exit_code(command, *args) -> int:
    """command(*args), with a failed generation or an orbit overflow turned
    into its exit code and a one-line message on stderr."""
    try:
        return command(*args)
    except GenerationFailedError as exc:
        print(f"generation failed: {exc}", file=_sys.stderr)
        return EXIT_GENERATION
    except OrbitOverflowError as exc:
        print(f"orbit overflow: {exc}", file=_sys.stderr)
        return EXIT_OVERFLOW


def _read_json(path: str, flag: str, parse=lambda obj: obj):
    """parse() of the JSON in the file a command-line flag names; a file
    that cannot be read, or content that is not what the flag takes, is a
    UsageError."""
    try:
        with open(path) as fh:
            return parse(json.load(fh))
    except (OSError, ValueError, LookupError, TypeError) as exc:
        raise UsageError(f"{flag} {path}: {exc}") from None


def _check_numbers(args) -> None:
    """UsageError for a numeric argument the command cannot use."""
    if getattr(args, "seed", 0) < 0:
        raise UsageError(f"--seed must be >= 0, got {args.seed}")
    if getattr(args, "horizon", 0) < 0:
        raise UsageError(f"--horizon must be >= 0, got {args.horizon}")
    if getattr(args, "layers", 1) < 1:
        raise UsageError(f"--layers must be >= 1, got {args.layers}")
    if hasattr(args, "norm_base"):
        try:
            ExperimentConfig(layers=args.layers, norm_base=args.norm_base).norm_schedule()
        except ValueError as exc:
            raise UsageError(f"--norm-base {args.norm_base}: {exc}") from None
    if hasattr(args, "dim_min") and not 1 <= args.dim_min <= args.dim_max:
        raise UsageError(
            f"--dim-min {args.dim_min} --dim-max {args.dim_max}: need 1 <= min <= max"
        )
    if not 0.0 <= getattr(args, "cubic", 0.0) < float("inf"):
        raise UsageError(f"--cubic must be finite and >= 0, got {args.cubic}")
    if getattr(args, "trials", 1) < 1:
        raise UsageError(f"--trials must be >= 1, got {args.trials}")


def _load_validated(spec_path: str):
    system = _read_json(spec_path, "--spec", cascade_from_json)
    report = validate_conditions(system)
    if not report.overall:
        print(
            f"cascade spec failed condition validation: {json.dumps(report.to_json())}",
            file=_sys.stderr,
        )
        return None, report
    return system, report


def _initial_state(system: CascadeSystem, path: str | None, seed: int) -> StateVector:
    """The --x0 file's state, which must fit the spec's layer dims, or the seeded draw."""
    if not path:
        return system.random_state(_rng_streams(seed, 2)[1])
    x0 = _read_json(path, "--x0", state_from_json)
    if x0.dims != system.dims:
        raise UsageError(f"--x0 {path}: state dims {x0.dims} != spec dims {system.dims}")
    return x0


def _read_conjugacy(path: str, system: CascadeSystem) -> Conjugacy:
    """The --conjugacy file's conjugacy, which must fit the spec's layer count."""
    conj = _read_json(path, "--conjugacy", conjugacy_from_json)
    if conj.cubic_coeffs is not None and len(conj.cubic_coeffs) != system.n:
        raise UsageError(f"--conjugacy {path}: {len(conj.cubic_coeffs)} cubic "
                         f"coefficients, spec has {system.n} layers")
    return conj


def cmd_simulate(args) -> int:
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    system, report = _load_validated(args.spec)
    if system is None:
        return EXIT_VALIDATION
    pd = compute_perturbation(system, report)
    x0 = _initial_state(system, args.x0, args.seed)
    es = compute_error_series(system, pd, x0, args.horizon)
    csv_path, gp_path = _write_error_series(out_dir, es, system.n)
    x0_path = out_dir / "x0.json"
    _write_json(x0_path, state_to_json(x0))
    profile = TolProfile.named(args.tol_profile)
    checks = run_checks(system, pd, x0, args.horizon, ["error-bounds"], profile, None, es=es)
    bounds = checks["error-bounds"]
    write_manifest(
        out_dir,
        {"spec": str(args.spec), "horizon": args.horizon, "seed": args.seed,
         "tol_profile": args.tol_profile, "layer1_excluded_from_plots": True},
        {"error-bounds": bounds.passed},
        [csv_path, gp_path, x0_path],
    )
    print(
        f"simulated T={args.horizon}: bounds "
        f"{'hold' if bounds.detail['bounds_ok'] else 'VIOLATED'}, decay "
        f"{'ok' if bounds.detail['decay_ok'] else 'FAIL'} -> {csv_path}"
    )
    return EXIT_OK


@dataclass
class _CheckRun:
    """The inputs that the checks of one run_checks call read."""

    system: CascadeSystem
    pd: PerturbationData
    x0: StateVector
    horizon: int
    selected: list[str]
    profile: TolProfile
    conj: Conjugacy | None
    seed: int
    es: ErrorSeries | None

    @property
    def decay_horizon(self) -> int:
        """The top-layer decay sweep reads states 0..decay_horizon, where
        rounding floors stay benign."""
        return min(self.horizon, 100)

    @property
    def nl(self) -> NonlinearCascade:
        return NonlinearCascade(base=self.system, conj=self.conj)

    @cached_property
    def nonlinear_orbit(self) -> tuple[np.ndarray, np.ndarray]:
        """conjugated_orbit's (Y, X) from tau(x0), iterated once for both
        nonlinear checks, as far as the selected ones read."""
        T = self.horizon if "nonlinear-equivalence" in self.selected else self.decay_horizon
        return conjugated_orbit(self.nl, self.system.A, self.conj.forward(self.x0).stacked(), T)


def _eigenfunction_exactness(run: _CheckRun) -> CheckResult:
    rng = _rng_streams(run.seed, 3)[2]
    samples = [run.system.random_state(rng) for _ in range(20)]
    residuals = eigenfunction_residuals(run.system, run.pd, samples, horizon=min(run.horizon, 50))
    worst = max(residuals.values()) if residuals else 0.0
    tol = run.profile.residual_tol
    return CheckResult(worst <= tol, {"max_residual": worst, "residual_tol": tol})


def _nonlinear_eigenfunction_decay(run: _CheckRun) -> CheckResult:
    """The all-modes decay check, judged on the top layer's pairs."""
    _, X = run.nonlinear_orbit
    per_mode = check_nonlinear_eigenfunction_decay(
        run.nl, run.pd, X[: run.decay_horizon + 1],
        decay_factor=run.profile.decay_factor, agreement_tol=run.profile.agreement_tol,
    )
    top = {f"{i},{s}": r for (i, s), r in per_mode.items() if i == run.system.n}
    return CheckResult(
        all(r.passed for r in top.values()), {"pairs": {k: r.to_json() for k, r in top.items()}}
    )


# check name -> (needs a conjugacy, check), in the order run_checks runs them.
# A check calls the library function by its module-level name when it runs,
# so a wrapper put in that name's place (a tracer's, say) is the one called.
CHECKS = {
    "error-bounds": (False, lambda run: check_error_bounds(
        run.es or compute_error_series(run.system, run.pd, run.x0, run.horizon),
        slack=run.profile.slack, decay_factor=run.profile.decay_factor,
        rel_floor=run.profile.rel_floor,
    )),
    "asymptotic-equivalence": (False, lambda run: check_asymptotic_equivalence(
        run.system, run.pd, run.x0, run.horizon,
        ratio_tol=run.profile.equivalence_ratio, slack=run.profile.slack,
    )),
    "eigenfunction-bounds": (False, lambda run: check_eigenfunction_bounds(
        run.system, run.pd, run.x0, run.horizon, slack=run.profile.slack,
        decay_factor=run.profile.decay_factor, rel_floor=run.profile.rel_floor,
    )),
    "eigenfunction-exactness": (False, _eigenfunction_exactness),
    "nonlinear-equivalence": (True, lambda run: check_nonlinear_equivalence(
        run.nl, run.pd, *run.nonlinear_orbit, decay_factor=run.profile.decay_factor
    )),
    "nonlinear-eigenfunction-decay": (True, _nonlinear_eigenfunction_decay),
}
ALL_CHECKS = tuple(CHECKS)
NONLINEAR_CHECKS = tuple(name for name, (nonlinear, _) in CHECKS.items() if nonlinear)
LINEAR_CHECKS = tuple(name for name in CHECKS if name not in NONLINEAR_CHECKS)


def run_checks(
    system: CascadeSystem,
    pd: PerturbationData,
    x0: StateVector,
    horizon: int,
    selected: list[str],
    profile: TolProfile,
    conj: Conjugacy | None,
    seed: int = 0,
    es: ErrorSeries | None = None,
) -> dict[str, CheckResult]:
    """Run the selected checks and return {name: result}. The nonlinear
    checks run through conj, which they require; error-bounds judges es, the
    series compute_error_series(system, pd, x0, horizon) gives, if passed."""
    run = _CheckRun(system, pd, x0, horizon, selected, profile, conj, seed, es)
    return {name: check(run) for name, (_, check) in CHECKS.items() if name in selected}


def cmd_verify(args) -> int:
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    system, report = _load_validated(args.spec)
    if system is None:
        _write_json(out_dir / "verify_report.json", {
            "validation": report.to_json(), "checks": {}, "overall": False,
            "skipped": "condition validation failed",
        })
        return EXIT_VALIDATION

    if args.checks == "all":
        selected = list(ALL_CHECKS) if args.conjugacy else list(LINEAR_CHECKS)
    else:
        selected = list(dict.fromkeys(c.strip() for c in args.checks.split(",") if c.strip()))
        unknown = [c for c in selected if c not in ALL_CHECKS]
        if unknown:
            raise UsageError(f"unknown checks: {unknown}; available: {list(ALL_CHECKS)}")

    conj = _read_conjugacy(args.conjugacy, system) if args.conjugacy else None
    if conj is None and any(c in NONLINEAR_CHECKS for c in selected):
        raise UsageError("nonlinear checks need a conjugacy spec (--conjugacy)")

    profile = TolProfile.named(args.tol_profile)
    x0 = _initial_state(system, args.x0, args.seed)
    pd = compute_perturbation(system, report)
    results = run_checks(
        system, pd, x0, args.horizon, selected, profile, conj, seed=args.seed
    )
    overall = _write_verify_report(out_dir, report, results, profile, args.horizon)
    for name in selected:
        status = "pass" if results[name].passed else "FAIL"
        print(f"{name}: {status}")
    if not overall:
        failing = [n for n, r in results.items() if not r.passed]
        print(f"failing checks: {', '.join(failing)}", file=_sys.stderr)
        return EXIT_CHECKS
    print(f"all selected checks passed -> {out_dir / 'verify_report.json'}")
    return EXIT_OK


def write_eigs_tables(
    system: CascadeSystem,
    pd: PerturbationData,
    out_dir: Path,
    seed: int,
    layer: int | None = None,
    index: int | None = None,
) -> tuple[list[Path], int, float]:
    """Eigenfunction inventory (eigenfunctions.json) and Laplace convergence
    table (laplace.csv) for the selected (layer, index) pairs.

    Returns the written files, the number of pairs swept and the largest
    residual over all pairs.
    """
    pairs = [
        (i, s)
        for i, s in system.modes
        if (layer is None or i == layer) and (index is None or s == index)
    ]
    if not pairs:
        raise UsageError(
            f"--layer {layer} --index {index} selects no eigenfunction of a "
            f"cascade with dims {list(system.dims)}"
        )
    streams = _rng_streams(seed, 3)
    samples = [system.random_state(streams[1]) for _ in range(20)]
    x_ref = system.random_state(streams[2])
    residuals = eigenfunction_residuals(system, pd, samples, horizon=50)

    refs = dict(zip(system.modes, inherited_eigenfunctions(system, pd, x_ref.stacked())))
    is_peripheral = dict(zip(system.modes, peripheral_modes(system).tolist()))
    table = laplace_table(system, pd, x_ref, LAPLACE_N_GRID, pairs)
    inventory = []
    csv_lines = [
        "layer,index,eigenvalue_re,eigenvalue_im,peripheral,deflated,N,"
        "avg_re,avg_im,ref_re,ref_im,abs_error,status\n"
    ]
    for i, s in pairs:
        lam = complex(system.eig_of(i).eigenvalues[s - 1])
        peripheral = is_peripheral[(i, s)]
        ref = complex(refs[(i, s)])
        entry = {
            "eigenfunction": eigenfunction_to_json(system, i, s, composed_with_pert=True),
            "peripheral": peripheral,
            "residual": residuals[(i, s)],
            "laplace": [],
        }
        for N, avg in zip(LAPLACE_N_GRID, table[(i, s)]):
            row = {"N": N, "deflated": not peripheral}
            if isinstance(avg, str):
                row["status"] = avg
                avg_re = avg_im = err = ""
            else:
                row["average"] = linalg.complex_to_json(avg)
                row["abs_error"] = abs(avg - ref)
                row["status"] = "ok"
                avg_re, avg_im, err = (
                    f"{v:.17g}" for v in (*row["average"], row["abs_error"])
                )
            entry["laplace"].append(row)
            csv_lines.append(
                f"{i},{s},{lam.real:.17g},{lam.imag:.17g},{int(peripheral)},"
                f"{int(not peripheral)},{N},{avg_re},{avg_im},"
                f"{ref.real:.17g},{ref.imag:.17g},{err},{row['status']}\n"
            )
        inventory.append(entry)

    eig_path = out_dir / "eigenfunctions.json"
    _write_json(eig_path, {"reference_state": state_to_json(x_ref), "entries": inventory})

    csv_path = out_dir / "laplace.csv"
    csv_path.write_text("".join(csv_lines), newline="")

    worst = max(residuals.values()) if residuals else 0.0
    return [eig_path, csv_path], len(pairs), worst


def cmd_eigs(args) -> int:
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    system, report = _load_validated(args.spec)
    if system is None:
        return EXIT_VALIDATION
    pd = compute_perturbation(system, report)
    files, swept, worst = write_eigs_tables(
        system, pd, out_dir, args.seed, args.layer, args.index
    )
    write_manifest(
        out_dir,
        {"spec": str(args.spec), "seed": args.seed, "layer": args.layer,
         "index": args.index},
        {"max_residual": worst},
        files,
    )
    print(
        f"swept {swept} eigenfunctions, max residual {worst:.3e} "
        f"-> {files[0]}, {files[1]}"
    )
    tol = TolProfile.named(args.tol_profile).residual_tol
    if worst > tol:
        print(f"max residual {worst:.3e} exceeds {tol:.1e}", file=_sys.stderr)
        return EXIT_CHECKS
    return EXIT_OK


def _repro_single(seed: int, out_dir: Path, args) -> int:
    """One full reference-experiment run into out_dir."""
    out_dir.mkdir(parents=True, exist_ok=True)
    cfg = ExperimentConfig(
        layers=args.layers,
        norm_base=args.norm_base,
        seed=seed,
        horizon=args.horizon,
        tol_profile=args.tol_profile,
    )
    system = _draw_cascade(cfg)
    report = validate_conditions(system)
    pd = compute_perturbation(system, report)
    x0 = _initial_state(system, None, seed)

    _write_json(out_dir / "cascade.json", cascade_to_json(system))
    _write_json(out_dir / "conditions.json", report.to_json())
    _write_json(out_dir / "x0.json", state_to_json(x0))
    _write_json(out_dir / "perturbation.json", perturbation_to_json(system, pd))

    conj = polynomial_conjugacy([args.cubic] * cfg.layers)
    profile = TolProfile.named(cfg.tol_profile)
    es = compute_error_series(system, pd, x0, cfg.horizon)
    _write_error_series(out_dir, es, system.n)
    _write_json(out_dir / "conjugacy.json", conj.to_json())
    results = run_checks(
        system, pd, x0, cfg.horizon, list(ALL_CHECKS), profile, conj, seed=seed, es=es
    )
    overall = _write_verify_report(out_dir, report, results, profile, cfg.horizon)
    write_eigs_tables(system, pd, out_dir, seed)

    files = sorted(p for p in out_dir.iterdir() if p.is_file() and p.name != "manifest.json")
    write_manifest(out_dir, asdict(cfg), {k: v.passed for k, v in results.items()}, files)
    print(f"seed {seed}: checks {'pass' if overall else 'FAIL'} -> {out_dir}")
    return EXIT_OK if overall else EXIT_CHECKS


def _trial(k: int, seed: int, out_dir: Path, args) -> list:
    """[exit code, stdout, stderr] of trial k of a sweep, with the lines it
    prints captured. One failed trial does not stop the sweep: each maps its
    own failure to its exit code."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = _exit_code(_repro_single, seed, out_dir / f"trial_{k:04d}", args)
    return [code, out.getvalue(), err.getvalue()]


def _fork_worker(ks: range, seeds: range, out_dir: Path, args) -> tuple[int, int]:
    """Fork a child that runs trials ks and writes {k: [exit code, stdout,
    stderr]} as JSON to a pipe; returns its pid and the pipe's read end."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid:
        os.close(write_fd)
        return pid, read_fd
    status = 1
    try:
        os.close(read_fd)
        results = {}
        for k in ks:
            try:
                results[k] = _trial(k, seeds[k], out_dir, args)
            except Exception:
                import traceback

                results[k] = [1, "", traceback.format_exc()]
        with open(write_fd, "w") as fh:
            json.dump(results, fh)
        status = 0
    finally:
        # leave without running the parent's cleanup: finally blocks above
        # this frame, atexit handlers and buffered stdio belong to the parent
        os._exit(status)


def _read_worker(pid: int, read_fd: int, ks: range, seeds: range) -> dict[int, list]:
    """The results a forked worker reports, read to EOF before it is reaped;
    a worker that did not finish reports each of its trials as exit 1."""
    try:
        with open(read_fd) as fh:
            text = fh.read()
    finally:
        _, status = os.waitpid(pid, 0)
    code = os.waitstatus_to_exitcode(status)
    if code != 0:
        return {k: [1, "", f"seed {seeds[k]}: trial worker {pid} ended with exit code "
                    f"{code} before reporting\n"] for k in ks}
    return {int(k): result for k, result in json.loads(text).items()}


def _sweep(seeds: range, out_dir: Path, args) -> dict[int, list]:
    """[exit code, stdout, stderr] of each trial k of a sweep.

    The trials are independent, so they run on W = min(trials, CPUs)
    workers: worker w runs trials w, w + W, ... Worker 0 is this process;
    the others are forked, so they start with the modules already imported.
    Every forked worker is reaped before this returns or raises.
    """
    n = len(seeds)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    n_workers = min(n, cpus)
    _sys.stdout.flush()
    _sys.stderr.flush()
    workers = []
    try:
        for w in range(1, n_workers):
            ks = range(w, n, n_workers)
            workers.append((*_fork_worker(ks, seeds, out_dir, args), ks))
        results = {k: _trial(k, seeds[k], out_dir, args) for k in range(0, n, n_workers)}
    finally:
        reported = [_read_worker(pid, fd, ks, seeds) for pid, fd, ks in workers]
    for part in reported:
        results.update(part)
    return results


def cmd_repro(args) -> int:
    out_dir = Path(args.out_dir)
    if args.trials == 1:
        return _repro_single(args.seed, out_dir, args)
    seeds = range(args.seed, args.seed + args.trials)
    results = _sweep(seeds, out_dir, args)
    codes = {}
    for k, seed in enumerate(seeds):
        codes[seed], out, err = results[k]
        _sys.stdout.write(out)
        _sys.stderr.write(err)
    bad = {s: c for s, c in codes.items() if c != EXIT_OK}
    if bad:
        print(f"failing trials (seed: exit code): {bad}", file=_sys.stderr)
        return max(bad.values())
    print(f"all {args.trials} trials passed")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="koopcascade",
        description="Cascade spectral analysis: generation, simulation, "
        "verification, eigenfunction sweeps.",
    )
    parser.set_defaults(func=None)
    sub = parser.add_subparsers(dest="command")

    def common(p):
        p.add_argument("--seed", type=int, default=42, help="master RNG seed")
        p.add_argument("--out-dir", default=".", help="output directory")
        p.add_argument(
            "--tol-profile", choices=("default", "strict"), default="default",
            help="check tolerance profile",
        )

    g = sub.add_parser("generate", help="draw a random chained cascade")
    common(g)
    g.add_argument("--layers", type=int, default=7)
    g.add_argument("--norm-base", type=float, default=0.9)
    g.add_argument("--dim-min", type=int, default=DEFAULT_DIM_RANGE[0])
    g.add_argument("--dim-max", type=int, default=DEFAULT_DIM_RANGE[1])
    g.set_defaults(func=cmd_generate)

    s = sub.add_parser("simulate", help="simulate orbits and export the error CSV")
    common(s)
    s.add_argument("--spec", required=True, help="cascade spec JSON")
    s.add_argument("--x0", help="initial state JSON (default: seeded unit layers)")
    s.add_argument("--horizon", type=int, default=100)
    s.set_defaults(func=cmd_simulate)

    v = sub.add_parser("verify", help="run analysis checks")
    common(v)
    v.add_argument("--spec", required=True)
    v.add_argument("--x0", help="initial state JSON (default: seeded unit layers)")
    v.add_argument("--horizon", type=int, default=100)
    v.add_argument(
        "--checks", default="all",
        help=f"comma list from {ALL_CHECKS} or 'all'",
    )
    v.add_argument("--conjugacy", help="conjugacy spec JSON (for nonlinear checks)")
    v.set_defaults(func=cmd_verify)

    e = sub.add_parser("eigs", help="eigenfunction inventory + Laplace table")
    common(e)
    e.add_argument("--spec", required=True)
    e.add_argument("--layer", type=int, help="restrict to one layer")
    e.add_argument("--index", type=int, help="restrict to one index")
    e.set_defaults(func=cmd_eigs)

    r = sub.add_parser("repro-paper", help="one-shot reference experiment")
    common(r)
    # Documented default seed: margins of the drawn system keep the
    # perturbation matrices small enough for 1e-8 residual checks.
    r.set_defaults(seed=45)
    r.add_argument("--layers", type=int, default=7)
    r.add_argument("--norm-base", type=float, default=0.9)
    r.add_argument("--horizon", type=int, default=200)
    r.add_argument("--cubic", type=float, default=0.1,
                   help="cubic conjugacy coefficient for the nonlinear checks")
    r.add_argument("--trials", type=int, default=1,
                   help="run this many consecutive seeds into trial_0000, "
                   "trial_0001, ..., in parallel on the available CPUs")
    r.set_defaults(func=cmd_repro)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.func is None:
        parser.print_help()
        return EXIT_USAGE
    try:
        _check_numbers(args)
        return _exit_code(args.func, args)
    except UsageError as exc:
        print(f"koopcascade {args.command}: {exc}", file=_sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
