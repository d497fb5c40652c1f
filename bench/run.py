"""koopcascade benchmark: one command, three workloads, checked results.

Usage (from the repository root):

    python3 bench/run.py --workload repro-paper|trial-sweep|orbit-batch \
        --seed N --seconds S --trace 0|1

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` they are the per-layer
ones from a traced run, plus the tracing overhead. The line before it is a
JSON record of the environment, the samples and any failures or problems.

Workloads (see bench/README.md):

- ``repro-paper``: one ``koopcascade repro-paper`` process at the reference
  seed 45 per operation.
- ``trial-sweep``: ``koopcascade repro-paper --trials 2`` over seeds 45..52,
  four invocations per round; ``--seed`` rotates their order.
- ``orbit-batch``: in-process linear analysis of one initial condition per
  operation on the reference cascade; ``--seed`` draws the initial conditions.

Each run repeats whole rounds until the operations have taken ``--seconds``;
a traced run spends half of that untraced and half traced. Timings are
scaled to the machine's full speed by speed probes (calibration.py).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from calibration import REFERENCE_S, SpeedScale

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

# A set-up sample is taken before an operation once this much time has passed
# since the last one, so the samples spread over the whole run.
SETUP_EVERY_S = 1.5
CHILD_TIMEOUT_S = 150
TRIAL_SEEDS = tuple(range(45, 53))
TRIALS_PER_CALL = 2
# The one failure the trial-sweep is expected to show: seed 51 misses the
# 1e-8 eigenfunction-exactness tolerance at resonance margin 1.4e-3 and exits 5.
KNOWN_FAILURE = {"seed": 51, "exit": 5, "checks": ["eigenfunction-exactness"]}

PER_LAYER_CALLS = (
    "observables.laplace_average",
    "observables.eigenfunction_residuals",
    "conjugacy.inverse",
    "orbits.iterate_lin",
    "orbits.iterate_nom",
    "orbits.lin_step",
    "orbits.compute_error_series",
    "perturbation.compute_perturbation",
    "perturbation.apply_perturbation",
    "cascade.CascadeSystem.build",
    "cascade.load_cascade",
    "linalg.eig_decompose",
)
PER_LAYER_SELF = (
    "observables.laplace_average",
    "observables.eigenfunction_residuals",
    "observables.check_eigenfunction_bounds",
    "conjugacy.check_nonlinear_equivalence",
    "conjugacy.check_nonlinear_eigenfunction_decay",
    "orbits.iterate_lin",
    "orbits.compute_error_series",
    "orbits.check_asymptotic_equivalence",
    "orbits.error_series_to_csv",
    "perturbation.compute_perturbation",
    "perturbation.apply_perturbation",
    "perturbation.ClosedFormSolution.trace",
    "cascade.random_chained_cascade",
    "linalg.eig_decompose",
    "cli.run_checks",
    "cli.cmd_eigs",
    "cli.write_manifest",
    "cli.cmd_repro",
)


class BenchError(Exception):
    """The benchmark could not run the program at all."""


@dataclass
class Op:
    name: str
    wall: float
    cpu: float
    code: int
    scale: float = 1.0
    out: Path | None = None
    bytes_written: int = 0
    spans: dict = field(default_factory=dict)
    peak_threads: int = 0
    stderr: str = ""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def environment(load_at_start) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_at_start": list(load_at_start),
    }


def setup_seconds(mode: str) -> float:
    """Wall time from spawning a process until it prints ``ready``, scaled
    by the speed probe that process runs next."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "setup_probe.py"), mode],
        cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
    )
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        probe = proc.stdout.readline()
    finally:
        proc.stdout.close()
        proc.wait(timeout=CHILD_TIMEOUT_S)
    if line.strip() != b"ready" or proc.returncode != 0:
        raise BenchError(f"set-up probe {mode!r} failed (exit {proc.returncode})")
    return elapsed * REFERENCE_S / float(probe)


class SetupSamples:
    """Set-up times sampled between operations throughout a run."""

    def __init__(self, mode: str):
        self.mode = mode
        self.samples: list[float] = []
        self._last = -SETUP_EVERY_S

    def between_ops(self) -> None:
        if time.perf_counter() - self._last >= SETUP_EVERY_S:
            self.samples.append(setup_seconds(self.mode))
            self._last = time.perf_counter()


def _children_cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def run_cli(name: str, args: list[str], out: Path, logs: Path, traced: bool) -> Op:
    """One koopcascade CLI process writing into ``out``. Its two speed probes
    are taken out of its wall and CPU time and give its speed scale."""
    record_path = logs / f"{out.name}.json"
    argv = [sys.executable, str(BENCH / "cli_child.py"), str(record_path), str(int(traced))]
    argv += args + ["--out-dir", str(out)]
    stderr_path = logs / f"{out.name}.stderr"
    cpu0 = _children_cpu()
    start = time.perf_counter()
    with open(stderr_path, "wb") as err:
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL, stderr=err
        )
        try:
            code = proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            code = -9
    op = Op(name, time.perf_counter() - start, _children_cpu() - cpu0, code, out=out)
    op.stderr = stderr_path.read_text(errors="replace").strip()[-300:]
    if out.exists():
        op.bytes_written = sum(p.stat().st_size for p in out.rglob("*") if p.is_file())
    if not record_path.exists():  # killed on timeout: failed, left unscaled
        return op
    record = json.loads(record_path.read_text())
    probes = record["probes_s"]
    op.wall -= sum(probes)
    op.cpu -= sum(probes)
    op.scale = REFERENCE_S / statistics.mean(probes)
    if traced:
        from tracing import summarize

        op.spans = summarize(record["spans"])
        op.peak_threads = record["peak_threads"]
    return op


def cli_round(workload: str, seed: int) -> list[tuple[str, list[str]]]:
    if workload == "repro-paper":
        return [("seed45", ["repro-paper", "--seed", "45"])]
    calls = [
        (f"seeds{s}-{s + TRIALS_PER_CALL - 1}",
         ["repro-paper", "--trials", str(TRIALS_PER_CALL), "--seed", str(s)])
        for s in TRIAL_SEEDS[::TRIALS_PER_CALL]
    ]
    k = seed % len(calls)
    return calls[k:] + calls[:k]


def measure_cli(
    workload, seed, seconds, work: Path, traced: bool, tag: str, setup: SetupSamples
) -> list[list[Op]]:
    """Whole rounds until the operations have taken ``seconds`` (scaled)."""
    logs = work / "logs"
    logs.mkdir(parents=True, exist_ok=True)
    rounds: list[list[Op]] = []
    spent = 0.0
    while not rounds or spent < seconds:
        ops = []
        for name, args in cli_round(workload, seed):
            setup.between_ops()
            op = run_cli(name, args, work / f"{tag}{len(rounds)}-{name}", logs, traced)
            spent += op.wall * op.scale
            ops.append(op)
        rounds.append(ops)
    return rounds


def trial_dirs(op: Op) -> dict[int, Path]:
    """Seed -> output directory of each trial of one invocation."""
    if op.name.startswith("seeds"):
        first = int(op.name[len("seeds"):].split("-")[0])
        return {first + k: op.out / f"trial_{k:04d}" for k in range(TRIALS_PER_CALL)}
    return {45: op.out}


def check_cli_rounds(
    rounds: list[list[Op]], baseline: list[Op] | None = None
) -> tuple[list[str], list[dict]]:
    """Reference checks on the first round's outputs (or byte-identity with
    ``baseline``), byte-identity of later rounds against the first, and one
    failure record per failed operation."""
    from checks import check_repro_dir, failing_checks, same_bytes

    problems, failures = [], []
    first = {op.name: op for op in (baseline or rounds[0])}
    for r, ops in enumerate(rounds):
        for op in ops:
            if op.code != 0:
                failing = {}
                for s, d in trial_dirs(op).items():
                    names = failing_checks(d)
                    if names:
                        failing[s] = names
                expected = op.code == KNOWN_FAILURE["exit"] and failing == {
                    KNOWN_FAILURE["seed"]: KNOWN_FAILURE["checks"]
                }
                failures.append({"op": op.name, "round": r, "exit": op.code, "expected": expected,
                                 "failing_checks": failing, "stderr": op.stderr})
            for s, d in trial_dirs(op).items():
                if op.code != 0 and not (d / "verify_report.json").exists():
                    continue  # a failed operation's missing outputs are not checked
                if r == 0 and baseline is None:
                    problems += [f"seed {s}: {p}" for p in check_repro_dir(d)]
                else:
                    problems += same_bytes(trial_dirs(first[op.name])[s], d)
                if op.code == 0 and failing_checks(d):
                    problems.append(f"seed {s}: exit 0 but checks failed")
    return problems, failures


def scaled_median(ops: list[Op], attr: str = "wall") -> float:
    return statistics.median(getattr(o, attr) * o.scale for o in ops)


def end_to_end(setup: SetupSamples, ops: list[Op], peak_rss_mib: float) -> dict:
    """Timings are scaled to the reference machine speed (calibration.py)."""
    return {
        "setup_s": (statistics.median(setup.samples), "s"),
        "op_p50_s": (scaled_median(ops), "s"),
        "ops_per_s": (len(ops) / sum(o.wall * o.scale for o in ops), "1/s"),
        "cpu_per_op_s": (scaled_median(ops, "cpu"), "s"),
        "peak_rss_mib": (peak_rss_mib, "MiB"),
    }


def per_layer(summaries: list[dict], ops: int, setup: dict | None = None) -> dict:
    """Span totals per operation; ``setup`` spans (orbit-batch) count once."""
    from tracing import MODULES

    total: dict[str, dict] = {}
    for summary, weight in [(s, 1.0 / ops) for s in summaries] + [(setup or {}, 1.0)]:
        for name, entry in summary.items():
            t = total.setdefault(name, {"calls": 0.0, "self_s": 0.0, "raised": {}})
            t["calls"] += entry["calls"] * weight
            t["self_s"] += entry["self_s"] * weight
            for exc, k in entry["raised"].items():
                t["raised"][exc] = t["raised"].get(exc, 0.0) + k * weight
    empty = {"calls": 0.0, "self_s": 0.0, "raised": {}}
    out = {}
    for name in PER_LAYER_SELF:
        out[f"{name}.s"] = (total.get(name, empty)["self_s"], "s/op")
    for name in PER_LAYER_CALLS:
        out[f"{name}.calls"] = (total.get(name, empty)["calls"], "calls/op")
    lap = total.get("observables.laplace_average", empty)
    incomplete = lap["raised"].get("DeflationIncompleteError", 0.0)
    ok = lap["calls"] - sum(lap["raised"].values())
    out["observables.laplace_average.ok"] = (ok, "calls/op")
    out["observables.laplace_average.incomplete"] = (incomplete, "calls/op")
    for module in MODULES:
        out[f"{module}.self_s"] = (
            sum(t["self_s"] for n, t in total.items() if n.split(".")[0] == module), "s/op"
        )
    return out


def cli_workload(args, work: Path) -> dict:
    setup = SetupSamples("cli")
    half = args.seconds / 2 if args.trace else args.seconds
    rounds = measure_cli(args.workload, args.seed, half, work, False, "r", setup)
    problems, failures = check_cli_rounds(rounds)
    ops = [op for r in rounds for op in r]
    result = {"ops": ops, "problems": problems, "failures": failures, "setup": setup.samples}
    if not args.trace:
        peak_rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
        result["metrics"] = end_to_end(setup, ops, peak_rss)
        return result
    traced_rounds = measure_cli(args.workload, args.seed, half, work, True, "t", setup)
    problems2, failures2 = check_cli_rounds(traced_rounds, baseline=rounds[0])
    traced = [op for r in traced_rounds for op in r]
    metrics = per_layer([o.spans for o in traced], len(traced))
    metrics["cli.bytes_written"] = (statistics.median(o.bytes_written for o in traced), "B/op")
    metrics["cli.peak_threads"] = (max(o.peak_threads for o in traced), "count")
    metrics["trace.overhead_pct"] = (100 * (scaled_median(traced) / scaled_median(ops) - 1), "%")
    result.update(
        ops=ops + traced, problems=problems + problems2,
        failures=failures + failures2, metrics=metrics,
    )
    return result


def orbit_workload(args, work: Path) -> dict:
    setup = SetupSamples("orbit-batch")
    import numpy as np

    import orbit_batch
    from checks import check_orbit_result, check_orbit_setup
    from reference import Reference

    system, pd = orbit_batch.setup()
    ref = Reference(
        list(system.L), [None] + [system.coupling(i, i - 1) for i in range(2, system.n + 1)]
    )
    problems, w_norm = check_orbit_setup(ref, system, pd)
    rng = np.random.default_rng(args.seed)

    def measure(seconds: float) -> list[Op]:
        ops, spent = [], 0.0
        speed = SpeedScale()
        while not ops or spent < seconds:
            setup.between_ops()
            x0 = system.random_state(rng)
            cpu0 = time.process_time()
            start = time.perf_counter()
            res = orbit_batch.operation(system, pd, x0)
            op = Op("orbit", time.perf_counter() - start, time.process_time() - cpu0, 0)
            op.scale = speed.after()
            spent += op.wall * op.scale
            ops.append(op)
            problems.extend(check_orbit_result(ref, w_norm, res))
        return ops

    half = args.seconds / 2 if args.trace else args.seconds
    ops = measure(half)
    result = {"ops": ops, "problems": problems, "failures": [], "setup": setup.samples}
    if not args.trace:
        peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        result["metrics"] = end_to_end(setup, ops, peak_rss)
        return result

    from tracing import Tracer, summarize

    tracer = Tracer()
    tracer.install()
    try:
        system, pd = orbit_batch.setup()
        setup_spans = len(tracer.spans)
        traced = measure(half)
    finally:
        tracer.uninstall()
    metrics = per_layer(
        [summarize(tracer.spans[setup_spans:])], len(traced), summarize(tracer.spans[:setup_spans])
    )
    metrics["cli.bytes_written"] = (0, "B/op")
    metrics["cli.peak_threads"] = (tracer.peak_threads, "count")
    metrics["trace.overhead_pct"] = (100 * (scaled_median(traced) / scaled_median(ops) - 1), "%")
    result.update(ops=ops + traced, metrics=metrics)
    return result


WORKLOADS = {
    "repro-paper": cli_workload,
    "trial-sweep": cli_workload,
    "orbit-batch": orbit_workload,
}


def main(argv=None) -> int:
    load_at_start = os.getloadavg()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "koopcascade" / "cli.py").is_file():
        print(f"koopcascade sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    work = ROOT / ".bench_out" / f"{args.workload}-{os.getpid()}"
    try:
        result = WORKLOADS[args.workload](args, work)
    except BenchError as exc:
        print(f"benchmark could not run: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run still uses it
            pass

    ops = result["ops"]
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "environment": environment(load_at_start),
        "op_walls_s": [round(o.wall, 6) for o in ops],
        "op_speed_scales": [round(o.scale, 4) for o in ops],
        "setup_samples_s": [round(s, 6) for s in result["setup"]],
        "failures": result["failures"],
        "problems": result["problems"][:20],
    }
    print(json.dumps(detail))
    print(json.dumps({
        "correct": not result["problems"],
        "attempted": len(ops),
        "failed": sum(o.code != 0 for o in ops),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
