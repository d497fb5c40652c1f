"""The benchmark in ``bench/`` traces and calls library names by attribute.

``bench/`` lives outside the package, so a deleted or renamed name would
otherwise show only when the benchmark runs. This installs the benchmark's
tracer and runs one ``orbit-batch`` operation on its reference cascade,
with the benchmark's reference checks.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_bench_names_exist(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import checks
    import orbit_batch
    import tracing
    from reference import Reference

    system, pd = orbit_batch.setup()
    couplings = [None] + [system.coupling(i, i - 1) for i in range(2, system.n + 1)]
    ref = Reference(list(system.L), couplings)
    problems, w_norm = checks.check_orbit_setup(ref, system, pd)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        x0 = system.random_state(np.random.default_rng(0))
        result = orbit_batch.operation(system, pd, x0)
        problems += checks.check_orbit_result(ref, w_norm, result)
        conj = {"kind": "polynomialDiagonal", "a": [0.1] * system.n}
        problems += checks.check_round_trips(ref, conj, result.coupled[:5])
    finally:
        tracer.uninstall()
    assert problems == []
    spans = tracing.summarize(tracer.spans)
    assert {"orbits.compute_error_series", "conjugacy.inverse"} <= set(spans)
