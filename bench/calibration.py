"""Machine-speed probe for scaling operation timings on a shared machine.

On the reference machine, a 2-core VM shared with other tenants, the same
CPU-bound work runs at one of two speeds about 1.7x apart, switching every
few seconds. Medians of raw times over 30-second windows spread by 20%. A
probe of fixed work that resembles the library's own (small complex
matrix-vector products, norms and Python-level appends) is timed next to
every operation; the operation's time is multiplied by ``REFERENCE_S /
probe``, the machine's speed relative to full speed, before medians are
taken.

The probe's work and ``REFERENCE_S`` are fixed: changing either changes every
timing the benchmark reports.
"""

from __future__ import annotations

import gc
import statistics
import time

import numpy as np

# Probe duration on the reference machine (2-core x86-64 VM at 2.1 GHz,
# Python 3.11.7, numpy 2.4.6 with OpenBLAS 0.3.31) when it runs at full speed.
# There the probe takes either about 11.3 ms or about 18.8 ms, switching every
# few seconds; scaled timings are therefore timings at full speed.
REFERENCE_S = 0.0113

_rng = np.random.default_rng(0)
_M = (_rng.uniform(-1, 1, (30, 30)) + 1j * _rng.uniform(-1, 1, (30, 30))) / 10


def _chunk() -> float:
    start = time.perf_counter()
    x = np.ones(30, dtype=np.complex128)
    acc = []
    for _ in range(800):
        x = _M @ x
        x = x / np.linalg.norm(x)
        acc.append(complex(x[0]))
    return time.perf_counter() - start


def probe() -> float:
    """Seconds taken by the fixed probe work: three times the median of five
    equal chunks, after one chunk that warms up a fresh process, so one
    preempted chunk does not count. The garbage collector is paused, so the
    size of the caller's heap does not count either."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        _chunk()
        return 3 * statistics.median(_chunk() for _ in range(5))
    finally:
        if enabled:
            gc.enable()


class SpeedScale:
    """Scale factors from probes taken before and after each timed interval."""

    def __init__(self):
        self.last = probe()

    def after(self) -> float:
        """Probe again; return ``REFERENCE_S`` over the mean of this probe
        and the previous one (which preceded the interval just timed)."""
        current = probe()
        scale = REFERENCE_S / (0.5 * (self.last + current))
        self.last = current
        return scale
