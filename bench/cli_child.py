"""Run the koopcascade CLI between two speed probes, optionally traced.

Usage: python3 bench/cli_child.py RECORD.json 0|1 <koopcascade arguments...>

The CLI runs in this process, exactly as ``python3 -m koopcascade.cli`` would
run it. ``calibration.probe()`` runs just before and just after it, on the
same process, so the benchmark can subtract the probes from the process's
wall time and scale the rest to the reference machine speed. With ``1`` the
library's public calls are traced (``tracing.Tracer``). RECORD.json receives
the probe times and the spans; the exit code is the CLI's own.
"""

from __future__ import annotations

import json
import sys

import calibration


def main() -> int:
    record_path, traced, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    import koopcascade.cli as cli

    record = {}
    if traced:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    before = calibration.probe()
    try:
        return cli.main(argv)
    finally:
        record["probes_s"] = [before, calibration.probe()]
        if traced:
            record["spans"] = tracer.spans
            record["peak_threads"] = tracer.peak_threads
        with open(record_path, "w") as fh:
            json.dump(record, fh)


if __name__ == "__main__":
    raise SystemExit(main())
