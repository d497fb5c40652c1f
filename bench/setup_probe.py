"""Print ``ready`` once a workload's first operation could begin, then the
duration of one speed probe (``calibration.probe``) run in this process.

Usage: python3 bench/setup_probe.py cli|orbit-batch

``cli`` only imports ``koopcascade.cli``; ``orbit-batch`` imports the library
and builds the reference cascade and its perturbation data.
"""

import sys

if sys.argv[1] == "orbit-batch":
    import orbit_batch

    orbit_batch.setup()
else:
    import koopcascade.cli  # noqa: F401

print("ready", flush=True)

import calibration  # noqa: E402

print(calibration.probe(), flush=True)
