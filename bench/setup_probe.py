"""Time ``import polycond`` plus one workload's input set-up in a fresh
interpreter and print the seconds taken.

    python3 bench/setup_probe.py WORKLOAD SEED [--smoke]

Run from the root of a checkout; run.py starts it several times per run and
reports the median as ``setup_s``.
"""

import time

_start = time.perf_counter()

import sys  # noqa: E402

sys.path.insert(0, "src")

import workloads  # noqa: E402  (imports NumPy and polycond inside the timed region)

workloads.make(sys.argv[1], int(sys.argv[2]), "--smoke" in sys.argv[3:])
print(time.perf_counter() - _start)
