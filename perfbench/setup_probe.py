"""Time, in a fresh interpreter, importing lqgduet and building one
workload's inputs.

Usage: python3 perfbench/setup_probe.py WORKLOAD SEED

The import goes through ``lqgduet.cli``, which pulls in the whole package
with numpy, scipy and click.  Prints one JSON line with ``setup_s`` (import
plus input build) and ``import_s`` (the import alone), both in seconds.
"""
import time

T0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import lqgduet.cli  # noqa: E402,F401

T1 = time.perf_counter()

import workloads  # noqa: E402

workloads.build(sys.argv[1], int(sys.argv[2]))
T2 = time.perf_counter()
print(json.dumps({"setup_s": T2 - T0, "import_s": T1 - T0}))
