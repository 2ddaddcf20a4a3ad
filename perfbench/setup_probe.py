"""Set-up probe, run in a fresh process: import the library, then one warm-up round.

Usage: python3 setup_probe.py SRC_DIR WORKLOAD SEED OUT_DIR
Prints the seconds from before the first import to the end of the warm-up.
"""

import sys
import time

start = time.perf_counter()
src, workload, seed, out_dir = sys.argv[1:5]
sys.path.insert(0, src)

import workloads  # noqa: E402  (imports numpy, scipy and cyclonet)

workloads.WORKLOADS[workload](out_dir).warmup(int(seed))
print(repr(time.perf_counter() - start))
