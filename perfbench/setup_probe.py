"""Time one fresh set-up: import `gea` and build one workload's problems.

Run by run.py in a new interpreter; prints the seconds taken.
Usage: python3 perfbench/setup_probe.py <src dir> <workload> <seed>
"""

import sys
import time

start = time.perf_counter()
sys.path.insert(0, sys.argv[1])

import workloads  # noqa: E402  (imports numpy and gea: part of what is timed)

workloads.WORKLOADS[sys.argv[2]].build(int(sys.argv[3]))
print(time.perf_counter() - start)
