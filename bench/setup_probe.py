"""One set-up sample: a fresh interpreter does everything a benchmark run
does before its first timed item, then prints the monotonic clock and the
CPU time of the reference loop (workloads.reference_s).

Usage: python3 bench/setup_probe.py <checkout root> <workload> <work dir>
"""

import sys
import time
from pathlib import Path

import workloads

workloads.prepare(sys.argv[2], Path(sys.argv[1]), seed=0, workdir=Path(sys.argv[3]))
ready = time.clock_gettime(time.CLOCK_MONOTONIC)
print(repr(ready), repr((workloads.reference_s() + workloads.reference_s()) / 2))
