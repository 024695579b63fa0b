"""Compare the two embedding-search cores on planted path gadgets.

Runs ListSearch (solver._list_search) and the batched core
(solver._bitset_search) without a node limit on the planted m = 4 gadgets
in GADGETS, and prints one line per gadget: whether the two SearchResults
are equal, the result, and each core's seconds and nodes per second.  The
core's time is the least of REPEAT runs; ListSearch runs once.  The
whole run takes about 20 s on a 2-vCPU Xeon.

Usage, from the root of a checkout:

    python3 tools/compare_cores.py

The exit status is 1 when any two results differ.
"""

from __future__ import annotations

import os
import platform
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
M = 4
# (n, seed) of each gadget, fixed before any was run
GADGETS = [(20, 0), (20, 1), (24, 0), (24, 1), (28, 0)]
REPEAT = 3


def timed(search, repeat: int):
    best = None
    for _ in range(repeat):
        start = time.perf_counter()
        result = search()
        seconds = time.perf_counter() - start
        best = seconds if best is None else min(best, seconds)
    return result, best


def main() -> int:
    sys.path.insert(0, str(SRC))
    import numpy as np

    from matpart import solver
    from matpart.constructions import build_planted_obstruction

    print(f"python={platform.python_version()} numpy={np.__version__} "
          f"platform={platform.platform()} cpus={os.cpu_count()}")
    differ = 0
    for n, seed in GADGETS:
        inst = build_planted_obstruction(n, M, seed)
        relation, rows = solver._relation(inst.graph), inst.tau.hom_rows
        expected, list_s = timed(lambda: solver._list_search(relation, rows, None), 1)
        result, core_s = timed(lambda: solver._bitset_search(relation, rows, None), REPEAT)
        equal = result == expected
        differ += not equal
        print(
            f"n={n} m={M} seed={seed} vertices={inst.graph.n} targets={inst.tau.n} "
            f"equal={str(equal).lower()} status={expected.status} nodes={expected.nodes} "
            f"depth={expected.depth} list_s={list_s:.3f} core_s={core_s:.3f} "
            f"list_nodes_per_s={expected.nodes / list_s:.3g} "
            f"core_nodes_per_s={result.nodes / core_s:.3g}",
            flush=True,
        )
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
