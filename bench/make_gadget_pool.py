"""Regenerate bench/gadget_pool.json: the solver verdict of every planted
path gadget the gadget-solve workload may draw.

The workload draws two unsatisfiable gadgets for every satisfiable one, so
each run proves the same share of deep UNSAT cases whatever its seed; this
table says which instance seeds fall on which side.  The verdicts double as
known answers: the benchmark fails an item whose verdict differs from the
table.

Run from the repository root:  python3 bench/make_gadget_pool.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from matpart import constructions, solver  # noqa: E402

N_VALUES = (10, 11, 12)
M_VALUES = (1, 2, 3, 4)
SEEDS_PER_CELL = 400
NODE_LIMIT = 200_000


def main() -> int:
    cells = {}
    for n in N_VALUES:
        for m in M_VALUES:
            sat, unsat = [], []
            for seed in range(SEEDS_PER_CELL):
                inst = constructions.build_planted_obstruction(n, m, seed)
                result = solver.find_embedding(
                    inst.graph, inst.tau, solver.SolverConfig(node_limit=NODE_LIMIT)
                )
                if result.status == solver.SAT:
                    sat.append(seed)
                elif result.status == solver.UNSAT:
                    unsat.append(seed)
                else:
                    raise SystemExit(f"node limit hit at n={n} m={m} seed={seed}")
            cells[f"{n},{m}"] = {"sat": sat, "unsat": unsat}
            print(f"n={n} m={m}: {len(unsat)} unsat, {len(sat)} sat", flush=True)
    pool = {"node_limit": NODE_LIMIT, "cells": cells}
    out = Path(__file__).resolve().parent / "gadget_pool.json"
    out.write_text(json.dumps(pool, indent=1) + "\n", encoding="ascii")
    return 0


if __name__ == "__main__":
    sys.exit(main())
