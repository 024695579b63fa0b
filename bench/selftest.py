"""Self-tests of the benchmark harness itself.

    python3 bench/selftest.py

1. The tracer replaces every binding of every wrapped function (defining
   module, package re-export and each `from .x import y` copy) and puts the
   originals back afterwards.
2. Wrapped-call counts equal counts known exactly in advance on tiny
   inputs, so no binding that the program calls through was missed.
3. The deterministic counters and the output digest repeat exactly across
   two traced runs of the same seed, for every workload.
4. BENCHMARK.json names the metrics, units and workloads the harness prints.

Exits 0 when every test passes, 1 otherwise.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import run
import tracer
import workloads

ROOT = run.ROOT

# Bipartite graphs on k vertices up to isomorphism, k = 0..4 (OEIS A033995).
BIPARTITE_CLASSES = (1, 1, 2, 3, 7)


def check(ok: bool, label: str, failures: list[str]) -> None:
    print(f"{'PASS' if ok else 'FAIL'}  {label}")
    if not ok:
        failures.append(label)


def parent_name(t: tracer.Tracer, i: int) -> str:
    p = t.parent[i]
    return t.names[t.name[p]] if p >= 0 else "-"


def test_bindings(mp, failures):
    modules = [mp] + [getattr(mp, layer) for layer in tracer.LAYERS]
    before = {(m.__name__, a): o for m in modules for a, o in vars(m).items()}
    t = tracer.Tracer(mp)
    originals = {id(fn) for fn in t.originals.values()}
    with t:
        left = [
            f"{m.__name__}.{a}"
            for m in modules
            for a, o in vars(m).items()
            if id(o) in originals
        ]
        check(not left, f"no unwrapped binding left ({left[:5]})", failures)
        patched = set(t.patched_bindings())
        for binding in (
            ("matpart.constructions", "sample_type"),
            ("matpart.cli", "find_subtype_copy"),
            ("matpart.randtypes", "find_subtype_copy"),
            ("matpart.solver", "is_embedding"),
            ("matpart.constructions", "is_embedding"),
            ("matpart.cli", "is_embedding"),
            ("matpart", "find_embedding"),
        ):
            check(binding in patched, f"binding {'.'.join(binding)} patched", failures)
    after = {(m.__name__, a): o for m in modules for a, o in vars(m).items()}
    restored = before.keys() == after.keys() and all(before[k] is after[k] for k in before)
    check(restored, "every binding restored after uninstall", failures)


def traced(mp, fn):
    t = tracer.Tracer(mp)
    with t:
        t.current_item = 0
        t.recording = True
        try:
            result = fn()
        finally:
            t.recording = False
    return t, result


def test_exact_counts(mp, failures):
    model, solver, rt, c = mp.model, mp.solver, mp.randtypes, mp.constructions
    two_colouring = model.type_from_matrix(model.coloring_matrix(2))

    t, graphs = traced(mp, lambda: mp.solver.enumerate_minimal_obstructions(two_colouring, 5))
    for k in range(1, 6):
        want = BIPARTITE_CLASSES[k - 1] * 2 ** (k - 1)
        got = len(t.spans(f"solver.canonical_code.n{k}"))
        check(got == want, f"2-colouring to 5: canonical calls at n={k} {got} == {want}", failures)
    check(sorted(g.n for g in graphs) == [3, 5], "2-colouring obstructions are C3 and C5", failures)

    t, _ = traced(mp, lambda: mp.constructions.build_planted_obstruction(10, 1, 0))
    st = t.spans("randtypes.sample_type")
    check(len(st) == 1 and parent_name(t, st[0]) == "constructions.build_planted_obstruction",
          "constructions.sample_type: 1 call under build_planted_obstruction", failures)
    sa = t.spans("randtypes._sample_arrays")
    check(len(sa) == 1 and parent_name(t, sa[0]) == "randtypes.sample_type",
          "randtypes._sample_arrays: 1 call under sample_type", failures)

    prop = rt.MCProperty(kind="contains_rho", model="general", rho="thm3")
    t, _ = traced(mp, lambda: mp.randtypes.monte_carlo(prop, [12], range(3)))
    fs = t.spans("model.find_subtype_copy")
    check(len(fs) == 3 and all(parent_name(t, i) == "randtypes.monte_carlo" for i in fs),
          "randtypes.find_subtype_copy: 3 calls under monte_carlo", failures)

    triangle = model.SimpleGraph.complete(3)
    t, found = traced(mp, lambda: mp.solver.brute_force_has_embedding(triangle, two_colouring))
    check(not found and len(t.spans("model.is_embedding")) == 2**3,
          "solver.is_embedding: 8 calls for the triangle into 2-colouring", failures)

    inst = c.build_planted_obstruction(10, 2, 0)
    t, unsat = traced(mp, lambda: mp.constructions.restricted_placement_unsat(inst))
    check(unsat and len(t.spans("model.is_embedding")) == 4**2,
          "constructions.is_embedding: 16 calls for m=2 restricted placements", failures)

    with tempfile.TemporaryDirectory(dir=run.OUT_DIR) as work:
        wl = workloads.CliFiles(mp, 0, Path(work))
        item = wl.make_item(0)
        wl.stage(item)
        t, out = traced(mp, lambda: wl.run(item))
        check(not wl.check(item, out), "cli-files item passes its checks", failures)
    mains = [t.names[t.name[i]] for i in t.spans("cli.main")]
    check(mains == ["cli.main:gen-type", "cli.main:check-friendly", "cli.main:lemma",
                    "cli.main:gen-type", "cli.main:reduce"], "cli: 5 commands in order", failures)
    fs = t.spans("model.find_subtype_copy")
    check(len(fs) == 1 and parent_name(t, fs[0]) == "cli.main:reduce",
          "cli.find_subtype_copy: 1 call under reduce", failures)
    parents = sorted(parent_name(t, i) for i in t.spans("model.is_embedding"))
    check(parents == ["cli.main:reduce", "constructions.extend_embedding"],
          "cli.is_embedding and constructions.is_embedding: 1 call each", failures)
    check(len(t.spans("randtypes.sample_type")) == 2, "cli: 2 sample_type calls", failures)
    check(len(t.spans("textio.parse_matrix")) == 3, "cli: 3 parse_matrix calls", failures)


def test_determinism(mp, failures):
    for name, cls in workloads.WORKLOADS.items():
        seen = []
        for _ in range(2):
            with tempfile.TemporaryDirectory(dir=run.OUT_DIR) as work:
                wl = cls(mp, 7, Path(work))
                wl.warm_up()
                t = tracer.Tracer(mp)
                runs = [run.run_one(wl, k, check=True, trace=t) for k in range(wl.count_items)]
                hashes = [h for _, _, h, _ in runs]
                failed = [problems for _, _, _, problems in runs if problems]
                seen.append((tracer.counters(t, wl.count_items), run.digest(hashes, wl.count_items), failed))
        (c1, d1, f1), (c2, d2, f2) = seen
        check(not f1 and not f2, f"{name}: no failed item", failures)
        check(c1 == c2 and d1 == d2, f"{name}: counters and digest repeat ({c1})", failures)


def test_benchmark_json(failures):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    check([w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS),
          "BENCHMARK.json workloads", failures)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    check(e2e == run.E2E_UNITS, "BENCHMARK.json end_to_end names and units", failures)
    layer = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    want = [(name, unit, better) for name, unit, better, _ in tracer.LAYER_METRICS]
    check(layer == want, "BENCHMARK.json per_layer names, units and directions", failures)


def main() -> int:
    run.OUT_DIR.mkdir(exist_ok=True)
    mp = workloads.load_matpart(ROOT)
    failures: list[str] = []
    test_benchmark_json(failures)
    test_bindings(mp, failures)
    test_exact_counts(mp, failures)
    test_determinism(mp, failures)
    print(f"{len(failures)} failed" if failures else "all passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
