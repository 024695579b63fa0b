"""Spans around matpart's public functions, recorded from outside the package.

`Tracer.install()` replaces every binding of every wrapped function: the
attribute in its defining module, the re-export in the package, and each
`from .x import y` copy in the other modules.  `uninstall()` puts the
originals back.  A span records its name, start, end, parent span and item
id; self time is the span's duration minus the time covered by its child
spans.  Spans live in flat arrays so a traced run of a few hundred thousand
calls stays a few tens of megabytes.
"""

from __future__ import annotations

import functools
import inspect
import statistics
from array import array
from time import perf_counter

LAYERS = ("model", "solver", "randtypes", "constructions", "textio", "cli")

# Called once per TypeGraph.edge() lookup; a wrapper would cost more than the
# work it times and swamp every other span.
HOT_LEAVES = frozenset({"model.pair_index", "model.vertex_pairs"})
# Private functions that mark a layer boundary the metrics need.
PRIVATE_SPANS = frozenset({"randtypes._sample_arrays"})

UNSAT_STATUS = {"embeddable": 0, "no-embedding": 1, "limit-exceeded": 2}


def _first(args, kwargs, index, key):
    return args[index] if len(args) > index else kwargs[key]


def _canonical(args, kwargs, result):
    return f".n{_first(args, kwargs, 0, 'g').n}", result, 0


def _find_embedding(args, kwargs, result):
    return "", result.nodes, UNSAT_STATUS[result.status]


def _lemma(args, kwargs, result):
    return ":" + _first(args, kwargs, 1, "lemma_id"), result.samples, 0


def _parse(args, kwargs, result):
    return "", len(_first(args, kwargs, 0, "text")), 0


def _restricted(args, kwargs, result):
    return "", 4 ** _first(args, kwargs, 0, "instance").m, 0


def _cli_main(args, kwargs, result):
    argv = _first(args, kwargs, 0, "argv")
    return ":" + argv[0], result, 0


# qualified name -> f(args, kwargs, result) giving (name suffix, value, status)
ANNOTATE = {
    "solver.canonical_code": _canonical,
    "solver.find_embedding": _find_embedding,
    "randtypes.check_neighborhood_lemma": _lemma,
    "textio.parse_matrix": _parse,
    "constructions.restricted_placement_unsat": _restricted,
    "cli.main": _cli_main,
}


def wrapped_functions(package) -> dict[str, object]:
    """Qualified name -> original function, for every function the tracer wraps."""
    found = {}
    for layer in LAYERS:
        module = getattr(package, layer)
        for name, obj in vars(module).items():
            qual = f"{layer}.{name}"
            if not inspect.isfunction(obj) or obj.__module__ != module.__name__:
                continue
            if name.startswith("_") and qual not in PRIVATE_SPANS:
                continue
            # a wrapper around a generator function would time only its creation
            if qual in HOT_LEAVES or inspect.isgeneratorfunction(obj):
                continue
            found[qual] = obj
    return found


class Tracer:
    """Span recorder; spans are kept only while `recording` is true."""

    def __init__(self, package):
        self.package = package
        self.originals = wrapped_functions(package)
        self.names: list[str] = []
        self.layers: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.self_time = array("d")
        self.parent = array("i")
        self.item = array("i")
        self.value = array("q")
        self.status = array("b")
        self._stack: list[list] = []  # [span index, time covered by children]
        self.current_item = -1
        self.recording = False
        self._patches: list[tuple[object, str, object]] = []
        self._by_name: dict[int, list[int]] | None = None
        self._indexed = 0

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        wrappers = {
            id(fn): self._wrap(qual, fn) for qual, fn in self.originals.items()
        }
        modules = [self.package] + [getattr(self.package, l) for l in LAYERS]
        for module in modules:
            for attr, obj in list(vars(module).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._patches.append((module, attr, obj))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def patched_bindings(self) -> list[tuple[str, str]]:
        return [(module.__name__, attr) for module, attr, _ in self._patches]

    def _name_id(self, name: str) -> int:
        k = self._name_ids.get(name)
        if k is None:
            k = self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.layers.append(name.split(".", 1)[0])
        return k

    def _wrap(self, qual: str, fn):
        tracer = self
        annotate = ANNOTATE.get(qual)
        base_id = self._name_id(qual)
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            idx = len(tracer.start)
            tracer.name.append(base_id)
            tracer.parent.append(stack[-1][0] if stack else -1)
            tracer.item.append(tracer.current_item)
            tracer.value.append(0)
            tracer.status.append(-1)
            tracer.end.append(0.0)
            tracer.self_time.append(0.0)
            frame = [idx, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            tracer.start.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                tracer.end[idx] = t1
                tracer.self_time[idx] = dur - frame[1]
                if stack:
                    stack[-1][1] += dur
            if annotate is not None:
                suffix, value, status = annotate(args, kwargs, result)
                if suffix:
                    tracer.name[idx] = tracer._name_id(qual + suffix)
                tracer.value[idx] = value
                tracer.status[idx] = status
            return result

        return wrapper

    # -- queries --------------------------------------------------------

    def span_count(self) -> int:
        return len(self.start)

    def spans(self, prefix: str, items: int | None = None) -> list[int]:
        """Indices of spans whose name is `prefix` or starts with it plus '.'/':',
        optionally only those of items below `items`."""
        if self._by_name is None or self._indexed != len(self.start):
            self._by_name = {}
            for i, k in enumerate(self.name):
                self._by_name.setdefault(k, []).append(i)
            self._indexed = len(self.start)
        found = []
        for k, name in enumerate(self.names):
            if name == prefix or name.startswith((prefix + ".", prefix + ":")):
                found.extend(self._by_name.get(k, ()))
        if items is not None:
            found = [i for i in found if 0 <= self.item[i] < items]
        return sorted(found)


# ---------------------------------------------------------------------------
# per-layer metrics
#
# Each entry: name, unit, better, and the end-to-end metric and workload it
# should move (the prediction written before any change is measured).
# Timings are taken over every traced item; counts over the first
# `count_items` items of the run, so they repeat exactly for a seed.

LAYER_METRICS = [
    ("randtypes.sample_arrays_ms", "ms", "lower", "items_per_s on mc-lemma and cli-files; no change on obstruction-enum"),
    ("randtypes.sample_type_ms", "ms", "lower", "items_per_s on mc-lemma and cli-files; no change on obstruction-enum"),
    ("randtypes.color_matrix_ms", "ms", "lower", "items_per_s on mc-lemma and cli-files; no change on obstruction-enum"),
    ("randtypes.nsize_tuples_per_s", "1/s", "higher", "items_per_s and item_p50_ms on mc-lemma"),
    ("randtypes.nsize3_tuples_per_s", "1/s", "higher", "items_per_s and item_p50_ms on mc-lemma"),
    ("randtypes.tuples", "count", "higher", "items_per_s and item_p50_ms on mc-lemma"),
    ("randtypes.lemma_self_ms", "ms", "lower", "items_per_s and item_p50_ms on mc-lemma"),
    ("solver.find_embedding_calls", "count", "lower", "items_per_s, item_tail_ms, success_rate on gadget-solve"),
    ("solver.nodes", "count", "lower", "items_per_s, item_tail_ms, success_rate on gadget-solve"),
    ("solver.nodes_per_s", "1/s", "higher", "items_per_s, item_tail_ms, success_rate on gadget-solve"),
    ("solver.nodes_per_unsat_proof", "count", "lower", "items_per_s, item_tail_ms, success_rate on gadget-solve"),
    ("solver.limit_hits", "count", "lower", "items_per_s, item_tail_ms, success_rate on gadget-solve"),
    ("solver.call_us_p50", "us", "lower", "items_per_s on obstruction-enum (per-call set-up cost)"),
    ("solver.canonical_calls", "count", "lower", "items_per_s on obstruction-enum; no change on gadget-solve"),
    ("solver.canonical_calls.n5", "count", "lower", "items_per_s on obstruction-enum; no change on gadget-solve"),
    ("solver.canonical_calls.n6", "count", "lower", "items_per_s on obstruction-enum; no change on gadget-solve"),
    ("solver.canonical_us_per_call.n6", "us", "lower", "items_per_s on obstruction-enum; no change on gadget-solve"),
    ("solver.distinct_per_canonical", "ratio", "higher", "items_per_s on obstruction-enum; no change on gadget-solve"),
    ("solver.enum_self_ms", "ms", "lower", "items_per_s on obstruction-enum; no change on gadget-solve"),
    ("constructions.build_ms", "ms", "lower", "item_p50_ms on gadget-solve"),
    ("constructions.restricted_unsat_ms", "ms", "lower", "item_p50_ms on gadget-solve"),
    ("constructions.placements", "count", "lower", "item_p50_ms on gadget-solve"),
    ("constructions.reduction_ms", "ms", "lower", "items_per_s on cli-files"),
    ("model.is_embedding_calls", "count", "lower", "item_p50_ms on gadget-solve"),
    ("model.is_embedding_us", "us", "lower", "item_p50_ms on gadget-solve"),
    ("textio.serialize_type_ms", "ms", "lower", "items_per_s on cli-files; no change on mc-lemma"),
    ("textio.parse_type_ms", "ms", "lower", "items_per_s on cli-files; no change on mc-lemma"),
    ("textio.parse_mb_per_s", "MB/s", "higher", "items_per_s on cli-files; no change on mc-lemma"),
    ("model.matrix_from_type_ms", "ms", "lower", "items_per_s on cli-files; no change on mc-lemma"),
    ("model.type_from_matrix_ms", "ms", "lower", "items_per_s on cli-files; no change on mc-lemma"),
    ("model.block_row_ms", "ms", "lower", "items_per_s on cli-files; no change on mc-lemma"),
    ("model.find_subtype_copy_ms", "ms", "lower", "items_per_s on cli-files; no change on mc-lemma"),
    ("cli.gen-type_ms", "ms", "lower", "items_per_s on cli-files"),
    ("cli.check-friendly_ms", "ms", "lower", "items_per_s on cli-files"),
    ("cli.lemma_ms", "ms", "lower", "items_per_s on cli-files"),
    ("cli.reduce_ms", "ms", "lower", "items_per_s on cli-files"),
    ("model.self_ms", "ms", "lower", "items_per_s on every workload that uses model"),
    ("solver.self_ms", "ms", "lower", "items_per_s on gadget-solve and obstruction-enum"),
    ("randtypes.self_ms", "ms", "lower", "items_per_s on mc-lemma"),
    ("constructions.self_ms", "ms", "lower", "item_p50_ms on gadget-solve"),
    ("textio.self_ms", "ms", "lower", "items_per_s on cli-files"),
    ("cli.self_ms", "ms", "lower", "items_per_s on cli-files"),
    ("trace.items", "count", "higher", "base of the per-call timings"),
    ("trace.spans", "count", "lower", "base of trace.overhead_pct"),
    ("trace.overhead_pct", "%", "lower", "none: the cost of tracing itself"),
]


def _mean(values) -> float:
    return statistics.fmean(values) if values else 0.0


def layer_metrics(
    tracer: Tracer, traced_items: int, count_items: int, overhead_pct: float
) -> dict[str, float]:
    """Every LAYER_METRICS value from the spans; 0 where a layer is idle."""
    t = tracer
    dur = lambda i: t.end[i] - t.start[i]  # noqa: E731

    def mean_ms(prefix):
        return _mean([dur(i) for i in t.spans(prefix)]) * 1e3

    def mean_us(prefix):
        return _mean([dur(i) for i in t.spans(prefix)]) * 1e6

    def tuples_per_s(lemma):
        idx = t.spans(f"randtypes.check_neighborhood_lemma:{lemma}")
        busy = sum(t.self_time[i] for i in idx)
        return sum(t.value[i] for i in idx) / busy if busy else 0.0

    def layer_self_ms(layer):
        total = sum(
            t.self_time[i] for i in range(len(t.start)) if t.layers[t.name[i]] == layer
        )
        return total / traced_items * 1e3

    m: dict[str, float] = dict.fromkeys([name for name, _, _, _ in LAYER_METRICS], 0)
    counts = counters(t, count_items)
    for name in m.keys() & counts.keys():
        m[name] = counts[name]
    m["randtypes.sample_arrays_ms"] = mean_ms("randtypes._sample_arrays")
    m["randtypes.sample_type_ms"] = mean_ms("randtypes.sample_type")
    m["randtypes.color_matrix_ms"] = mean_ms("randtypes.color_matrix")
    m["randtypes.nsize_tuples_per_s"] = tuples_per_s("nsize")
    m["randtypes.nsize3_tuples_per_s"] = tuples_per_s("nsize3")
    m["randtypes.lemma_self_ms"] = (
        _mean([t.self_time[i] for i in t.spans("randtypes.check_neighborhood_lemma")])
        * 1e3
    )

    fe_all = t.spans("solver.find_embedding")
    fe_d = t.spans("solver.find_embedding", count_items)
    busy = sum(dur(i) for i in fe_all)
    m["solver.nodes_per_s"] = sum(t.value[i] for i in fe_all) / busy if busy else 0.0
    unsat = [t.value[i] for i in fe_d if t.status[i] == UNSAT_STATUS["no-embedding"]]
    m["solver.nodes_per_unsat_proof"] = _mean(unsat)
    m["solver.call_us_p50"] = (
        statistics.median(dur(i) for i in fe_all) * 1e6 if fe_all else 0.0
    )
    canon_d = t.spans("solver.canonical_code", count_items)
    m["solver.canonical_us_per_call.n6"] = mean_us("solver.canonical_code.n6")
    distinct = len({(t.parent[i], t.name[i], t.value[i]) for i in canon_d})  # per enumeration
    m["solver.distinct_per_canonical"] = distinct / len(canon_d) if canon_d else 0.0
    m["solver.enum_self_ms"] = (
        _mean([t.self_time[i] for i in t.spans("solver.enumerate_minimal_obstructions")])
        * 1e3
    )

    m["constructions.build_ms"] = mean_ms("constructions.build_planted_obstruction")
    m["constructions.restricted_unsat_ms"] = mean_ms(
        "constructions.restricted_placement_unsat"
    )
    m["constructions.reduction_ms"] = mean_ms("constructions.reduction_graph")
    m["model.is_embedding_us"] = mean_us("model.is_embedding")

    m["textio.serialize_type_ms"] = mean_ms("textio.serialize_type")
    m["textio.parse_type_ms"] = mean_ms("textio.parse_type")
    parse = t.spans("textio.parse_matrix")
    parse_s = sum(dur(i) for i in parse)
    m["textio.parse_mb_per_s"] = (
        sum(t.value[i] for i in parse) / parse_s / 1e6 if parse_s else 0.0
    )
    m["model.matrix_from_type_ms"] = mean_ms("model.matrix_from_type")
    m["model.type_from_matrix_ms"] = mean_ms("model.type_from_matrix")
    m["model.block_row_ms"] = mean_ms("model.block_row_distinctness")
    m["model.find_subtype_copy_ms"] = mean_ms("model.find_subtype_copy")

    for command in ("gen-type", "check-friendly", "lemma", "reduce"):
        m[f"cli.{command}_ms"] = mean_ms(f"cli.main:{command}")
    for layer in LAYERS:
        m[f"{layer}.self_ms"] = layer_self_ms(layer)

    m["trace.items"] = traced_items
    m["trace.spans"] = t.span_count()
    m["trace.overhead_pct"] = overhead_pct
    return m


def counters(tracer: Tracer, count_items: int) -> dict[str, int]:
    """Deterministic counters over the first `count_items` items."""
    t = tracer
    fe = t.spans("solver.find_embedding", count_items)
    canon = t.spans("solver.canonical_code", count_items)
    out = {
        "solver.nodes": sum(t.value[i] for i in fe),
        "solver.find_embedding_calls": len(fe),
        "solver.limit_hits": sum(
            1 for i in fe if t.status[i] == UNSAT_STATUS["limit-exceeded"]
        ),
        "solver.canonical_calls": len(canon),
        "randtypes.tuples": sum(
            t.value[i] for i in t.spans("randtypes.check_neighborhood_lemma", count_items)
        ),
        "constructions.placements": sum(
            t.value[i]
            for i in t.spans("constructions.restricted_placement_unsat", count_items)
        ),
        "model.is_embedding_calls": len(t.spans("model.is_embedding", count_items)),
    }
    for n in range(1, 9):
        k = len(t.spans(f"solver.canonical_code.n{n}", count_items))
        if k:
            out[f"solver.canonical_calls.n{n}"] = k
    return out
