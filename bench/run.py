"""matpart benchmark: one seeded workload, timed end to end or traced per layer.

Usage, from the root of a checkout:

    python3 bench/run.py --workload mc-lemma --seed 1 --seconds 20 --trace 0

Load is one process on one thread (numpy/BLAS threads pinned to 1) in a
closed loop: the next item starts when the previous one and its output
checks have finished.  Only the items themselves are timed; `--seconds` is
the timed budget.  Every item's outputs are checked independently and a
failed item counts against `success_rate`.

--trace 0  prints the end-to-end metrics: setup_s (median of fresh
           interpreters doing the whole pre-item set-up, scaled to a host of
           nominal reference speed), items_per_kref,
           item_p50_ref, item_tail_ref, success_rate, peak_rss_mb.  Item
           costs are CPU time in "ref", the CPU time of a fixed pure-Python
           loop timed next to each item, because the host's own speed drifts
           by up to 2x; the wall-clock items_per_s, item_p50_ms and
           item_tail_ms are printed beside them.
--trace 1  runs each item untraced and then with every matpart function
           wrapped, for half the budget of untraced time, and prints the
           per-layer metrics of tracer.LAYER_METRICS plus the tracing
           overhead.  Both runs of an item must give identical outputs.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics.  A result file with the environment, per-item
latencies, the output digest and (traced) the counters and spans goes to
bench/out/.  The exit status is 0 when every check passed, 1 when one
failed, and 2 when there is nothing to benchmark.
"""

from __future__ import annotations

import argparse
import csv
import gzip
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer
import workloads

BENCH_DIR = workloads.BENCH_DIR
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

THREAD_PINS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}
SETUP_SAMPLES = 5
# Reference-loop CPU time on the host the benchmark was defined on; setup_s
# is reported as seconds on a host of that speed.
REF_NOMINAL_S = 0.002
WALL_CAP_S = 140.0  # stop starting items here so a run ends well within 180 s

E2E_UNITS = {
    "setup_s": "s",
    "items_per_kref": "1/kref",
    "item_p50_ref": "ref",
    "item_tail_ref": "ref",
    "success_rate": "ratio",
    "peak_rss_mb": "MB",
}


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def git_commit(root: Path) -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(args, mp) -> dict:
    import numpy

    return {
        "cpu_model": cpu_model(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "matpart": getattr(mp, "__version__", "unknown"),
        "platform": platform.platform(),
        "git_commit": git_commit(ROOT),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "thread_pinning": {k: os.environ.get(k) for k in THREAD_PINS},
        "load": "closed loop, 1 process, 1 thread",
    }


def measure_setup(workload: str, workdir: Path) -> tuple[list[float], list[float]]:
    """Time from spawning a fresh interpreter until it could start the first
    timed item, once per sample: wall seconds, and the same scaled to a host
    whose reference loop takes REF_NOMINAL_S (the drift correction the item
    costs get, kept in seconds)."""
    probe = BENCH_DIR / "setup_probe.py"
    wall, scaled = [], []
    for _ in range(SETUP_SAMPLES):
        t0 = monotonic()
        proc = subprocess.run(
            [sys.executable, str(probe), str(ROOT), workload, str(workdir)],
            capture_output=True,
            text=True,
            timeout=60,
        )
        if proc.returncode != 0:
            raise workloads.SetupError(f"set-up probe failed: {proc.stderr.strip()}")
        ready, ref = (float(x) for x in proc.stdout.split()[-2:])
        wall.append(ready - t0)
        scaled.append((ready - t0) * REF_NOMINAL_S / ref)
    return wall, scaled


def run_one(wl, k: int, check: bool, trace: tracer.Tracer | None = None):
    """Run item k once, traced when `trace` is given.  Returns its latency,
    its cost in reference loops (item CPU time over the mean of the loops
    timed just before and after it), the hash of its output record and the
    problems found (an item that raises is a failed item; `check` runs the
    output checks)."""
    item = wl.make_item(k)
    wl.stage(item)
    ref_before = workloads.reference_s()
    if trace is not None:
        trace.install()
        trace.current_item = k
        trace.recording = True
    t0, c0 = time.perf_counter(), time.thread_time()
    try:
        out = wl.run(item)
        error = None
    except Exception as exc:
        out, error = None, f"{type(exc).__name__}: {exc}"
    finally:
        dt, cpu = time.perf_counter() - t0, time.thread_time() - c0
        if trace is not None:
            trace.recording = False
            trace.uninstall()
    cost = cpu / ((ref_before + workloads.reference_s()) / 2)
    if error is not None:
        return dt, cost, workloads.sha(f"failed {error}"), [error]
    problems = wl.check(item, out) if check else []
    return dt, cost, workloads.sha(wl.record(item, out)), problems


def tail_point(lat: list[float]) -> tuple[float, float, int]:
    """Latency at the highest percentile with at least ten items beyond it:
    (latency, percentile, items beyond).  When that percentile would not lie
    above the median (twenty items or fewer), the slowest item instead, with
    the count beyond it."""
    ordered = sorted(lat)
    n = len(ordered)
    idx = n - 11
    if idx + 1 <= n / 2:
        return ordered[-1], 100.0, 0
    return ordered[idx], 100.0 * (idx + 1) / n, n - idx - 1


def digest(hashes: list[str], count: int) -> str:
    return workloads.sha("\n".join(hashes[:count]))


def write_spans(path: Path, t: tracer.Tracer, count_items: int) -> None:
    """Spans of the first `count_items` items, one CSV row each."""
    keep = [i for i in range(t.span_count()) if 0 <= t.item[i] < count_items]
    origin = t.start[keep[0]] if keep else 0.0
    with gzip.open(path, "wt", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["span", "item", "name", "layer", "parent", "start_us",
                         "end_us", "self_us", "value", "status"])
        for i in keep:
            writer.writerow([
                i, t.item[i], t.names[t.name[i]], t.layers[t.name[i]], t.parent[i],
                round((t.start[i] - origin) * 1e6, 3), round((t.end[i] - origin) * 1e6, 3),
                round(t.self_time[i] * 1e6, 3), t.value[i], t.status[i],
            ])


def end_to_end(args, wl, report: dict) -> tuple[dict, int, int]:
    """Closed loop until `--seconds` of item time and at least
    wl.count_items items.  Item costs are reported in reference loops; the
    plain wall-clock figures go to stdout and the result file beside them."""
    deadline = monotonic() + WALL_CAP_S
    lat: list[float] = []
    cost: list[float] = []
    hashes: list[str] = []
    failures: dict[int, list[str]] = {}
    while (sum(lat) < args.seconds or len(lat) < wl.count_items) and monotonic() < deadline:
        dt, c, h, problems = run_one(wl, len(lat), check=True)
        if problems:
            failures[len(lat)] = problems
        lat.append(dt)
        cost.append(c)
        hashes.append(h)
    attempted, failed = len(lat), len(failures)
    tail, pct, beyond = tail_point(cost)
    metrics = {
        "setup_s": statistics.median(report["setup_samples_s"]),
        "items_per_kref": (attempted - failed) / sum(cost) * 1e3,
        "item_p50_ref": statistics.median(cost),
        "item_tail_ref": tail,
        "success_rate": (attempted - failed) / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    wall_tail = tail_point(lat)[0]
    wall = {
        "setup_s": statistics.median(report["setup_wall_s"]),
        "items_per_s": (attempted - failed) / sum(lat),
        "item_p50_ms": statistics.median(lat) * 1e3,
        "item_tail_ms": wall_tail * 1e3,
        "ms_per_ref": statistics.median(l / c for l, c in zip(lat, cost)) * 1e3,
    }
    report.update(
        tail={"percentile": pct, "items": attempted, "items_beyond": beyond},
        wall_clock=wall,
        digest=digest(hashes, wl.count_items),
        latencies_ms=[x * 1e3 for x in lat],
        costs_ref=cost,
        failures=failures,
    )
    for name, value in wall.items():
        print(f"wall clock: {name} = {value}")
    print(f"item_tail_ref is p{pct:.2f} of {attempted} items ({beyond} beyond it)")
    return metrics, attempted, failed


def traced(args, wl, report: dict, spans_path: Path) -> tuple[dict, int, int]:
    """Each item runs untraced (with output checks), then traced right after,
    so both see the same host speed; the traced run must reproduce the
    untraced outputs.  Untraced time covers half the budget."""
    deadline = monotonic() + WALL_CAP_S
    t = tracer.Tracer(wl.mp)
    lat0: list[float] = []
    lat1: list[float] = []
    hashes: list[str] = []
    failures: dict[int, list[str]] = {}
    while (sum(lat0) < args.seconds / 2 or len(lat0) < wl.count_items) and monotonic() < deadline:
        k = len(lat0)
        dt0, _, h0, problems = run_one(wl, k, check=True)
        dt1, _, h1, problems1 = run_one(wl, k, check=False, trace=t)
        problems += problems1
        if h1 != h0:
            problems.append("traced outputs differ from untraced")
        if problems:
            failures[k] = problems
        lat0.append(dt0)
        lat1.append(dt1)
        hashes.append(h0)
    overhead = (sum(lat1) / sum(lat0) - 1.0) * 100.0
    metrics = tracer.layer_metrics(t, len(lat1), wl.count_items, overhead)
    write_spans(spans_path, t, wl.count_items)
    report.update(
        digest=digest(hashes, wl.count_items),
        counters=tracer.counters(t, wl.count_items),
        count_items=wl.count_items,
        latencies_ms={"untraced": [x * 1e3 for x in lat0], "traced": [x * 1e3 for x in lat1]},
        failures=failures,
        spans_file=spans_path.name,
        layer_map={name: moves for name, _, _, moves in tracer.LAYER_METRICS},
    )
    return metrics, len(lat0), len(failures)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    os.environ.update(THREAD_PINS)  # before numpy is first imported
    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"work-{args.workload}-{os.getpid()}"
    stamp = time.strftime("%Y%m%dT%H%M%SZ", time.gmtime())
    base = OUT_DIR / f"BENCH_{stamp}_{args.workload}_seed{args.seed}_trace{args.trace}_{os.getpid()}"
    report: dict = {}
    try:
        wl = workloads.prepare(args.workload, ROOT, args.seed, workdir)
        if not args.trace:
            report["setup_wall_s"], report["setup_samples_s"] = measure_setup(args.workload, workdir)
        report["environment"] = environment(args, wl.mp)
        if args.trace:
            metrics, attempted, failed = traced(args, wl, report, base.with_suffix(".spans.csv.gz"))
            units = {name: unit for name, unit, _, _ in tracer.LAYER_METRICS}
        else:
            metrics, attempted, failed = end_to_end(args, wl, report)
            units = E2E_UNITS
    except workloads.SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    report["result"] = result
    result_path = base.with_suffix(".json")
    result_path.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")

    for name, unit in units.items():
        print(f"{name} = {metrics[name]} {unit}")
    for k, problems in sorted(report["failures"].items())[:10]:
        print(f"FAILED item {k}: {'; '.join(problems)}")
    print(f"digest of the first {wl.count_items} items: {report['digest']}")
    print(f"environment: {json.dumps(report['environment'])}")
    print(f"result file: {result_path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
