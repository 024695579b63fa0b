"""The four benchmark workloads.

Each workload turns (seed, item index) into one item's inputs, runs the item
through matpart's public API, checks the outputs independently, and reduces
them to a record that goes into the run's output digest.  Program functions
are always looked up as module attributes at call time, so the tracer's
wrappers see every call.

Why these four (each stresses a layer the others leave idle):
  mc-lemma          randtypes does nearly all the work, solver none; sampling,
                    the TypeGraph build and both lemma tuple paths show apart.
  gadget-solve      deep SAT and UNSAT searches: solver nodes/s dominates.
  obstruction-enum  thousands of tiny solver calls (per-call overhead) and the
                    only caller of canonical_code.
  cli-files         textio, cli and the matrix<->type conversions of model,
                    which nothing else measures.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import random
import sys
import time
from fractions import Fraction
from pathlib import Path

from tracer import LAYERS

BENCH_DIR = Path(__file__).resolve().parent


class SetupError(Exception):
    """The checkout does not hold a matpart package to benchmark."""


def load_matpart(root: Path):
    """Import matpart from the checkout's src/ (never from anywhere else)."""
    src = (root / "src").resolve()
    if not (src / "matpart" / "__init__.py").is_file():
        raise SetupError(f"no matpart package under {src}")
    sys.path.insert(0, str(src))
    import matpart

    if Path(matpart.__file__).resolve().parent != src / "matpart":
        raise SetupError(f"matpart imported from {matpart.__file__}, not from {src}")
    for layer in LAYERS:
        importlib.import_module(f"matpart.{layer}")
    return matpart


def reference_s() -> float:
    """CPU seconds taken by a fixed pure-Python loop that touches no matpart
    code.

    The host's speed drifts by up to 2x over seconds to minutes.  Timed
    right before and after an item, this loop is the unit ("ref") in which
    the end-to-end metrics express the item's CPU time, so the drift
    cancels; CPU time also leaves out the moments the host deschedules the
    thread.
    """
    t0 = time.thread_time()
    total = 0
    for i in range(25_000):
        total += i * i % 7
    return time.thread_time() - t0


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class Workload:
    name = ""
    # Items every run completes; counters and the digest cover exactly these.
    count_items = 0

    def __init__(self, mp, seed: int, workdir: Path):
        self.mp = mp
        self.seed = seed
        self.workdir = workdir

    def rng(self, k: int) -> random.Random:
        return random.Random(f"{self.name}-{self.seed}-{k}")

    def warm_up(self) -> None:
        """Fill the program's lazy caches that this workload uses."""

    def make_item(self, k: int) -> dict:
        raise NotImplementedError

    def stage(self, item: dict) -> None:
        """Write the item's input files (untimed)."""

    def run(self, item: dict):
        raise NotImplementedError

    def check(self, item: dict, out) -> list[str]:
        """Problems found in the outputs; empty when all checks pass."""
        raise NotImplementedError

    def record(self, item: dict, out) -> str:
        """Canonical text of the item's outputs for the digest."""
        raise NotImplementedError


# ---------------------------------------------------------------------------


class McLemma(Workload):
    """One seed's Monte Carlo trial: friendly nsize (1000 tuples), then
    general nsize3 (200 tuples), both at n=200."""

    name = "mc-lemma"
    count_items = 12
    N = 200

    def make_item(self, k):
        return {"seed": self.rng(k).randrange(2**31)}

    def run(self, item):
        rt = self.mp.randtypes
        s = item["seed"]
        tau_f = rt.sample_type(rt.RandomSpec(self.N, "friendly", s))
        rep_f = rt.check_neighborhood_lemma(tau_f, "nsize", "sampled", samples=1000, seed=s)
        tau_g = rt.sample_type(rt.RandomSpec(self.N, "general", s))
        rep_g = rt.check_neighborhood_lemma(tau_g, "nsize3", "sampled", samples=200, seed=s)
        return tau_f, rep_f, tau_g, rep_g

    def _size(self, tau, *sets) -> int:
        cn = self.mp.model.common_neighborhood
        return len(frozenset.intersection(*(cn(tau, s) for s in sets)))

    def check(self, item, out):
        tau_f, rep_f, tau_g, rep_g = out
        problems = []
        r1, r2, b1, b2 = rep_f.worst_i
        if self._size(tau_f, (r1, r2), (b1, b2)) != rep_f.worst_i_size:
            problems.append("nsize part-i witness size")
        r1, r2, b1, b2, v, w = rep_f.worst_ii
        if self._size(tau_f, (r1, r2), (b1, b2), (v, w)) != rep_f.worst_ii_size:
            problems.append("nsize part-ii witness size")
        if self._size(tau_g, rep_g.worst_i) != rep_g.worst_i_size:
            problems.append("nsize3 part-i witness size")
        if self._size(tau_g, rep_g.worst_ii) != rep_g.worst_ii_size:
            problems.append("nsize3 part-ii witness size")
        for rep, samples in ((rep_f, 1000), (rep_g, 200)):
            if rep.samples != samples:
                problems.append(f"{rep.lemma_id} checked {rep.samples} tuples")
            if rep.part_i_holds != (Fraction(rep.worst_i_size) >= rep.threshold_i * rep.scale):
                problems.append(f"{rep.lemma_id} part-i verdict")
            if rep.part_ii_holds != (Fraction(rep.worst_ii_size) <= rep.threshold_ii * rep.scale):
                problems.append(f"{rep.lemma_id} part-ii verdict")
        return problems

    def record(self, item, out):
        _, rep_f, _, rep_g = out
        fields = lambda r: (  # noqa: E731
            r.lemma_id, r.part_i_holds, r.worst_i, r.worst_i_size,
            r.part_ii_holds, r.worst_ii, r.worst_ii_size,
        )
        return repr((item["seed"], fields(rep_f), fields(rep_g)))


# ---------------------------------------------------------------------------


class GadgetSolve(Workload):
    """Planted path gadgets, three per item: one each at n = 10, 11 and 12
    for the same m.  Each is built, every broken-path map is validated with
    is_embedding, the 4^m restricted placements are walked, and the complete
    solver runs.

    Items come in seeded blocks of 12 that cover every m in 1..4 with the
    satisfiable gadget at each n once; the other two gadgets of an item are
    ones the pool marks unsatisfiable.  Fixing this mix of deep UNSAT proofs
    and quick SAT finds keeps a 20 s run repeatable across seeds, while the
    seed still picks the instances and their order.
    """

    name = "gadget-solve"
    count_items = 12
    N_VALUES = (10, 11, 12)

    def __init__(self, mp, seed, workdir):
        super().__init__(mp, seed, workdir)
        pool = json.loads((BENCH_DIR / "gadget_pool.json").read_text(encoding="ascii"))
        self.node_limit = pool["node_limit"]
        self.pool = pool["cells"]

    def make_item(self, k):
        block = [(m, sat_n) for m in (1, 2, 3, 4) for sat_n in self.N_VALUES]
        random.Random(f"{self.name}-{self.seed}-block{k // len(block)}").shuffle(block)
        m, sat_n = block[k % len(block)]
        rng = self.rng(k)
        parts = []
        for n in self.N_VALUES:
            expect = "sat" if n == sat_n else "unsat"
            parts.append((n, m, rng.choice(self.pool[f"{n},{m}"][expect]), expect))
        return {"parts": parts}

    def run(self, item):
        c, s, model = self.mp.constructions, self.mp.solver, self.mp.model
        outs = []
        for n, m, seed, _ in item["parts"]:
            inst = c.build_planted_obstruction(n, m, seed)
            broken = tuple(
                model.is_embedding(
                    inst.graph.delete_vertex(inst.x_index(i)),
                    inst.tau,
                    c.broken_path_embedding(inst, i),
                )
                for i in range(1, inst.m + 1)
            )
            restricted = c.restricted_placement_unsat(inst)
            result = s.find_embedding(
                inst.graph, inst.tau, s.SolverConfig(node_limit=self.node_limit)
            )
            outs.append((inst, broken, restricted, result))
        return outs

    def check(self, item, out):
        s = self.mp.solver
        problems = []
        for (n, m, seed, expect), (inst, broken, restricted, result) in zip(item["parts"], out):
            at = f"n={n} m={m} seed={seed}: "
            if not all(broken):
                problems.append(at + "a broken-path map is not an embedding")
            if result.status == s.UNKNOWN:
                problems.append(at + "limit-exceeded")
            elif result.status != {"sat": s.SAT, "unsat": s.UNSAT}[expect]:
                problems.append(at + f"verdict {result.status}, pool says {expect}")
            if result.status == s.SAT and not self.mp.model.is_embedding(
                inst.graph, inst.tau, result.map
            ):
                problems.append(at + "SAT map is not an embedding")
            if not restricted and result.status == s.UNSAT:
                problems.append(at + "a restricted placement embeds but the solver says UNSAT")
        return problems

    def record(self, item, out):
        return repr([
            (part, broken, restricted, result.status, result.map)
            for part, (_, broken, restricted, result) in zip(item["parts"], out)
        ])


# ---------------------------------------------------------------------------


class ObstructionEnum(Workload):
    """Minimal obstructions up to 6 vertices of three seeded random
    symmetric {0,1,*} matrices per item, of orders 2, 3 and 4.  One matrix
    takes 4-170 ms depending on its entries; three of different orders make
    items alike enough for a steady median."""

    name = "obstruction-enum"
    count_items = 8
    MAX_N = 6

    def warm_up(self):
        for n in range(2, self.MAX_N + 1):
            self.mp.solver.canonical_code(self.mp.model.SimpleGraph.empty(n))

    def make_item(self, k):
        rng = self.rng(k)
        matrices = []
        for order in (2, 3, 4):
            rows = [[0] * order for _ in range(order)]
            for i in range(order):
                rows[i][i] = rng.randrange(2)
                for j in range(i + 1, order):
                    rows[i][j] = rows[j][i] = rng.randrange(3)
            matrices.append(rows)
        return {"matrices": matrices}

    def run(self, item):
        model, solver = self.mp.model, self.mp.solver
        outs = []
        for rows in item["matrices"]:
            tau = model.type_from_matrix(model.PartitionMatrix.from_rows(rows))
            outs.append((tau, solver.enumerate_minimal_obstructions(tau, self.MAX_N)))
        return outs

    def check(self, item, out):
        s = self.mp.solver
        problems = []
        for tau, graphs in out:
            for g in graphs:
                if not s.is_minimal_obstruction(g, tau):
                    problems.append(f"not a minimal obstruction: {sorted(g.edges)}")
                elif s.brute_force_has_embedding(g, tau):
                    problems.append(f"brute force embeds {sorted(g.edges)}")
                elif not all(
                    s.brute_force_has_embedding(g.delete_vertex(v), tau) for v in range(g.n)
                ):
                    problems.append(f"brute force finds a deletion without embedding: {sorted(g.edges)}")
        return problems

    def record(self, item, out):
        return repr([
            (rows, [(g.n, sorted(g.edges)) for g in graphs])
            for rows, (_, graphs) in zip(item["matrices"], out)
        ])


# ---------------------------------------------------------------------------


class CliFiles(Workload):
    """One seed's chain of in-process CLI calls on files in a work directory:
    gen-type (friendly, n=200), check-friendly, lemma nsize on that file,
    gen-type (general, n=300, planted thm3), reduce --verify on a seeded
    3-colourable graph of 8-12 vertices."""

    name = "cli-files"
    count_items = 6

    def make_item(self, k):
        rng = self.rng(k)
        order = rng.randint(8, 12)
        colour = [rng.randrange(3) for _ in range(order)]
        edges = [
            (u, v)
            for u in range(order)
            for v in range(u + 1, order)
            if colour[u] != colour[v] and rng.random() < 0.5
        ]
        return {"seed": rng.randrange(2**31), "order": order, "edges": edges}

    def _path(self, name: str) -> str:
        return str(self.workdir / name)

    def stage(self, item):
        self.workdir.mkdir(parents=True, exist_ok=True)
        lines = [f"{item['order']} {len(item['edges'])}"]
        lines += [f"{u} {v}" for u, v in item["edges"]]
        Path(self._path("input.graph")).write_text("\n".join(lines) + "\n", encoding="ascii")

    def commands(self, item):
        s = str(item["seed"])
        friendly, general = self._path("friendly.type"), self._path("general.type")
        return [
            ["gen-type", "--n", "200", "--model", "friendly", "--seed", s, "--out", friendly],
            ["check-friendly", "--matrix", friendly],
            ["lemma", "--which", "nsize", "--type-file", friendly],
            ["gen-type", "--n", "300", "--model", "general", "--seed", s,
             "--plant", "thm3", "--out", general],
            ["reduce", "--verify", "--graph", self._path("input.graph"), "--type", general],
        ]

    def run(self, item):
        results = []
        for argv in self.commands(item):
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = self.mp.cli.main(argv)
            results.append((argv[0], code, stdout.getvalue(), stderr.getvalue()))
        return results

    @staticmethod
    def _fields(stdout: str) -> dict[str, str]:
        return dict(line.split("=", 1) for line in stdout.splitlines() if "=" in line)

    def check(self, item, out):
        mp = self.mp
        problems = [f"{cmd} exited {code}: {err.strip()}" for cmd, code, _, err in out if code != 0]
        if problems:
            return problems
        s = item["seed"]
        friendly = mp.textio.parse_type(Path(self._path("friendly.type")).read_text(encoding="ascii"))
        if friendly != mp.randtypes.sample_type(mp.randtypes.RandomSpec(200, "friendly", s)):
            problems.append("friendly type file differs from sample_type(spec)")
        if self._fields(out[1][2]).get("friendly") != "true":
            problems.append("check-friendly did not report friendly=true")
        lemma = self._fields(out[2][2])
        cn = mp.model.common_neighborhood
        r1, r2, b1, b2 = (int(x) for x in lemma["part_i_worst"].split())
        if len(cn(friendly, (r1, r2)) & cn(friendly, (b1, b2))) != int(lemma["part_i_worst_size"]):
            problems.append("lemma part-i witness size")
        r1, r2, b1, b2, v, w = (int(x) for x in lemma["part_ii_worst"].split())
        size = len(cn(friendly, (r1, r2)) & cn(friendly, (b1, b2)) & cn(friendly, (v, w)))
        if size != int(lemma["part_ii_worst_size"]):
            problems.append("lemma part-ii witness size")
        problems += self._check_planted(item, out[3][2])
        if self._fields(out[4][2]).get("verified") != "true":
            problems.append("reduce did not report verified=true")
        return problems

    def _check_planted(self, item, stdout) -> list[str]:
        """The planted file equals the sampled type except that the planted
        triple is red with pairwise green edges."""
        mp = self.mp
        planted = mp.textio.parse_type(Path(self._path("general.type")).read_text(encoding="ascii"))
        base = mp.randtypes.sample_type(mp.randtypes.RandomSpec(300, "general", item["seed"]))
        at = [int(x) for x in self._fields(stdout)["planted_at"].split()]
        if planted.vertex_colors != base.vertex_colors:
            return ["planted type changed vertex colours"]
        if any(planted.vertex_colors[v] != mp.model.RED for v in at):
            return ["planted triple is not red"]
        for i in range(planted.n):
            for j in range(i + 1, planted.n):
                inside = i in at and j in at
                want = mp.model.GREEN if inside else base.edge(i, j)
                if planted.edge(i, j) != want:
                    return [f"planted type edge ({i},{j}) is {planted.edge(i, j)}, want {want}"]
        return []

    def record(self, item, out):
        work = str(self.workdir)
        files = [
            sha(Path(self._path(name)).read_text(encoding="ascii"))
            for name in ("friendly.type", "general.type")
        ]
        return repr(([(cmd, code, stdout.replace(work, "<work>")) for cmd, code, stdout, _ in out], files))


WORKLOADS = {w.name: w for w in (McLemma, GadgetSolve, ObstructionEnum, CliFiles)}


def prepare(name: str, root: Path, seed: int, workdir: Path) -> Workload:
    """Everything that happens before the first timed item: import matpart,
    build the workload's input generator, and warm the program's caches."""
    mp = load_matpart(root)
    workload = WORKLOADS[name](mp, seed, workdir)
    workload.warm_up()
    return workload
