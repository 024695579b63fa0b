"""Embedding search vs brute force, obstruction enumeration vs independent
exhaustive filters, canonical forms, and the fixed-point scan."""

import dataclasses
import json
import random
import tracemalloc
from collections import deque
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations, product
from pathlib import Path

import numpy as np
import pytest

from matpart.model import (
    BLUE,
    GREEN,
    RED,
    ListSearch,
    SimpleGraph,
    TypeGraph,
    coloring_matrix,
    rho_three_coloring,
    subtype,
    type_from_matrix,
    vertex_pairs,
)
from matpart.solver import (
    BATCH_BUDGET,
    BATCH_CHILDREN,
    MAX_BATCH_TARGETS,
    SAT,
    UNKNOWN,
    UNSAT,
    FixedPointReport,
    SearchResult,
    SolverConfig,
    _bitset_search,
    _list_search,
    _relation,
    brute_force_has_embedding,
    canonical_code,
    enumerate_edge_homomorphisms,
    enumerate_minimal_obstructions,
    find_embedding,
    graph_from_code,
    is_minimal_obstruction,
    min_fixed_points,
)
from matpart.constructions import build_planted_obstruction
from matpart.randtypes import RandomSpec, sample_type
from test_model import is_edge_homomorphism


def two_coloring_type():
    return type_from_matrix(coloring_matrix(2))


def three_coloring_type():
    return type_from_matrix(coloring_matrix(3))


def random_graph(rng, n, p=0.5):
    return SimpleGraph.from_edges(n, [e for e in vertex_pairs(n) if rng.random() < p])


def random_type(rng, n):
    vc = tuple(rng.choice((RED, BLUE)) for _ in range(n))
    ec = tuple(rng.choice((RED, BLUE, GREEN)) for _ in range(n * (n - 1) // 2))
    return TypeGraph(vc, ec)


def reference_hom_rows(tau):
    """TypeGraph.hom_rows with one tau.edge lookup per ordered pair."""
    rows = []
    for t in range(tau.n):
        red = blue = 0
        for s in range(tau.n):
            c = tau.vertex_colors[t] if s == t else tau.edge(s, t)
            if c != BLUE:
                red |= 1 << s
            if c != RED:
                blue |= 1 << s
        rows.append((red, blue, (1 << tau.n) - 1))
    return rows


class TestHomRows:
    def test_matches_per_pair_lookup(self):
        rng = random.Random(29)
        types = [TypeGraph((), ())] + [random_type(rng, rng.randint(1, 14)) for _ in range(60)]
        types.append(sample_type(RandomSpec(40, "general", 3)))
        for tau in types:
            assert list(tau.hom_rows) == reference_hom_rows(tau)

    def test_every_three_vertex_type_and_sampled_types(self):
        types = [
            TypeGraph(vc, ec)
            for n in range(4)
            for vc in product((RED, BLUE), repeat=n)
            for ec in product((RED, BLUE, GREEN), repeat=n * (n - 1) // 2)
        ]
        assert len(types) == 1 + 2 + 4 * 3 + 8 * 27
        types += [
            sample_type(RandomSpec(n, model, seed))
            for model in ("friendly", "general")
            for n in (1, 7, 30)
            for seed in range(3)
        ]
        for tau in types:
            assert list(tau.hom_rows) == reference_hom_rows(tau)

    def test_cached_once_and_ignored_by_equality(self):
        rng = random.Random(31)
        tau = random_type(rng, 6)
        rows = tau.hom_rows
        assert tau.hom_rows is rows
        fresh = TypeGraph(tau.vertex_colors, tau.edge_colors)
        assert fresh == tau and hash(fresh) == hash(tau)
        assert "hom_rows" not in vars(fresh) and "hom_rows" in vars(tau)


class TestFindEmbedding:
    def test_c5_three_colorable(self):
        res = find_embedding(SimpleGraph.cycle(5), three_coloring_type())
        assert res.found and res.map is not None

    def test_k4_not_three_colorable(self):
        res = find_embedding(SimpleGraph.complete(4), three_coloring_type())
        assert res.status == UNSAT and res.map is None

    def test_clique_into_blue_vertex(self):
        res = find_embedding(SimpleGraph.complete(3), TypeGraph((BLUE,), ()))
        assert res.found and res.map == (0, 0, 0)

    def test_empty_graph(self):
        assert find_embedding(SimpleGraph.empty(0), TypeGraph((), ())).found

    def test_nonempty_graph_empty_type(self):
        res = find_embedding(SimpleGraph.empty(2), TypeGraph((), ()))
        assert res.status == UNSAT

    def test_node_limit_reports_unknown(self):
        g = SimpleGraph.complete(6)
        res = find_embedding(g, three_coloring_type(), SolverConfig(node_limit=2))
        assert res.status == UNKNOWN and res.map is None

    def test_pinned_results(self):
        """Status, map, node count and depth as `matpart solve` prints them."""
        col3 = three_coloring_type()
        limit = SolverConfig(node_limit=200_000)
        sat = build_planted_obstruction(12, 3, 0)
        unsat = build_planted_obstruction(12, 3, 4)
        cases = [
            (find_embedding(SimpleGraph.complete(4), col3),
             SearchResult(UNSAT, None, 15, 2)),
            (find_embedding(SimpleGraph.cycle(5), col3),
             SearchResult(SAT, (0, 1, 0, 1, 2), 5, 4)),
            (find_embedding(SimpleGraph.complete(6), col3, SolverConfig(node_limit=2)),
             SearchResult(UNKNOWN, None, 3, 2)),
            (find_embedding(sat.graph, sat.tau, limit),
             SearchResult(SAT, (1, 17, 16, 6, 11, 18, 10, 10, 10, 15, 15, 15), 780, 11)),
            (find_embedding(unsat.graph, unsat.tau, limit),
             SearchResult(UNSAT, None, 11044, 16)),
            (find_embedding(unsat.graph, unsat.tau, SolverConfig(node_limit=5000)),
             SearchResult(UNKNOWN, None, 5001, 16)),
        ]
        for got, expected in cases:
            assert got == expected

    def test_returned_map_always_validates(self):
        from matpart.model import is_embedding

        rng = random.Random(5)
        for _ in range(100):
            g = random_graph(rng, rng.randint(0, 6))
            tau = random_type(rng, rng.randint(1, 4))
            res = find_embedding(g, tau)
            if res.found:
                assert is_embedding(g, tau, res.map)


def list_search(g, tau, limit=None):
    """find_embedding's result by ListSearch alone: the reference for the batched path."""
    relation = [[BLUE if g.has_edge(u, v) else RED for v in range(g.n)] for u in range(g.n)]
    search = ListSearch(
        [(1 << tau.n) - 1] * g.n,
        relation,
        reference_hom_rows(tau),
        most_constrained=True,
        node_limit=limit,
    )
    psi = next(iter(search), None)
    status = SAT if psi is not None else UNKNOWN if search.limit_hit else UNSAT
    return SearchResult(status, psi, search.nodes, search.depth)


def batched(g, tau, limit=None):
    return _bitset_search(_relation(g), tau.hom_rows, limit)


def gadget_pool():
    return json.loads(
        (Path(__file__).resolve().parent.parent / "bench" / "gadget_pool.json").read_text()
    )["cells"]


def pool_unsat_instances(per_cell):
    for cell, seeds in gadget_pool().items():
        n, m = map(int, cell.split(","))
        for seed in seeds["unsat"][:per_cell]:
            yield build_planted_obstruction(n, m, seed)


def pool_sat_instances(per_cell):
    """The first per_cell satisfiable gadgets of each pool cell whose
    ListSearch run outlasts BATCH_BUDGET, so find_embedding batches them."""
    for cell, seeds in gadget_pool().items():
        n, m = map(int, cell.split(","))
        found = 0
        for seed in seeds["sat"]:
            inst = build_planted_obstruction(n, m, seed)
            if list_search(inst.graph, inst.tau).nodes > BATCH_BUDGET:
                yield inst
                found += 1
                if found == per_cell:
                    break


def fixed_bytes(n, k):
    """The batched core's fixed part on n vertices and k targets: the forward
    table of n * k rows of n words, and four arrays of a step's children,
    BATCH_CHILDREN rows of n words and an 8-byte node offset."""
    word = 2 if k < 16 else 4 if k < 32 else 8
    return n * n * k * word + 4 * BATCH_CHILDREN * (n * word + 8)


def tripartite_type(k):
    """k red vertices, green edges between the classes v % 3 and red edges
    inside them: K4 has no embedding, and its search tree has about
    k * (2k/3) * (k/3) nodes."""
    return TypeGraph(
        (RED,) * k,
        tuple(GREEN if i % 3 != j % 3 else RED for i, j in vertex_pairs(k)),
    )


class TestBatchedSearch:
    """The batched core expands ListSearch's tree in ListSearch's order, so
    it reports ListSearch's map, node count and depth on SAT and UNSAT;
    find_embedding reports exactly what ListSearch alone reports."""

    def test_pool_proofs(self, monkeypatch):
        calls, limits = [], []

        def counted(*args):
            calls.append(args)
            return _bitset_search(*args)

        def list_search_limit(relation, rows, limit):
            limits.append(limit)
            return _list_search(relation, rows, limit)

        monkeypatch.setattr("matpart.solver._bitset_search", counted)
        monkeypatch.setattr("matpart.solver._list_search", list_search_limit)
        cases = [(UNSAT, inst) for inst in pool_unsat_instances(2)]
        cases += [(SAT, inst) for inst in pool_sat_instances(2)]
        assert len(cases) == 4 * len(gadget_pool())
        # 23 vertices into 32: BATCH_CHILDREN pending rows at each depth
        # would pass MAX_BATCH_BYTES, but the rows that wait stay far fewer
        cases += [(UNSAT, build_planted_obstruction(16, 4, seed)) for seed in (2, 3)]
        # 26 vertices into 40, a tree of 200,459 nodes
        cases.append((UNSAT, build_planted_obstruction(20, 4, 0)))
        # SAT proofs of 429-4,980 nodes in cells where pool_sat_instances
        # picks searches shorter than 200 nodes, as (n, m, seed)
        cases += [
            (SAT, build_planted_obstruction(n, m, seed))
            for n, m, seed in ((10, 1, 7), (10, 2, 6), (11, 1, 11), (11, 2, 11), (12, 1, 13))
        ]
        for status, inst in cases:
            expected = list_search(inst.graph, inst.tau)
            assert expected.status == status and expected.nodes > BATCH_BUDGET
            assert batched(inst.graph, inst.tau) == expected
            assert find_embedding(inst.graph, inst.tau) == expected
        # the batched core decided every search, and ListSearch ran only for
        # the budget
        assert len(calls) == len(cases)
        assert limits == [BATCH_BUDGET] * len(cases)

    def test_core_result_is_json_ready(self):
        """The core decides the n = 16, m = 4, seed 3 gadget, and its
        SearchResult carries Python ints, as ListSearch's does."""
        inst = build_planted_obstruction(16, 4, 3)
        for result in (batched(inst.graph, inst.tau), find_embedding(inst.graph, inst.tau)):
            assert result == SearchResult(UNSAT, None, 58335, 20)
            assert type(result.nodes) is int and type(result.depth) is int
            assert json.loads(json.dumps(dataclasses.asdict(result)))["depth"] == 20

    def test_memory_within_byte_bound(self, monkeypatch):
        """The pool proofs and a tripartite tree whose steps run full hold
        under 1 MiB of pending rows at a time, far less than their steps
        put on the stack in all: with 1 MiB of room past the fixed part,
        the core decides them within the bound.  In the tree, K4 comes
        after two isolated vertices, so its first three depths have 20
        children per node."""

        def unsat_peak(g, tau):
            cap = fixed_bytes(g.n, tau.n) + (1 << 20)
            monkeypatch.setattr("matpart.solver.MAX_BATCH_BYTES", cap)
            rows = tau.hom_rows
            tracemalloc.start()
            try:
                result = _bitset_search(_relation(g), rows, None)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert result.status == UNSAT
            assert peak < cap
            return result.nodes

        for inst in pool_unsat_instances(2):
            unsat_peak(inst.graph, inst.tau)
        wide = SimpleGraph.from_edges(6, [(u + 2, v + 2) for u, v in vertex_pairs(4)])
        assert unsat_peak(wide, tripartite_type(20)) > 100 * BATCH_CHILDREN

    def test_pending_bytes_hand_the_search_to_list_search(self, monkeypatch):
        """With 1 KiB of room past the fixed part, the 260 children of the
        second step of K4 into 20 targets, 6,240 bytes, pass the room: the
        core stops within the bound, and ListSearch decides."""
        k4 = SimpleGraph.complete(4)
        tau = tripartite_type(20)
        expected = list_search(k4, tau)
        assert expected.status == UNSAT and expected.nodes > BATCH_BUDGET
        fixed = fixed_bytes(k4.n, tau.n)
        monkeypatch.setattr("matpart.solver.MAX_BATCH_BYTES", fixed + 1024)
        result = batched(k4, tau)
        assert result.status == UNKNOWN and 0 < result.nodes < expected.nodes
        assert find_embedding(k4, tau) == expected
        monkeypatch.setattr("matpart.solver.MAX_BATCH_BYTES", fixed - 1)
        assert batched(k4, tau) == SearchResult(UNKNOWN, None, 0, 0)

    def test_large_graph_stays_on_list_search(self):
        """A 1,000-vertex path takes ListSearch about 1,000 nodes, but the
        batched core's forward table alone would hold 1,000 * 1,000 * 3
        words; the core declines it at 0 nodes, and ListSearch decides."""
        g = SimpleGraph.path(1000)
        tau = rho_three_coloring()
        expected = list_search(g, tau)
        assert expected.status == SAT and expected.nodes > BATCH_BUDGET
        tracemalloc.start()
        try:
            assert batched(g, tau) == SearchResult(UNKNOWN, None, 0, 0)
            assert find_embedding(g, tau) == expected
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 << 20

    def test_node_limits_around_budget_and_tree(self):
        inst = build_planted_obstruction(12, 3, 4)
        tree = list_search(inst.graph, inst.tau).nodes
        for limit in (1, BATCH_BUDGET, BATCH_BUDGET + 1, tree - 1, tree, tree + 1):
            expected = list_search(inst.graph, inst.tau, limit)
            assert expected.status == (UNSAT if limit >= tree else UNKNOWN)
            result = batched(inst.graph, inst.tau, limit)
            assert result.status == expected.status
            if result.status == UNSAT:
                assert result == expected
            assert find_embedding(inst.graph, inst.tau, SolverConfig(node_limit=limit)) == expected

    @pytest.mark.parametrize("children", [7, 20, 100])
    def test_steps_across_chunks(self, monkeypatch, children):
        """With a few children per step, a step takes rows from several
        chunks and depths and splits a chunk, on trees small enough to
        check against ListSearch by the hundred."""
        monkeypatch.setattr("matpart.solver.BATCH_CHILDREN", children)
        rng = random.Random(children)
        statuses = set()
        for _ in range(400):
            g = random_graph(rng, rng.randint(0, 10), rng.random())
            tau = random_type(rng, rng.randint(0, 7))
            expected = list_search(g, tau)
            assert batched(g, tau) == expected
            statuses.add(expected.status)
            limit = rng.randint(1, expected.nodes + 1)
            limited = batched(g, tau, limit)
            assert limited.status == UNKNOWN or limited == list_search(g, tau, limit)
        assert statuses == {SAT, UNSAT}

    @pytest.mark.parametrize("k", [15, 16, 31, 32, 63, 64])
    def test_word_size_boundaries(self, k):
        """15, 31 and 63 targets fill a 16-, 32- or 64-bit word beside the
        free mark; the core declines 64 targets at 0 nodes, and ListSearch
        decides."""
        tau = tripartite_type(k)
        g = SimpleGraph.from_edges(5, [(u, v) for u, v in vertex_pairs(4)])
        expected = list_search(g, tau)
        assert expected.status == UNSAT and expected.nodes > BATCH_BUDGET
        assert find_embedding(g, tau) == expected
        if k <= MAX_BATCH_TARGETS:
            assert batched(g, tau) == expected
            sat = SimpleGraph.from_edges(5, [(u, v) for u, v in vertex_pairs(3)])
            result = batched(sat, tau)
            assert result.status == SAT and result == list_search(sat, tau)
        else:
            assert batched(g, tau) == SearchResult(UNKNOWN, None, 0, 0)

    def test_empty_graph_and_empty_type(self):
        one = TypeGraph((RED,), ())
        for g, tau in [
            (SimpleGraph.empty(0), TypeGraph((), ())),
            (SimpleGraph.empty(0), one),
            (SimpleGraph.empty(3), TypeGraph((), ())),
            (SimpleGraph.complete(2), TypeGraph((), ())),
        ]:
            expected = list_search(g, tau)
            assert batched(g, tau) == expected
            assert find_embedding(g, tau) == expected

    def test_oracle_agreement_property(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @hypothesis.settings(
            max_examples=300, deadline=None, derandomize=True, database=None
        )
        @hypothesis.given(st.data())
        def check(data):
            def draw_tuple(choices, size):
                return tuple(
                    data.draw(st.lists(st.sampled_from(choices), min_size=size, max_size=size))
                )

            n = data.draw(st.integers(0, 7), label="graph order")
            pairs = list(vertex_pairs(n))
            present = draw_tuple((False, True), len(pairs))
            g = SimpleGraph.from_edges(n, [e for e, keep in zip(pairs, present) if keep])
            nt = data.draw(st.integers(0, 4), label="type order")
            tau = TypeGraph(
                draw_tuple((RED, BLUE), nt), draw_tuple((RED, BLUE, GREEN), nt * (nt - 1) // 2)
            )
            result = batched(g, tau)
            assert result.status == (SAT if brute_force_has_embedding(g, tau) else UNSAT)
            assert result == list_search(g, tau)

        check()


class TestBruteForce:
    def test_trivial_cases(self):
        assert brute_force_has_embedding(SimpleGraph.empty(0), TypeGraph((), ()))
        assert not brute_force_has_embedding(SimpleGraph.empty(1), TypeGraph((), ()))

    def test_size_guard(self):
        with pytest.raises(ValueError, match="guard"):
            brute_force_has_embedding(
                SimpleGraph.empty(30), type_from_matrix(coloring_matrix(4))
            )

    def test_c5_not_two_colorable(self):
        assert not brute_force_has_embedding(SimpleGraph.cycle(5), two_coloring_type())

    def test_oracle_agreement_both_configs(self):
        rng = random.Random(77)
        for _ in range(200):
            g = random_graph(rng, rng.randint(0, 6))
            nt = rng.randint(0, 4)
            tau = random_type(rng, nt) if nt else TypeGraph((), ())
            expected = brute_force_has_embedding(g, tau)
            assert find_embedding(g, tau, SolverConfig()).found == expected

    def test_oracle_agreement_property(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @hypothesis.settings(
            max_examples=200, deadline=None, derandomize=True, database=None
        )
        @hypothesis.given(st.data())
        def check(data):
            def draw_tuple(choices, size):
                return tuple(
                    data.draw(st.lists(st.sampled_from(choices), min_size=size, max_size=size))
                )

            n = data.draw(st.integers(0, 7), label="graph order")
            pairs = list(vertex_pairs(n))
            present = draw_tuple((False, True), len(pairs))
            g = SimpleGraph.from_edges(n, [e for e, keep in zip(pairs, present) if keep])
            nt = data.draw(st.integers(0, 4), label="type order")
            tau = TypeGraph(
                draw_tuple((RED, BLUE), nt), draw_tuple((RED, BLUE, GREEN), nt * (nt - 1) // 2)
            )
            assert find_embedding(g, tau).found == brute_force_has_embedding(g, tau)

        check()


class TestHereditarity:
    def test_induced_subgraphs_of_embeddable_embed(self):
        rng = random.Random(6)
        for _ in range(100):
            g = random_graph(rng, rng.randint(1, 6))
            tau = random_type(rng, rng.randint(1, 4))
            if not find_embedding(g, tau).found:
                continue
            keep = rng.sample(range(g.n), rng.randint(0, g.n))
            assert find_embedding(g.induced(sorted(keep)), tau).found


class TestMinimalObstruction:
    def test_c5_for_two_coloring(self):
        assert is_minimal_obstruction(SimpleGraph.cycle(5), two_coloring_type())

    def test_c6_embeds(self):
        assert not is_minimal_obstruction(SimpleGraph.cycle(6), two_coloring_type())

    def test_k4_for_three_coloring(self):
        assert is_minimal_obstruction(SimpleGraph.complete(4), three_coloring_type())

    def test_c7_for_two_coloring(self):
        assert is_minimal_obstruction(SimpleGraph.cycle(7), two_coloring_type())


@lru_cache(maxsize=None)
def _relabelings(n):
    """Endpoints of every pair under all n! relabelings, and the pair weights."""
    perms = np.array(list(permutations(range(n))), dtype=np.int64)
    rows, cols = np.triu_indices(n, 1)
    weights = 1 << np.arange(len(rows) - 1, -1, -1, dtype=np.int64)  # (0,1) is the top bit
    return perms[:, rows], perms[:, cols], weights


def brute_force_code(g):
    """Minimum adjacency bitstring over all n! relabelings, in one numpy gather."""
    n = g.n
    if n <= 1:
        return 0
    adj = np.zeros((n, n), dtype=np.int64)
    for u, v in g.edges:
        adj[u, v] = adj[v, u] = 1
    left, right, weights = _relabelings(n)
    return int((adj[left, right] @ weights).min())


def relabeled(g, perm):
    return SimpleGraph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges])


def petersen():
    return SimpleGraph.from_edges(
        10,
        [(i, (i + 1) % 5) for i in range(5)]
        + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
        + [(i, 5 + i) for i in range(5)],
    )


def two_c5():
    return SimpleGraph.from_edges(
        10, [(i, (i + 1) % 5) for i in range(5)] + [(5 + i, 5 + (i + 1) % 5) for i in range(5)]
    )


class TestCanonicalForms:
    def test_invariant_under_relabeling(self):
        rng = random.Random(7)
        for _ in range(100):
            n = rng.randint(1, 6)
            g = random_graph(rng, n)
            perm = list(range(n))
            rng.shuffle(perm)
            assert canonical_code(g) == canonical_code(relabeled(g, perm))

    def test_distinguishes_nonisomorphic(self):
        assert canonical_code(SimpleGraph.path(4)) != canonical_code(
            SimpleGraph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
        )

    def test_canonical_graph_is_isomorphic_representative(self):
        g = SimpleGraph.cycle(5)
        assert canonical_code(graph_from_code(g.n, canonical_code(g))) == canonical_code(g)

    def test_matches_brute_force_on_every_graph_to_six(self):
        for n in range(7):
            pairs = list(vertex_pairs(n))
            for mask in range(1 << len(pairs)):
                g = SimpleGraph.from_edges(
                    n, [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
                )
                assert canonical_code(g) == brute_force_code(g), (n, sorted(g.edges))

    def test_matches_brute_force_on_random_graphs(self):
        rng = random.Random(11)
        for n, count in ((7, 1000), (8, 100)):
            for _ in range(count):
                g = random_graph(rng, n, rng.random())
                assert canonical_code(g) == brute_force_code(g), (n, sorted(g.edges))

    def test_matches_brute_force_on_symmetric_graphs(self):
        graphs = [
            make(n)
            for n in (7, 8)
            for make in (SimpleGraph.empty, SimpleGraph.complete, SimpleGraph.cycle, SimpleGraph.path)
        ]
        cube = SimpleGraph.from_edges(
            8, [(v, v ^ 1 << b) for v in range(8) for b in range(3) if not v >> b & 1]
        )
        k44 = SimpleGraph.from_edges(8, [(i, 4 + j) for i in range(4) for j in range(4)])
        for g in graphs + [cube, k44]:
            assert canonical_code(g) == brute_force_code(g), (g.n, sorted(g.edges))

    def test_ten_vertex_graphs_keep_their_code_under_relabeling(self):
        rng = random.Random(12)
        codes = set()
        for g in (petersen(), two_c5(), SimpleGraph.cycle(10)):
            code = canonical_code(g)
            codes.add(code)
            for _ in range(20):
                perm = list(range(10))
                rng.shuffle(perm)
                assert canonical_code(relabeled(g, perm)) == code
            assert canonical_code(graph_from_code(10, code)) == code
        assert len(codes) == 3

    def test_size_guard(self):
        assert canonical_code(SimpleGraph.empty(10)) == 0
        with pytest.raises(ValueError, match="up to 10"):
            canonical_code(SimpleGraph.empty(11))

    def test_relabeling_property(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @hypothesis.settings(
            max_examples=200, deadline=None, derandomize=True, database=None
        )
        @hypothesis.given(st.data())
        def check(data):
            n = data.draw(st.integers(0, 10), label="order")
            pairs = list(vertex_pairs(n))
            present = data.draw(
                st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs))
            )
            g = SimpleGraph.from_edges(n, [e for e, keep in zip(pairs, present) if keep])
            perm = data.draw(st.permutations(range(n)), label="relabeling")
            code = canonical_code(g)
            assert canonical_code(relabeled(g, perm)) == code
            assert canonical_code(graph_from_code(n, code)) == code

        check()

    def test_isomorphism_agrees_with_networkx(self):
        nx = pytest.importorskip("networkx")

        def as_nx(g):
            h = nx.Graph()
            h.add_nodes_from(range(g.n))
            h.add_edges_from(g.edges)
            return h

        rng = random.Random(13)
        for _ in range(100):
            n = rng.choice((9, 10))
            g = random_graph(rng, n, rng.random())
            perm = list(range(n))
            rng.shuffle(perm)
            h = relabeled(g, perm)
            edges, non_edges = sorted(h.edges), sorted(set(vertex_pairs(n)) - h.edges)
            if edges and non_edges:  # move one edge: same edge count, often not isomorphic
                moved = set(edges) - {rng.choice(edges)} | {rng.choice(non_edges)}
                pairs = [(g, h), (g, SimpleGraph(n, frozenset(moved)))]
            else:
                pairs = [(g, h)]
            for a, b in pairs:
                same = a.n == b.n and canonical_code(a) == canonical_code(b)
                assert same == nx.is_isomorphic(as_nx(a), as_nx(b))


def independent_bipartite(g: SimpleGraph) -> bool:
    """BFS 2-coloring, independent of the embedding machinery."""
    color = [-1] * g.n
    adj = [[] for _ in range(g.n)]
    for u, v in g.edges:
        adj[u].append(v)
        adj[v].append(u)
    for start in range(g.n):
        if color[start] != -1:
            continue
        color[start] = 0
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                if color[v] == -1:
                    color[v] = 1 - color[u]
                    queue.append(v)
                elif color[v] == color[u]:
                    return False
    return True


def independent_three_colorable(g: SimpleGraph) -> bool:
    return any(
        all(coloring[u] != coloring[v] for u, v in g.edges)
        for coloring in product(range(3), repeat=g.n)
    )


def filter_minimal_obstructions(max_n, embeddable) -> set:
    """Every labeled graph, filtered by the definition of minimality."""
    found = set()
    for n in range(1, max_n + 1):
        pairs = list(vertex_pairs(n))
        for mask in range(1 << len(pairs)):
            edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
            g = SimpleGraph.from_edges(n, edges)
            if embeddable(g):
                continue
            if all(embeddable(g.delete_vertex(v)) for v in range(n)):
                found.add((n, canonical_code(g)))
    return found


class TestEnumeration:
    def test_two_coloring_up_to_six_matches_filter_oracle(self):
        got = enumerate_minimal_obstructions(two_coloring_type(), 6)
        expected = filter_minimal_obstructions(6, independent_bipartite)
        assert {(g.n, canonical_code(g)) for g in got} == expected

    def test_three_coloring_matches_filter_oracle(self):
        got = enumerate_minimal_obstructions(three_coloring_type(), 4)
        expected = filter_minimal_obstructions(4, independent_three_colorable)
        assert {(g.n, canonical_code(g)) for g in got} == expected

    def test_single_red_vertex_gives_single_edge(self):
        got = enumerate_minimal_obstructions(TypeGraph((RED,), ()), 3)
        assert [(g.n, canonical_code(g)) for g in got] == [
            (2, canonical_code(SimpleGraph.from_edges(2, [(0, 1)])))
        ]

    def test_outputs_are_minimal_and_nonisomorphic(self):
        tau = two_coloring_type()
        got = enumerate_minimal_obstructions(tau, 6)
        assert all(is_minimal_obstruction(g, tau) for g in got)
        codes = [(g.n, canonical_code(g)) for g in got]
        assert len(set(codes)) == len(codes)
        assert codes == sorted(codes)

    def test_two_coloring_up_to_eight_is_the_odd_cycles(self):
        got = enumerate_minimal_obstructions(two_coloring_type(), 8)
        assert [(g.n, canonical_code(g)) for g in got] == [
            (k, canonical_code(SimpleGraph.cycle(k))) for k in (3, 5, 7)
        ]

    def test_size_guard(self):
        with pytest.raises(ValueError):
            enumerate_minimal_obstructions(two_coloring_type(), 11)


class TestEdgeHomomorphisms:
    def test_single_vertex_identity_only(self):
        tau = TypeGraph((RED,), ())
        assert list(enumerate_edge_homomorphisms(tau, tau)) == [(0,)]

    def test_swap_on_red_edge_pair(self):
        tau = TypeGraph((RED, RED), (RED,))
        maps = list(enumerate_edge_homomorphisms(tau, tau))
        assert (1, 0) in maps  # swap is valid and fixes nothing
        assert all(is_edge_homomorphism(tau, tau, phi) for phi in maps)

    def test_enumeration_matches_definition(self):
        rng = random.Random(8)
        for _ in range(30):
            sigma = random_type(rng, rng.randint(1, 3))
            tau = random_type(rng, rng.randint(1, 3))
            got = set(enumerate_edge_homomorphisms(sigma, tau))
            expected = {
                phi
                for phi in product(range(tau.n), repeat=sigma.n)
                if is_edge_homomorphism(sigma, tau, phi)
            }
            assert got == expected


class TestMinFixedPoints:
    def test_single_vertex(self):
        rep = min_fixed_points(TypeGraph((RED,), ()), Fraction(1, 2))
        assert rep.fixed_count in (0, 1)
        assert rep.subtype_size >= 1

    def test_red_edge_swap_reaches_zero(self):
        tau = TypeGraph((RED, RED), (RED,))
        rep = min_fixed_points(tau, Fraction(1, 1))
        assert rep.fixed_count == 0 and rep.map == (1, 0)

    def test_random_small_types_produce_reports(self):
        for seed in range(20):
            tau = sample_type(RandomSpec(5, "general", seed))
            rep = min_fixed_points(tau, Fraction(3, 5))
            assert rep.fixed_count <= rep.subtype_size
            assert rep.subtype_size >= 3  # ceil(3/5 * 5)
            assert 0 <= rep.beta <= 1

    def test_witness_is_edge_homomorphism(self):
        from matpart.model import subtype

        for seed in range(5):
            tau = sample_type(RandomSpec(4, "general", seed))
            rep = min_fixed_points(tau, Fraction(1, 2))
            sigma = subtype(tau, rep.subtype_vertices)
            assert is_edge_homomorphism(sigma, tau, rep.map)

    def test_matches_brute_force_scan(self):
        rng = random.Random(9)
        for _ in range(60):
            tau = random_type(rng, rng.randint(1, 5))
            alpha = rng.choice((Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1)))
            assert min_fixed_points(tau, alpha) == brute_force_min_fixed_points(tau, alpha)

    def test_size_guard(self):
        with pytest.raises(ValueError):
            min_fixed_points(sample_type(RandomSpec(8, "general", 0)), Fraction(1, 2))


def brute_force_min_fixed_points(tau, alpha):
    """Every large subtype and every map into tau, filtered by the definition;
    the first witness in (size, vertices, map) order wins ties."""
    n = tau.n
    best = None
    for size in range(1, n + 1):
        if size < alpha * n:
            continue
        for vertices in combinations(range(n), size):
            sigma = subtype(tau, vertices)
            for phi in product(range(n), repeat=size):
                if not is_edge_homomorphism(sigma, tau, phi):
                    continue
                fixed = sum(1 for a, t in zip(vertices, phi) if a == t)
                if best is None or fixed < best.fixed_count:
                    best = FixedPointReport(vertices, phi, fixed, alpha, Fraction(fixed, n))
    return best
