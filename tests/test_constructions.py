"""Gadget builders: the six-vertex pattern, path-gadget obstruction graphs
with their explicit embeddings and the finite unsatisfiability fragment, and
the reduction graph with its extension embedding."""

import dataclasses
import random

import pytest

from matpart.model import (
    BLUE,
    GREEN,
    RED,
    SimpleGraph,
    SubtypeCopy,
    coloring_matrix,
    is_embedding,
    rho_obstruction_family,
    rho_three_coloring,
    type_from_matrix,
    type_is_friendly,
    vertex_pairs,
)
from matpart.constructions import (
    broken_path_embedding,
    build_planted_obstruction,
    extend_embedding,
    obstruction_graph,
    plant_pattern,
    reduction_graph,
    restricted_placement_unsat,
)
from matpart.randtypes import RandomSpec, sample_type
from matpart.solver import brute_force_has_embedding, find_embedding, is_minimal_obstruction
from matpart.textio import serialize_obstruction_instance, serialize_reduction_instance


def identity_instance(m=1):
    rho = rho_obstruction_family()
    return obstruction_graph(rho, SubtypeCopy(rho, rho, tuple(range(6))), m)


class TestFamilyPattern:
    def test_colors(self):
        rho = rho_obstruction_family()
        assert rho.vertex_colors == (RED, RED, RED, BLUE, BLUE, BLUE)

    def test_edge_palette(self):
        rho = rho_obstruction_family()
        blue_edges = {(i, j) for i, j in vertex_pairs(6) if rho.edge(i, j) == BLUE}
        green_edges = {(i, j) for i, j in vertex_pairs(6) if rho.edge(i, j) == GREEN}
        assert blue_edges == {(0, 2), (1, 2), (3, 4)}
        assert green_edges == {(0, 3), (0, 5), (1, 4), (2, 4)}
        assert sum(1 for c in rho.edge_colors if c == RED) == 8

    def test_friendly(self):
        assert type_is_friendly(rho_obstruction_family())


class TestThreeColoringPattern:
    def test_equals_coloring_type(self):
        assert rho_three_coloring() == type_from_matrix(coloring_matrix(3))

    def test_k3_embeds(self):
        assert brute_force_has_embedding(SimpleGraph.complete(3), rho_three_coloring())

    def test_k4_does_not_embed(self):
        assert not brute_force_has_embedding(
            SimpleGraph.complete(4), rho_three_coloring()
        )


class TestObstructionGraph:
    def test_identity_host_hand_case(self):
        inst = identity_instance(m=1)
        assert inst.sigma == (2, 5)
        assert inst.graph.n == 4
        # primes: 0 -> host 2 (r3), 1 -> host 5 (b3); x1 = 2, y1 = 3
        assert set(inst.graph.edges) == {(2, 3), (1, 2), (0, 3), (0, 2)}
        assert inst.labels == ("prime 2", "prime 5", "x 1", "y 1")

    def test_order_identity(self):
        for seed in range(8):
            inst = build_planted_obstruction(10 + seed, (seed % 5) + 1, seed)
            assert inst.graph.n == len(inst.sigma) + 2 * inst.m

    def test_rejects_mismatched_host(self):
        rho = rho_obstruction_family()
        copy = SubtypeCopy(rho, rho, tuple(range(6)))
        other = sample_type(RandomSpec(6, "friendly", 0))
        with pytest.raises(ValueError, match="host"):
            obstruction_graph(other, copy, 1)

    def test_rejects_wrong_pattern(self):
        rho3 = rho_three_coloring()
        copy = SubtypeCopy(rho3, rho3, (0, 1, 2))
        with pytest.raises(ValueError, match="pattern"):
            obstruction_graph(rho3, copy, 1)

    def test_serialization_is_stable(self):
        inst = build_planted_obstruction(8, 2, 3)
        text = serialize_obstruction_instance(inst)
        assert text == serialize_obstruction_instance(inst)
        assert f"\n{inst.m}\n" in text
        for label in inst.labels:
            assert f"{label}\n" in text


class TestBarePatternGadget:
    """The gadget built on the six-vertex pattern itself, as host and as
    sigma: the complete solver decides it with no random host and no
    restricted placements."""

    def test_minimal_obstruction_from_m_4(self):
        for m in range(4, 13):
            inst = identity_instance(m)
            assert is_minimal_obstruction(inst.graph, inst.tau), m

    def test_embeds_below_m_4(self):
        for m in (1, 2, 3):
            inst = identity_instance(m)
            result = find_embedding(inst.graph, inst.tau)
            assert result.found, m
            assert is_embedding(inst.graph, inst.tau, result.map)


class TestBrokenPathEmbedding:
    def test_identity_host_m1(self):
        inst = identity_instance(m=1)
        psi = broken_path_embedding(inst, 1)
        assert psi == (2, 5, 4)  # r3, b3, y1 -> b2
        reduced = inst.graph.delete_vertex(inst.x_index(1))
        assert is_embedding(reduced, inst.tau, psi)

    def test_validates_on_planted_instances(self):
        for seed in range(10):
            m = (seed % 5) + 1
            inst = build_planted_obstruction(10 + (seed % 12), m, seed)
            for i in range(1, m + 1):
                psi = broken_path_embedding(inst, i)
                reduced = inst.graph.delete_vertex(inst.x_index(i))
                assert is_embedding(reduced, inst.tau, psi)

    def test_assignment_structure(self):
        inst = build_planted_obstruction(12, 4, 9)
        r1, r2, _, b1, b2, _ = inst.rho_copy.image
        i = 2
        psi = broken_path_embedding(inst, i)
        s = len(inst.sigma)
        assert psi[:s] == inst.sigma  # identity on the primed block
        # x block skips x_i; y_i lands on b2
        assert psi[s] == r1  # x_1 (j < i)
        assert psi[s + 1] == r2  # x_3 (j > i), x_2 removed
        y_block = psi[s + inst.m - 1 :]
        assert y_block == (b1, b2, b2, b2)


class TestRestrictedPlacement:
    def test_identity_host_unsat(self):
        assert restricted_placement_unsat(identity_instance(m=1))

    def test_planted_instances_unsat(self):
        rng = random.Random(1)
        for trial in range(12):
            n = rng.randint(10, 15)
            m = rng.randint(1, 6)
            inst = build_planted_obstruction(n, m, trial)
            assert restricted_placement_unsat(inst)

    def test_removing_final_anchor_makes_it_satisfiable(self):
        for seed in (0, 3):
            inst = build_planted_obstruction(10, 3, seed)
            r3_prime = inst.prime_index(inst.rho_copy.image[2])
            anchor = tuple(sorted((inst.y_index(inst.m), r3_prime)))
            mutated = dataclasses.replace(
                inst, graph=SimpleGraph(inst.graph.n, inst.graph.edges - {anchor})
            )
            assert not restricted_placement_unsat(mutated)


class TestReduction:
    def planted_setup(self, seed, n=12):
        tau0 = sample_type(RandomSpec(n, "general", seed))
        return plant_pattern(tau0, "thm3", seed)

    def test_order_identity(self):
        for seed in range(5):
            tau, copy = self.planted_setup(seed)
            g = SimpleGraph.cycle(5)
            inst = reduction_graph(g, tau, copy)
            assert inst.output_graph.n == g.n + len(inst.sigma)

    def test_no_blue_touch_means_no_cross_edges(self):
        # host where every edge is red: sigma = everything else, no blue edges anywhere
        rho = rho_three_coloring()
        host_colors = (RED,) * 6
        edge_colors = [RED] * (6 * 5 // 2)
        from matpart.model import TypeGraph, pair_index

        for k, l in ((0, 1), (0, 2), (1, 2)):
            edge_colors[pair_index(k, l, 6)] = GREEN
        tau = TypeGraph(host_colors, tuple(edge_colors))
        copy = SubtypeCopy(rho, tau, (0, 1, 2))
        inst = reduction_graph(SimpleGraph.empty(3), tau, copy)
        assert len(inst.sigma) == 3
        assert inst.output_graph.edges == frozenset()

    def test_forward_soundness(self):
        rng = random.Random(30)
        pattern = rho_three_coloring()
        done = 0
        seed = 0
        while done < 25:
            seed += 1
            g = SimpleGraph.from_edges(
                5, [e for e in vertex_pairs(5) if rng.random() < 0.4]
            )
            res = find_embedding(g, pattern)
            if not res.found:
                continue
            tau, copy = self.planted_setup(seed)
            inst = reduction_graph(g, tau, copy)
            extended = extend_embedding(res.map, inst)
            assert is_embedding(inst.output_graph, tau, extended)
            assert extended[: g.n] == tuple(copy.image[t] for t in res.map)
            assert extended[g.n :] == inst.sigma
            done += 1

    def test_invalid_input_embedding_rejected(self):
        tau, copy = self.planted_setup(2)
        g = SimpleGraph.complete(4)  # not 3-colorable
        inst = reduction_graph(g, tau, copy)
        with pytest.raises(ValueError, match="not an embedding"):
            extend_embedding((0, 0, 0, 0), inst)

    def test_serialization_is_stable(self):
        tau, copy = self.planted_setup(4)
        inst = reduction_graph(SimpleGraph.cycle(4), tau, copy)
        text = serialize_reduction_instance(inst)
        assert text == serialize_reduction_instance(inst)
        assert "original 0\n" in text and f"prime {inst.sigma[0]}\n" in text
