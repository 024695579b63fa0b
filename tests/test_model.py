"""Core model: conversions, predicates, neighborhoods, and map semantics."""

import operator
import random
import re
from itertools import combinations, permutations, product

import numpy as np
import pytest

from matpart.model import (
    BLUE,
    GREEN,
    RED,
    PartitionMatrix,
    SimpleGraph,
    SubtypeCopy,
    TypeGraph,
    block_row_distinctness,
    coloring_matrix,
    common_neighborhood,
    find_subtype_copy,
    is_embedding,
    is_friendly,
    matrix_from_type,
    rho_obstruction_family,
    rho_three_coloring,
    subtype,
    type_from_matrix,
    type_is_friendly,
    vertex_pairs,
)
from matpart.constructions import build_planted_obstruction
from matpart.randtypes import RandomSpec, plant_subtype, sample_type


def random_matrix(rng, m):
    rows = [[0] * m for _ in range(m)]
    for i in range(m):
        rows[i][i] = rng.choice((0, 1))
        for j in range(i + 1, m):
            rows[i][j] = rows[j][i] = rng.choice((0, 1, 2))
    return PartitionMatrix.from_rows(rows)


def random_type(rng, n):
    vc = tuple(rng.choice((RED, BLUE)) for _ in range(n))
    ec = tuple(rng.choice((RED, BLUE, GREEN)) for _ in range(n * (n - 1) // 2))
    return TypeGraph(vc, ec)


def all_types(n):
    pair_count = n * (n - 1) // 2
    for vc in product((RED, BLUE), repeat=n):
        for ec in product((RED, BLUE, GREEN), repeat=pair_count):
            yield TypeGraph(vc, ec)


def reference_matrix_check(entries):
    """The entry-by-entry walk that PartitionMatrix validation replaced:
    the oracle for which matrices it rejects, and with what."""
    m = len(entries)
    for i, row in enumerate(entries):
        if len(row) != m:
            raise ValueError(f"row {i} has length {len(row)}, expected {m}")
        for j, e in enumerate(row):
            if e not in (0, 1, 2):
                raise ValueError(f"bad entry {e!r} at ({i}, {j})")
    for i in range(m):
        if entries[i][i] == 2:
            raise ValueError(f"star on diagonal {i}")
        for j in range(i + 1, m):
            if entries[i][j] != entries[j][i]:
                raise ValueError(f"not symmetric ({i},{j})")


def check_outcome(check, entries):
    """None, or the type and message of the exception check raises."""
    try:
        check(entries)
    except Exception as exc:
        return type(exc), str(exc)
    return None


# replacement entries: out of range, equal to an entry under == (bool and
# float), unequal floats, strings, None and unhashable values
ODD_ENTRIES = (3, -1, True, False, 1.0, 2.0, 0.5, float("nan"), "1", None, [0], {1: 1})


class TestMatrixValidationAgainstReference:
    def test_mutated_entries(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @hypothesis.settings(
            max_examples=300, deadline=None, derandomize=True, database=None
        )
        @hypothesis.given(st.data())
        def check(data):
            m = data.draw(st.integers(1, 8), label="order")
            rows = [[0] * m for _ in range(m)]
            for i in range(m):
                rows[i][i] = data.draw(st.sampled_from((0, 1)))
                for j in range(i + 1, m):
                    rows[i][j] = rows[j][i] = data.draw(st.sampled_from((0, 1, 2)))
            for _ in range(data.draw(st.integers(1, 3), label="mutations")):
                kind = data.draw(st.sampled_from(
                    ("odd entry", "mirrored odd entry", "short row", "long row",
                     "diagonal star", "asymmetric", "unsized row")
                ))
                i = data.draw(st.integers(0, m - 1))
                j = data.draw(st.integers(0, m - 1))
                if not isinstance(rows[i], list) or j >= len(rows[i]):
                    continue
                odd = data.draw(st.sampled_from(ODD_ENTRIES))
                if kind == "odd entry":
                    rows[i][j] = odd
                elif kind == "mirrored odd entry":
                    if isinstance(rows[j], list) and i < len(rows[j]):
                        rows[i][j] = rows[j][i] = odd
                elif kind == "short row":
                    del rows[i][j]
                elif kind == "long row":
                    rows[i].insert(j, data.draw(st.sampled_from((0, 1, 2))))
                elif kind == "diagonal star" and i < len(rows[i]):
                    rows[i][i] = 2
                elif kind == "asymmetric" and i != j:
                    others = [e for e in (0, 1, 2) if e != rows[i][j]]
                    rows[i][j] = data.draw(st.sampled_from(others))
                elif kind == "unsized row":
                    rows[i] = odd
            entries = tuple(tuple(row) if isinstance(row, list) else row for row in rows)
            if isinstance(rows[0], list) and data.draw(st.booleans(), label="row 0 a list"):
                entries = (rows[0],) + entries[1:]
            expected = check_outcome(reference_matrix_check, entries)
            assert check_outcome(PartitionMatrix, entries) == expected

        check()

    def test_entries_equal_to_valid_ones_are_accepted(self):
        mat = PartitionMatrix(((False, 1.0, 2), (True, 1, 2.0), (2, 2.0, 0)))
        assert mat.m == 3

    def test_named_faults(self):
        cases = [
            (((0, [1]), ([1], 0)), "bad entry [1] at (0, 1)"),
            (((0, True), (2, 1)), "not symmetric (0,1)"),
            (((2.0,),), "star on diagonal 0"),
            (((0, 1), (1,)), "row 1 has length 1, expected 2"),
            # a mapping row that lacks its diagonal key: the walk reaches
            # the asymmetric pair before the missing key
            (((0, 1), {0: 0, 2: 0}), "not symmetric (0,1)"),
        ]
        for entries, message in cases:
            with pytest.raises(ValueError) as info:
                PartitionMatrix(entries)
            assert str(info.value) == message


class TestValidation:
    def test_matrix_rejects_star_diagonal(self):
        with pytest.raises(ValueError, match="diagonal"):
            PartitionMatrix.from_rows([[2]])

    def test_matrix_rejects_asymmetry(self):
        with pytest.raises(ValueError, match="symmetric"):
            PartitionMatrix.from_rows([[0, 1], [2, 0]])

    def test_matrix_rejects_bad_entry(self):
        with pytest.raises(ValueError, match="entry"):
            PartitionMatrix.from_rows([[5]])

    def test_type_checks_edge_count(self):
        with pytest.raises(ValueError):
            TypeGraph((RED, BLUE), ())

    def test_type_names_the_first_bad_edge_color(self):
        n = 5
        pairs = n * (n - 1) // 2
        for k in (0, 4, pairs - 1):
            colors = [GREEN] * pairs
            colors[k] = 3
            with pytest.raises(ValueError, match=f"^bad edge color 3 at pair index {k}$"):
                TypeGraph((RED,) * n, tuple(colors))
        colors = [RED] * (pairs - 2) + [7, 3]
        with pytest.raises(ValueError, match=f"color 7 at pair index {pairs - 2}$"):
            TypeGraph((RED,) * n, tuple(colors))

    def test_type_accepts_colors_equal_to_red_blue_green(self):
        tau = TypeGraph((RED, BLUE, RED), (1.0, True, 2))
        assert tau.edge(0, 1) == BLUE

    def test_type_rejects_unhashable_edge_color(self):
        with pytest.raises(ValueError, match=r"bad edge color \[1\] at pair index 1"):
            TypeGraph((RED, BLUE, RED), (RED, [1], GREEN))

    def test_graph_rejects_loops(self):
        with pytest.raises(ValueError, match="loop"):
            SimpleGraph.from_edges(2, [(0, 0)])

    def test_graph_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            SimpleGraph.from_edges(2, [(0, 2)])

    def test_copy_rejects_color_mismatch(self):
        one_red = TypeGraph((RED,), ())
        one_blue = TypeGraph((BLUE,), ())
        with pytest.raises(ValueError):
            SubtypeCopy(one_red, one_blue, (0,))


class TestConversions:
    def test_single_zero_matrix(self):
        tau = type_from_matrix(PartitionMatrix.from_rows([[0]]))
        assert tau.vertex_colors == (RED,)
        assert tau.edge_colors == ()

    def test_single_blue_vertex(self):
        assert matrix_from_type(TypeGraph((BLUE,), ())).rows == (b"\1",)

    def test_all_star_off_diagonal(self):
        tau = type_from_matrix(coloring_matrix(3))
        assert tau.vertex_colors == (RED, RED, RED)
        assert all(c == GREEN for c in tau.edge_colors)

    def test_matrix_and_type_share_rows(self):
        """One table format: a conversion wraps the same tuple of bytes rows,
        and a matrix never equals the type it reads as."""
        mat = PartitionMatrix.from_rows([[0, 2, 1], [2, 1, 0], [1, 0, 0]])
        assert mat.rows == (b"\0\2\1", b"\2\1\0", b"\1\0\0")
        tau = type_from_matrix(mat)
        assert tau.rows is mat.rows
        assert matrix_from_type(tau).rows is mat.rows
        assert matrix_from_type(tau) == mat and tau != mat

    def test_family_pattern_diagonal(self):
        mat = matrix_from_type(rho_obstruction_family())
        assert tuple(mat.rows[i][i] for i in range(6)) == (0, 0, 0, 1, 1, 1)

    def test_round_trip_from_matrices(self):
        rng = random.Random(11)
        for _ in range(100):
            mat = random_matrix(rng, rng.randint(1, 6))
            assert matrix_from_type(type_from_matrix(mat)) == mat

    def test_round_trip_from_types(self):
        rng = random.Random(12)
        for _ in range(100):
            tau = random_type(rng, rng.randint(1, 6))
            assert type_from_matrix(matrix_from_type(tau)) == tau

    @pytest.mark.parametrize("model", ["friendly", "general"])
    def test_round_trip_from_sampled_types(self, model):
        rng = random.Random(f"conversions-{model}")
        types = [TypeGraph((), ())]
        types += [
            sample_type(RandomSpec(n, model, rng.randrange(1000)))
            for n in [1, 2] + [rng.randint(3, 40) for _ in range(15)]
        ]
        for tau in types:
            mat = matrix_from_type(tau)
            assert mat.m == tau.n
            assert type_from_matrix(mat) == tau
            assert matrix_from_type(type_from_matrix(mat)) == mat

    def test_matches_per_pair_lookup(self):
        """matrix_from_type and type_is_friendly against one tau.edge call per
        pair, on a planted 30-vertex type and a sampled type of each model."""

        def per_pair_matrix(tau):
            return PartitionMatrix.from_rows(
                [tau.vertex_colors[i] if i == j else tau.edge(i, j) for j in range(tau.n)]
                for i in range(tau.n)
            )

        def per_pair_friendly(tau):
            return not any(
                tau.edge(i, j) == GREEN and tau.vertex_colors[i] == tau.vertex_colors[j]
                for i, j in vertex_pairs(tau.n)
            )

        planted = plant_subtype(
            sample_type(RandomSpec(15, "friendly", 3)),
            rho_obstruction_family(),
            [2, 7, 11, 16, 20, 29],
        )
        types = [
            planted,
            sample_type(RandomSpec(15, "friendly", 4)),
            sample_type(RandomSpec(30, "general", 5)),
        ]
        assert [per_pair_friendly(tau) for tau in types] == [True, True, False]
        for tau in types:
            assert matrix_from_type(tau) == per_pair_matrix(tau)
            assert type_is_friendly(tau) == per_pair_friendly(tau)


class TestColoringAndHomomorphismMatrices:
    def test_coloring_matrix_one(self):
        assert coloring_matrix(1).rows == (b"\0",)

    def test_coloring_matrix_rejects_zero(self):
        with pytest.raises(ValueError):
            coloring_matrix(0)


class TestFriendliness:
    def test_displayed_submatrices_are_unfriendly(self):
        assert not is_friendly(PartitionMatrix.from_rows([[0, 2], [2, 0]]))
        assert not is_friendly(PartitionMatrix.from_rows([[1, 2], [2, 1]]))

    def test_family_pattern_is_friendly(self):
        assert is_friendly(matrix_from_type(rho_obstruction_family()))

    def test_matches_type_side_check(self):
        rng = random.Random(13)
        for _ in range(1000):
            mat = random_matrix(rng, rng.randint(1, 6))
            assert is_friendly(mat) == type_is_friendly(type_from_matrix(mat))

    @pytest.mark.parametrize("model", ["friendly", "general"])
    def test_matches_pair_walk(self, model):
        """Both checks against the per-pair walk, on sampled types, on
        planted copies of each pattern, and with one green edge planted
        between two vertices of one color at a random pair."""
        rng = random.Random(f"friendly-walk-{model}")
        types = [TypeGraph((), ())]
        for n in [1, 2, 3] + [rng.randint(4, 60) for _ in range(20)]:
            tau = sample_type(RandomSpec(n, model, rng.randrange(1000)))
            types.append(tau)
            for pattern in (rho_obstruction_family(), rho_three_coloring()):
                reds = [v for v in range(tau.n) if tau.vertex_colors[v] == RED]
                blues = [v for v in range(tau.n) if tau.vertex_colors[v] == BLUE]
                by_color = {RED: reds, BLUE: blues}
                if all(
                    pattern.vertex_colors.count(c) <= len(by_color[c]) for c in (RED, BLUE)
                ):
                    pools = {c: rng.sample(by_color[c], len(by_color[c])) for c in (RED, BLUE)}
                    position = [pools[c].pop() for c in pattern.vertex_colors]
                    types.append(plant_subtype(tau, pattern, position))
            same = [
                k for k, (i, j) in enumerate(vertex_pairs(n))
                if tau.vertex_colors[i] == tau.vertex_colors[j]
            ]
            if same:
                colors = list(tau.edge_colors)
                colors[rng.choice(same)] = GREEN
                types.append(TypeGraph(tau.vertex_colors, tuple(colors)))
        verdicts = [reference_type_is_friendly(tau) for tau in types]
        assert True in verdicts and False in verdicts
        for tau, expected in zip(types, verdicts):
            mat = matrix_from_type(tau)
            assert type_is_friendly(tau) == expected
            assert is_friendly(mat) == reference_is_friendly(mat) == expected

    def test_violation_in_every_row(self):
        """A single same-color green edge is found wherever it sits,
        including the first and the last pair."""
        for n in (2, 3, 9, 40):
            vc = tuple(RED if v % 3 else BLUE for v in range(n))
            for k, (i, j) in enumerate(vertex_pairs(n)):
                colors = [RED] * (n * (n - 1) // 2)
                colors[k] = GREEN
                tau = TypeGraph(vc, tuple(colors))
                expected = vc[i] != vc[j]
                assert type_is_friendly(tau) == expected
                assert is_friendly(matrix_from_type(tau)) == expected

    def test_values_equal_to_ints(self):
        """Validation accepts entries such as 2.0 and True; the checks read
        them as the ints they equal."""
        mat = PartitionMatrix.from_rows([[0, 1.0, 2.0], [1.0, 1, 2], [2.0, 2, True]])
        assert is_friendly(mat) == reference_is_friendly(mat) is False
        tau = TypeGraph((RED, 1.0, True), (2.0, RED, GREEN))
        assert type_is_friendly(tau) == reference_type_is_friendly(tau) is False
        tau = TypeGraph((RED, 1.0, True), (2.0, 0.0, BLUE))
        assert type_is_friendly(tau) == reference_type_is_friendly(tau) is True


def reference_is_friendly(mat):
    """model.is_friendly as one walk over the pairs."""
    return not any(
        mat.rows[i][j] == 2 and mat.rows[i][i] == mat.rows[j][j]
        for i, j in vertex_pairs(mat.m)
    )


def reference_type_is_friendly(tau):
    """model.type_is_friendly as one walk over the pairs."""
    vc = tau.vertex_colors
    return not any(
        c == GREEN and vc[i] == vc[j] for (i, j), c in zip(vertex_pairs(tau.n), tau.edge_colors)
    )


class TestCommonNeighborhood:
    def test_family_pattern_red_pair(self):
        rho = rho_obstruction_family()
        assert common_neighborhood(rho, (0, 1)) == frozenset({2, 3, 4, 5})

    def test_family_pattern_intersection(self):
        rho = rho_obstruction_family()
        both = common_neighborhood(rho, (0, 1)) & common_neighborhood(rho, (3, 4))
        assert both == frozenset({2, 5})

    def test_empty_set_gives_everything(self):
        rng = random.Random(14)
        for _ in range(20):
            tau = random_type(rng, rng.randint(1, 6))
            assert common_neighborhood(tau, ()) == frozenset(range(tau.n))

    def test_monotone_under_superset(self):
        rng = random.Random(15)
        for _ in range(200):
            tau = random_type(rng, rng.randint(2, 7))
            small = set(rng.sample(range(tau.n), rng.randint(0, tau.n - 1)))
            big = small | {rng.randrange(tau.n)}
            assert common_neighborhood(tau, big) <= common_neighborhood(tau, small)


class TestSubtype:
    def test_full_vertex_set_is_identity(self):
        rng = random.Random(16)
        for _ in range(20):
            tau = random_type(rng, rng.randint(1, 6))
            assert subtype(tau, range(tau.n)) == tau

    def test_family_pattern_r1_b1(self):
        sub = subtype(rho_obstruction_family(), (0, 3))
        assert sub.vertex_colors == (RED, BLUE)
        assert sub.edge_colors == (GREEN,)

    def test_size(self):
        rng = random.Random(17)
        for _ in range(50):
            tau = random_type(rng, rng.randint(1, 7))
            keep = rng.sample(range(tau.n), rng.randint(0, tau.n))
            assert subtype(tau, keep).n == len(set(keep))


class TestFindSubtypeCopy:
    def test_identity_copy(self):
        rho = rho_obstruction_family()
        copy = find_subtype_copy(rho, rho)
        assert copy is not None and copy.image == (0, 1, 2, 3, 4, 5)

    def test_all_red_host_has_no_copy(self):
        host = TypeGraph((RED,) * 8 + (BLUE,) * 8, (RED,) * (16 * 15 // 2))
        assert find_subtype_copy(host, rho_obstruction_family()) is None

    def test_found_after_planting(self):
        rho = rho_obstruction_family()
        rng = random.Random(18)
        for seed in range(10):
            tau = sample_type(RandomSpec(8, "friendly", seed))
            reds = sorted(rng.sample(range(8), 3))
            blues = sorted(rng.sample(range(8, 16), 3))
            planted = plant_subtype(tau, rho, reds + blues)
            copy = find_subtype_copy(planted, rho)
            assert copy is not None
            SubtypeCopy(rho, planted, copy.image)  # validates exactness

    def test_least_image_matches_brute_force(self):
        rng = random.Random(19)
        found = 0
        for _ in range(300):
            host = random_type(rng, rng.randint(3, 7))
            for pattern in (rho_obstruction_family(), rho_three_coloring()):
                reds, blues = host.red_vertices(), host.blue_vertices()
                nr, nb = len(pattern.red_vertices()), len(pattern.blue_vertices())
                if rng.random() < 0.75 and len(reds) >= nr and len(blues) >= nb:
                    # pattern vertices list reds before blues
                    position = rng.sample(reds, nr) + rng.sample(blues, nb)
                    host = plant_subtype(host, pattern, position)
                copy = find_subtype_copy(host, pattern)
                expected = least_copy_by_brute_force(host, pattern)
                assert (copy and copy.image) == expected
                found += expected is not None
        assert found >= 100


def least_copy_by_brute_force(host, pattern):
    """First injective image in lexicographic order with exact colors."""
    for image in permutations(range(host.n), pattern.n):
        if all(
            host.vertex_colors[h] == pattern.vertex_colors[k] for k, h in enumerate(image)
        ) and all(
            host.edge(image[k], image[l]) == pattern.edge(k, l)
            for k, l in vertex_pairs(pattern.n)
        ):
            return image
    return None


def reference_is_embedding(g, tau, psi):
    """is_embedding with one has_edge and one tau.edge lookup per pair."""
    for u, v in vertex_pairs(g.n):
        s, t = psi[u], psi[v]
        if s == t:
            if tau.vertex_colors[s] != (BLUE if g.has_edge(u, v) else RED):
                return False
        elif tau.edge(s, t) == (RED if g.has_edge(u, v) else BLUE):
            return False
    return True


def embedded_graph(rng, tau, psi):
    """A random graph that psi embeds into tau: a pair is an edge where
    its image entry is blue, a non-edge where it is red, either on green."""
    edges = []
    for u, v in vertex_pairs(len(psi)):
        c = tau.rows[psi[u]][psi[v]]
        if c == BLUE or (c == GREEN and rng.random() < 0.5):
            edges.append((u, v))
    return SimpleGraph.from_edges(len(psi), edges)


class TestEmbedding:
    def test_matches_per_pair_lookup(self):
        """Random maps of graphs of 0 to 24 vertices, and maps that differ
        from a true embedding only in their last entries, where the walk
        from the highest-numbered vertex down meets the fault first."""
        rng = random.Random(23)
        verdicts = set()
        for _ in range(400):
            tau = random_type(rng, rng.randint(1, 5))
            n = rng.randint(0, 24)
            g = SimpleGraph.from_edges(n, [e for e in vertex_pairs(n) if rng.random() < 0.5])
            psi = [rng.randrange(tau.n) for _ in range(n)]
            verdict = is_embedding(g, tau, psi)
            assert verdict == reference_is_embedding(g, tau, psi)
            verdicts.add(verdict)
        assert verdicts == {True, False}
        verdicts = set()
        for _ in range(300):
            tau = random_type(rng, rng.randint(1, 6))
            n = rng.randint(1, 24)
            psi = [rng.randrange(tau.n) for _ in range(n)]
            g = embedded_graph(rng, tau, psi)
            assert is_embedding(g, tau, psi)
            for k in range(1, min(n, 3) + 1):
                changed = psi[: n - k] + [rng.randrange(tau.n) for _ in range(k)]
                verdict = is_embedding(g, tau, changed)
                assert verdict == reference_is_embedding(g, tau, changed)
                verdicts.add(verdict)
        assert verdicts == {True, False}

    def test_restricted_gadget_maps_match_per_pair_lookup(self):
        """Every one of the 4^m restricted placements of seeded gadgets, the
        maps restricted_placement_unsat walks, gets the per-pair verdict."""
        checked = 0
        for seed, n, m in ((0, 10, 1), (1, 11, 2), (2, 12, 3), (3, 10, 4)):
            inst = build_planted_obstruction(n, m, seed)
            r1, r2, _, b1, b2, _ = inst.rho_copy.image
            for xs in product((r1, r2), repeat=m):
                for ys in product((b1, b2), repeat=m):
                    psi = list(inst.sigma) + list(xs) + list(ys)
                    verdict = is_embedding(inst.graph, inst.tau, psi)
                    assert verdict == reference_is_embedding(inst.graph, inst.tau, psi)
                    checked += 1
        assert checked == 4 + 16 + 64 + 256

    def test_adjacency_agrees_with_has_edge(self):
        rng = random.Random(29)
        for n in list(range(6)) + [rng.randint(6, 70) for _ in range(20)]:
            g = SimpleGraph.from_edges(n, [e for e in vertex_pairs(n) if rng.random() < 0.4])
            assert len(g.adjacency) == n
            for u in range(n):
                for v in range(n):
                    assert bool(g.adjacency[u] >> v & 1) == (u != v and g.has_edge(u, v))
                assert g.adjacency[u] >> n == 0

    def test_rejects_bad_maps(self):
        tau = TypeGraph((RED, BLUE), (GREEN,))
        with pytest.raises(ValueError, match="^map has 1 entries, graph has 2 vertices$"):
            is_embedding(SimpleGraph.empty(2), tau, (0,))
        with pytest.raises(ValueError, match="^image vertex 2 outside type$"):
            is_embedding(SimpleGraph.empty(2), tau, (0, 2))
        # -1 would index the last row; the range check must come first
        with pytest.raises(ValueError, match="^image vertex -1 outside type$"):
            is_embedding(SimpleGraph.complete(3), tau, (0, 1, -1))
        with pytest.raises(ValueError, match="^image vertex -1 outside type$"):
            is_embedding(SimpleGraph.empty(2), tau, (-1, 0))

    def test_rejects_non_integer_entries(self):
        """Both map checks name an entry that is no integer, even where the
        graph or type has no pair to read it; bools and numpy integers are
        integers."""
        tau = TypeGraph((RED, BLUE), (GREEN,))
        for psi, k in [((0, 1.0), 1), ((1.0,), 0), (("0", 1), 0), ((np.float64(0), 0), 0)]:
            message = f"^image vertex {re.escape(repr(psi[k]))} is not an integer$"
            with pytest.raises(ValueError, match=message):
                is_embedding(SimpleGraph.empty(len(psi)), tau, psi)
            sigma = TypeGraph((RED,) * len(psi), (GREEN,) * (len(psi) - 1))
            with pytest.raises(ValueError, match=message):
                is_edge_homomorphism(sigma, tau, psi)
        psi = (np.int64(1), True)
        assert not is_embedding(SimpleGraph.empty(2), tau, psi)
        assert is_embedding(SimpleGraph.complete(2), tau, psi)
        assert is_edge_homomorphism(TypeGraph((RED, BLUE), (GREEN,)), tau, psi)


    def test_edge_into_blue_vertex(self):
        k2 = SimpleGraph.from_edges(2, [(0, 1)])
        assert is_embedding(k2, TypeGraph((BLUE,), ()), (0, 0))

    def test_edge_into_red_vertex_fails(self):
        k2 = SimpleGraph.from_edges(2, [(0, 1)])
        assert not is_embedding(k2, TypeGraph((RED,), ()), (0, 0))

    def test_empty_graph_embeds_vacuously(self):
        assert is_embedding(SimpleGraph.empty(0), TypeGraph((), ()), ())

    def test_non_edge_across_blue_edge_fails(self):
        two = SimpleGraph.empty(2)
        tau = TypeGraph((BLUE, BLUE), (BLUE,))
        assert not is_embedding(two, tau, (0, 1))


class TestHomomorphisms:
    def test_inclusion_is_both(self):
        rng = random.Random(19)
        for _ in range(50):
            tau = random_type(rng, rng.randint(1, 6))
            keep = sorted(rng.sample(range(tau.n), rng.randint(1, tau.n)))
            sigma = subtype(tau, keep)
            inclusion = tuple(keep)
            assert is_edge_homomorphism(sigma, tau, inclusion)
            assert reference_is_type_homomorphism(sigma, tau, inclusion)

    def test_red_edge_collapse_to_red_vertex(self):
        sigma = TypeGraph((RED, RED), (RED,))
        tau = TypeGraph((RED,), ())
        assert is_edge_homomorphism(sigma, tau, (0, 0))

    def test_red_edge_onto_blue_edge_fails(self):
        sigma = TypeGraph((RED, RED), (RED,))
        tau = TypeGraph((RED, RED), (BLUE,))
        assert not is_edge_homomorphism(sigma, tau, (0, 1))

    def test_type_homs_are_edge_homs(self):
        small = list(all_types(2))
        for sigma in small:
            for tau in small:
                for phi in product(range(2), repeat=2):
                    if reference_is_type_homomorphism(sigma, tau, phi):
                        assert is_edge_homomorphism(sigma, tau, phi)

    def test_composition_with_type_hom_is_embedding(self):
        graphs = [
            SimpleGraph.from_edges(3, edges)
            for edges in [
                [],
                [(0, 1)],
                [(0, 1), (1, 2)],
                [(0, 1), (1, 2), (0, 2)],
            ]
        ]
        two_types = list(all_types(2))
        for g in graphs:
            for sigma in two_types:
                embeddings = [
                    psi
                    for psi in product(range(2), repeat=3)
                    if is_embedding(g, sigma, psi)
                ]
                if not embeddings:
                    continue
                for tau in two_types:
                    for phi in product(range(2), repeat=2):
                        if not reference_is_type_homomorphism(sigma, tau, phi):
                            continue
                        for psi in embeddings:
                            assert is_embedding(g, tau, tuple(phi[x] for x in psi))


class TestBlockRows:
    def test_two_coloring_block_distinct(self):
        assert block_row_distinctness(coloring_matrix(2)).a_rows_distinct

    def test_all_zero_matrix_not_distinct(self):
        rep = block_row_distinctness(PartitionMatrix.from_rows([[0, 0], [0, 0]]))
        assert not rep.a_rows_distinct
        assert rep.no_three_rows_equal_a  # only two equal rows

    def test_three_equal_rows_flagged(self):
        rep = block_row_distinctness(
            PartitionMatrix.from_rows([[0, 0, 0], [0, 0, 0], [0, 0, 0]])
        )
        assert not rep.no_three_rows_equal_a
        assert rep.b_rows_distinct  # empty block


def is_split_graph(g):
    """Can the vertices be partitioned into a clique and an independent set?

    Uses the degree-sequence characterization: with degrees sorted
    descending and m = max{i : d_i >= i-1}, the graph is split iff
    sum_{i<=m} d_i = m(m-1) + sum_{i>m} d_i.
    """
    degrees = sorted((sum(v in e for e in g.edges) for v in range(g.n)), reverse=True)
    m = 0
    for i, d in enumerate(degrees, start=1):
        if d >= i - 1:
            m = i
    return sum(degrees[:m]) == m * (m - 1) + sum(degrees[m:])


class TestSplitGraph:
    def brute_force_split(self, g):
        verts = range(g.n)
        for r in range(g.n + 1):
            for clique in combinations(verts, r):
                cs = set(clique)
                if all(g.has_edge(u, v) for u, v in combinations(clique, 2)) and all(
                    not g.has_edge(u, v)
                    for u, v in combinations([v for v in verts if v not in cs], 2)
                ):
                    return True
        return False

    def test_examples(self):
        assert is_split_graph(SimpleGraph.complete(4))
        assert not is_split_graph(SimpleGraph.cycle(5))
        assert is_split_graph(SimpleGraph.path(3))

    def test_against_brute_force(self):
        rng = random.Random(20)
        for _ in range(200):
            n = rng.randint(0, 7)
            edges = [e for e in vertex_pairs(n) if rng.random() < 0.5]
            g = SimpleGraph.from_edges(n, edges)
            assert is_split_graph(g) == self.brute_force_split(g)


class TestValuesAreHashable:
    def test_values_built_from_lists(self):
        """Lists are copied into the stored form, so the values hash and
        equal their twins built from tuples."""
        tau = TypeGraph([RED, BLUE], [GREEN])
        twin = TypeGraph((RED, BLUE), (GREEN,))
        assert tau == twin and hash(tau) == hash(twin)
        mat = PartitionMatrix(([0, 1], [1, 0]))
        twin_mat = PartitionMatrix(((0, 1), (1, 0)))
        assert mat == twin_mat and hash(mat) == hash(twin_mat)
        mat = PartitionMatrix([(0, 2, 1), [2, 1, 0], (1, 0, 0)])
        assert mat == PartitionMatrix.from_rows([[0, 2, 1], [2, 1, 0], [1, 0, 0]])
        assert len({mat, PartitionMatrix(((0, 2, 1), (2, 1, 0), (1, 0, 0)))}) == 1

    def test_mapping_row_values_are_checked(self):
        """A mapping row is stored by its values, so its values must be
        entries, not only its keys."""
        with pytest.raises(ValueError, match=r"^bad entry 7 at \(1, 1\)$"):
            PartitionMatrix(((0, 1), {0: 1, 1: 7}))
        assert PartitionMatrix(((0, 1), {0: 1, 1: 0})).rows == (b"\0\1", b"\1\0")


class TestEdgeBounds:
    def test_edge_rejects_a_vertex_and_indices_outside(self):
        tau = rho_obstruction_family()
        for i, j in [(0, 0), (5, 5), (-1, 2), (2, -1), (-1, -2), (0, 6), (6, 0), (7, 7)]:
            lo, hi = min(i, j), max(i, j)
            with pytest.raises(ValueError, match=rf"^bad pair \({lo}, {hi}\) for n=6$"):
                tau.edge(i, j)
        with pytest.raises(ValueError):
            TypeGraph((), ()).edge(0, 1)
        assert tau.edge(5, 1) == tau.edge(1, 5) == RED
        assert tau.edge(3, 0) == GREEN


def is_edge_homomorphism(sigma, tau, phi):
    """Red edges may collapse into red vertices or cross red/green edges;
    blue edges likewise with blue; green edges are unconstrained.  So a
    red or blue entry of sigma's row table goes to the same color or to
    green in tau's.  A map of the wrong length, or with an entry that is
    outside tau or no integer, raises ValueError."""
    if len(phi) != sigma.n:
        raise ValueError(f"map has {len(phi)} entries, type has {sigma.n} vertices")
    try:
        for t in phi:
            if not 0 <= operator.index(t) < tau.n:
                raise ValueError(f"image vertex {t} outside target type")
    except TypeError:
        raise ValueError(f"image vertex {t!r} is not an integer") from None
    rows = tau.rows
    for v, w in vertex_pairs(sigma.n):
        c = sigma.rows[v][w]
        if c != GREEN and rows[phi[v]][phi[w]] not in (c, GREEN):
            return False
    return True


def reference_is_edge_homomorphism(sigma, tau, phi):
    """is_edge_homomorphism with one edge lookup per pair of sigma."""
    for v, w in vertex_pairs(sigma.n):
        c = sigma.edge(v, w)
        if c == GREEN:
            continue
        s, t = phi[v], phi[w]
        if s == t:
            if tau.vertex_colors[s] != c:
                return False
        elif tau.edge(s, t) not in (c, GREEN):
            return False
    return True


def reference_is_type_homomorphism(sigma, tau, phi):
    """Type homomorphism: an edge-homomorphism that keeps every vertex color
    and sends every green edge across a green edge, one lookup per vertex
    and pair of sigma."""
    if not reference_is_edge_homomorphism(sigma, tau, phi):
        return False
    if any(sigma.vertex_colors[v] != tau.vertex_colors[phi[v]] for v in range(sigma.n)):
        return False
    return all(
        phi[v] != phi[w] and tau.edge(phi[v], phi[w]) == GREEN
        for v, w in vertex_pairs(sigma.n)
        if sigma.edge(v, w) == GREEN
    )


def reference_common_neighborhood(tau, members):
    """common_neighborhood with one edge lookup per vertex and member."""
    result = set()
    for v in range(tau.n):
        if v in members:
            continue
        colors = [tau.edge(v, a) for a in members]
        if not (RED in colors and BLUE in colors):
            result.add(v)
    return frozenset(result)


def reference_copy_is_valid(pattern, host, image):
    """Whether SubtypeCopy accepts the image, one lookup per vertex and pair."""
    return (
        len(image) == pattern.n
        and len(set(image)) == len(image)
        and all(0 <= h < host.n for h in image)
        and all(pattern.vertex_colors[k] == host.vertex_colors[h] for k, h in enumerate(image))
        and all(
            pattern.edge(k, l) == host.edge(image[k], image[l])
            for k, l in vertex_pairs(pattern.n)
        )
    )


def copy_is_valid(pattern, host, image):
    try:
        SubtypeCopy(pattern, host, tuple(image))
    except ValueError:
        return False
    return True


def sampled_types():
    rng = random.Random("table-references")
    return [
        sample_type(RandomSpec(n, model, rng.randrange(1000)))
        for model in ("friendly", "general")
        for n in (1, 2, 3, 5, 9, 20)
    ]


class TestTablePredicatesAgainstPerPairDefinitions:
    """The predicates that read the row table against per-pair definitions
    on edge() and vertex_colors: every type on three vertices with every
    map into or from small types, and sampled types of both models."""

    def small_pairs(self):
        rng = random.Random(31)
        others = [random_type(rng, n) for n in (1, 2, 3, 4)]
        for t in all_types(3):
            yield t, t
            for other in others:
                yield t, other
                yield other, t

    def test_homomorphisms_on_all_three_vertex_types(self):
        seen = set()
        for sigma, tau in self.small_pairs():
            for phi in product(range(tau.n), repeat=sigma.n):
                edge = is_edge_homomorphism(sigma, tau, phi)
                typed = reference_is_type_homomorphism(sigma, tau, phi)
                assert edge == reference_is_edge_homomorphism(sigma, tau, phi)
                seen.add((edge, typed))
        assert seen == {(False, False), (True, False), (True, True)}

    def test_homomorphisms_on_sampled_types(self):
        rng = random.Random(32)
        seen = set()
        for tau in sampled_types():
            for _ in range(40):
                keep = sorted(rng.sample(range(tau.n), rng.randint(1, min(tau.n, 6))))
                sigma = subtype(tau, keep)
                for phi in (keep, [rng.randrange(tau.n) for _ in keep]):
                    edge = is_edge_homomorphism(sigma, tau, phi)
                    typed = reference_is_type_homomorphism(sigma, tau, phi)
                    assert edge == reference_is_edge_homomorphism(sigma, tau, phi)
                    seen.add((edge, typed))
        assert seen == {(False, False), (True, False), (True, True)}

    def test_common_neighborhood(self):
        rng = random.Random(33)
        cases = [
            (tau, members)
            for tau in all_types(3)
            for k in range(4)
            for members in combinations(range(3), k)
        ]
        for tau in sampled_types():
            cases += [
                (tau, rng.sample(range(tau.n), rng.randint(0, min(tau.n, 4))))
                for _ in range(20)
            ]
        for tau, members in cases:
            assert common_neighborhood(tau, members) == reference_common_neighborhood(
                tau, members
            )

    def test_subtype_copy_validation(self):
        rng = random.Random(34)
        cases = [
            (pattern, host, image)
            for pattern in all_types(2)
            for host in all_types(3)
            for image in product(range(-1, 4), repeat=2)
        ]
        cases += [(pattern, host, (0,)) for pattern in all_types(2) for host in all_types(3)]
        for host in sampled_types():
            for _ in range(20):
                keep = sorted(rng.sample(range(host.n), rng.randint(0, min(host.n, 6))))
                pattern = subtype(host, keep)
                shuffled = rng.sample(keep, len(keep))
                guessed = [rng.randrange(host.n) for _ in keep]
                cases += [(pattern, host, image) for image in (keep, shuffled, guessed)]
        verdicts = set()
        for pattern, host, image in cases:
            verdict = copy_is_valid(pattern, host, image)
            assert verdict == reference_copy_is_valid(pattern, host, image)
            verdicts.add(verdict)
        assert verdicts == {True, False}

    def test_public_constructor_gives_the_type_back(self):
        for tau in list(all_types(3)) + sampled_types() + [TypeGraph((), ())]:
            twin = TypeGraph(tau.vertex_colors, tau.edge_colors)
            assert twin == tau and hash(twin) == hash(tau)
