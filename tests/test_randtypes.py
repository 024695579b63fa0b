"""Generator determinism and statistics, exact scenario probabilities vs
simulation, tail bounds, neighborhood-bound checkers vs direct evaluation,
and Monte Carlo aggregation."""

import math
import random
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from matpart.model import (
    BLUE,
    GREEN,
    RED,
    TypeGraph,
    common_neighborhood,
    find_subtype_copy,
    rho_obstruction_family,
    type_is_friendly,
)
from matpart.randtypes import (
    EXHAUSTIVE_TUPLE_LIMIT,
    LEMMA_CHUNK,
    LEMMA_THRESHOLDS,
    LemmaReport,
    MCProperty,
    MembershipScenario,
    RandomSpec,
    _nsize_draws,
    _sample,
    _set_draws,
    chernoff_exponent,
    chernoff_tail_bound,
    check_neighborhood_lemma,
    choose_plant_positions,
    color_matrix,
    exact_membership_probability,
    exhaustive_tuple_space,
    monte_carlo,
    part_i_violation_probability,
    plant_subtype,
    sample_type,
    splitmix_draw,
)
from matpart.textio import ParseError, parse_experiment_spec


class TestSampling:
    def test_same_seed_same_type(self):
        for model in ("friendly", "general"):
            spec = RandomSpec(12, model, 424242)
            assert sample_type(spec) == sample_type(spec)

    def test_different_seeds_differ(self):
        a = sample_type(RandomSpec(20, "general", 0))
        b = sample_type(RandomSpec(20, "general", 1))
        assert a != b

    def test_friendly_structure(self):
        for seed in range(20):
            tau = sample_type(RandomSpec(9, "friendly", seed))
            assert type_is_friendly(tau)
            assert len(tau.red_vertices()) == 9
            assert len(tau.blue_vertices()) == 9
            assert tau.red_vertices() == tuple(range(9))

    def test_stream_layout_matches_scalar_reference(self):
        # friendly: pair t gets draw index t; same-class mod 2, cross mod 3
        spec = RandomSpec(4, "friendly", 3141)
        tau = sample_type(spec)
        t = 0
        for i in range(8):
            for j in range(i + 1, 8):
                draw = splitmix_draw(3141, t)
                if (i < 4) == (j < 4):
                    assert tau.edge(i, j) == draw % 2
                else:
                    assert tau.edge(i, j) == draw % 3
                t += 1
        # general: vertex v gets index v, pair t gets index n + t
        spec = RandomSpec(6, "general", 2718)
        tau = sample_type(spec)
        for v in range(6):
            assert tau.vertex_colors[v] == splitmix_draw(2718, v) % 2
        t = 0
        for i in range(6):
            for j in range(i + 1, 6):
                assert tau.edge(i, j) == splitmix_draw(2718, 6 + t) % 3
                t += 1

    def test_general_color_frequencies_within_four_sigma(self):
        counts = {RED: 0, BLUE: 0, GREEN: 0}
        per_type = 100 * 99 // 2
        seeds = 200
        for seed in range(seeds):
            tau = sample_type(RandomSpec(100, "general", seed))
            for c in (RED, BLUE, GREEN):
                counts[c] += sum(1 for e in tau.edge_colors if e == c)
        total = per_type * seeds
        sigma = math.sqrt(total * (1 / 3) * (2 / 3))
        for c in (RED, BLUE, GREEN):
            assert abs(counts[c] - total / 3) <= 4 * sigma


class TestPlanting:
    def test_copy_found_after_planting(self):
        rho = rho_obstruction_family()
        tau = sample_type(RandomSpec(7, "friendly", 5))
        planted = plant_subtype(tau, rho, (0, 1, 2, 7, 8, 9))
        assert find_subtype_copy(planted, rho) is not None

    def test_planting_preserves_friendliness(self):
        rho = rho_obstruction_family()
        for seed in range(20):
            tau = sample_type(RandomSpec(6, "friendly", seed))
            planted = plant_subtype(tau, rho, (1, 3, 5, 6, 8, 10))
            assert type_is_friendly(planted)

    def test_planting_is_idempotent(self):
        rho = rho_obstruction_family()
        tau = sample_type(RandomSpec(7, "friendly", 6))
        once = plant_subtype(tau, rho, (0, 2, 4, 7, 9, 11))
        twice = plant_subtype(once, rho, (0, 2, 4, 7, 9, 11))
        assert once == twice

    def test_color_mismatch_rejected(self):
        rho = rho_obstruction_family()
        tau = sample_type(RandomSpec(7, "friendly", 7))
        with pytest.raises(ValueError, match="color"):
            plant_subtype(tau, rho, (0, 1, 7, 2, 8, 9))  # blue slot gets red vertex

    def test_everything_outside_untouched(self):
        rho = rho_obstruction_family()
        tau = sample_type(RandomSpec(8, "friendly", 8))
        position = (0, 1, 2, 8, 9, 10)
        planted = plant_subtype(tau, rho, position)
        inside = set(position)
        for i in range(16):
            for j in range(i + 1, 16):
                if not (i in inside and j in inside):
                    assert planted.edge(i, j) == tau.edge(i, j)


def generic_pair_scenario(extra_sets=()):
    return MembershipScenario(
        "friendly",
        RED,
        (("r1", RED), ("r2", RED), ("b1", BLUE), ("b2", BLUE)),
        (("r1", "r2"), ("b1", "b2")) + tuple(extra_sets),
    )


class TestExactProbabilities:
    def test_generic_pair_scenario(self):
        assert exact_membership_probability(generic_pair_scenario()).value == Fraction(
            7, 18
        )

    def test_overlapping_third_set(self):
        result = exact_membership_probability(
            generic_pair_scenario(extra_sets=(("r1", "b1"),))
        )
        assert result.value == Fraction(5, 18)

    def test_general_three_set(self):
        scenario = MembershipScenario(
            "general",
            RED,
            (("a", RED), ("b", RED), ("c", BLUE)),
            (("a", "b", "c"),),
        )
        assert exact_membership_probability(scenario).value == Fraction(15, 27)

    def test_monotone_as_sets_are_added(self):
        rng = random.Random(9)
        names = ["v0", "v1", "v2", "v3", "v4"]
        for _ in range(50):
            vertices = tuple((nm, rng.choice((RED, BLUE))) for nm in names)
            model = rng.choice(("friendly", "general"))
            candidate = rng.choice((RED, BLUE))
            sets = []
            last = Fraction(2)
            for _ in range(3):
                size = rng.randint(1, 4)
                sets.append(tuple(rng.sample(names, size)))
                scenario = MembershipScenario(model, candidate, vertices, tuple(sets))
                value = exact_membership_probability(scenario).value
                assert value <= last
                last = value

    def empirical_membership(self, n, seeds, tuple_vertices, sets, candidate_color):
        hits = trials = 0
        for seed in range(seeds):
            tau = sample_type(RandomSpec(n, "friendly", seed))
            neighborhoods = [common_neighborhood(tau, s) for s in sets]
            special = set().union(*sets)
            for v in range(2 * n):
                if v in special or tau.vertex_colors[v] != candidate_color:
                    continue
                trials += 1
                hits += all(v in nb for nb in neighborhoods)
        return hits, trials

    def test_exact_matches_simulation_generic(self):
        n = 30
        hits, trials = self.empirical_membership(
            n, 60, None, [(0, 1), (n, n + 1)], RED
        )
        p = 7 / 18
        sigma = math.sqrt(trials * p * (1 - p))
        assert abs(hits - trials * p) <= 4 * sigma

    def test_exact_matches_simulation_overlap(self):
        n = 30
        hits, trials = self.empirical_membership(
            n, 60, None, [(0, 1), (n, n + 1), (0, n)], RED
        )
        p = 5 / 18
        sigma = math.sqrt(trials * p * (1 - p))
        assert abs(hits - trials * p) <= 4 * sigma

    def test_exact_matches_simulation_general_three_set(self):
        hits = trials = 0
        for seed in range(60):
            tau = sample_type(RandomSpec(40, "general", seed))
            nb = common_neighborhood(tau, (0, 1, 2))
            for v in range(3, 40):
                trials += 1
                hits += v in nb
        p = 15 / 27
        sigma = math.sqrt(trials * p * (1 - p))
        assert abs(hits - trials * p) <= 4 * sigma


class TestChernoff:
    def test_reference_value(self):
        bound = chernoff_tail_bound(Fraction(1, 8), 100)
        assert chernoff_exponent(Fraction(1, 8), 100) == Fraction(686, 4608)
        assert math.isclose(bound, math.exp(-686 / 4608), rel_tol=1e-12)
        assert abs(bound - 0.8617) < 5e-4

    def test_strictly_decreasing_in_n(self):
        values = [chernoff_tail_bound(Fraction(1, 8), n) for n in range(10, 200)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_domain_guards(self):
        with pytest.raises(ValueError):
            chernoff_tail_bound(0, 100)
        with pytest.raises(ValueError):
            chernoff_tail_bound(Fraction(3, 2), 100)
        with pytest.raises(ValueError):
            chernoff_tail_bound(Fraction(1, 8), 2)


class TestPartIViolationProbability:
    def test_matches_direct_binomial_sum(self):
        p = Fraction(7, 18)
        for n in range(3, 13):
            trials = 2 * n - 4
            direct = sum(
                math.comb(trials, j) * p**j * (1 - p) ** (trials - j)
                for j in range(trials + 1)
                if j < Fraction(2, 3) * n
            )
            assert part_i_violation_probability(n) == direct

    def test_reference_value(self):
        assert abs(float(part_i_violation_probability(200)) - 0.016654) < 5e-7

    def test_below_chernoff_bound(self):
        # 2n/3 <= (1 - 1/8) * (7/9) * (n - 2) exactly when n >= 98
        for n in range(98, 401):
            assert Fraction(2, 3) * n <= Fraction(7, 8) * Fraction(7, 9) * (n - 2)
            bound = chernoff_tail_bound(Fraction(1, 8), n)
            assert part_i_violation_probability(n) <= bound

    def test_domain_guard(self):
        assert part_i_violation_probability(2) == 1
        with pytest.raises(ValueError):
            part_i_violation_probability(1)


def brute_force_nsize(tau):
    """Direct evaluation of the pairwise bounds via common_neighborhood."""
    reds, blues = tau.red_vertices(), tau.blue_vertices()
    nv = tau.n
    worst_i, worst_ii = None, None
    for r1, r2 in combinations(reds, 2):
        for b1, b2 in combinations(blues, 2):
            base = common_neighborhood(tau, (r1, r2)) & common_neighborhood(
                tau, (b1, b2)
            )
            worst_i = min(worst_i, len(base)) if worst_i is not None else len(base)
            for v, w in combinations(range(nv), 2):
                if (v, w) in ((r1, r2), (b1, b2)):
                    continue
                size = len(base & common_neighborhood(tau, (v, w)))
                worst_ii = max(worst_ii, size) if worst_ii is not None else size
    return worst_i, worst_ii


class TestLemmaCheckers:
    def test_all_green_cross_toy_fails_part_i(self):
        vc = (RED, RED, BLUE, BLUE)
        ec = (RED, GREEN, GREEN, GREEN, GREEN, RED)
        report = check_neighborhood_lemma(TypeGraph(vc, ec), "nsize")
        assert not report.part_i_holds
        assert report.worst_i_size == 0

    def test_exhaustive_matches_direct_evaluation(self):
        for seed in range(8):
            tau = sample_type(RandomSpec(4, "friendly", seed))
            report = check_neighborhood_lemma(tau, "nsize", mode="exhaustive")
            worst_i, worst_ii = brute_force_nsize(tau)
            assert report.worst_i_size == worst_i
            assert report.worst_ii_size == worst_ii

    def test_part_i_violations_match_direct_count(self):
        agreeing = TypeGraph(  # every edge agrees, so nobody is excluded
            (RED,) * 4 + (BLUE,) * 4,
            tuple(
                RED if (i < 4) == (j < 4) else GREEN
                for i, j in combinations(range(8), 2)
            ),
        )
        cross_green = TypeGraph(
            (RED, RED, BLUE, BLUE), (RED, GREEN, GREEN, GREEN, GREEN, RED)
        )
        types = [sample_type(RandomSpec(4, "friendly", seed)) for seed in range(8)]
        seen = set()
        for tau in types + [agreeing, cross_green]:
            rep = check_neighborhood_lemma(tau, "nsize", mode="exhaustive")
            direct = sum(
                len(
                    common_neighborhood(tau, (r1, r2))
                    & common_neighborhood(tau, (b1, b2))
                )
                < rep.threshold_i * rep.scale
                for r1, r2 in combinations(tau.red_vertices(), 2)
                for b1, b2 in combinations(tau.blue_vertices(), 2)
            )
            assert rep.part_i_violations == direct
            assert (rep.part_i_violations == 0) == rep.part_i_holds
            seen.add(rep.part_i_holds)
        assert seen == {True, False}

    def test_witnesses_reproduce_reported_sizes(self):
        for mode, kwargs in (("exhaustive", {}), ("sampled", {"samples": 50})):
            tau = sample_type(RandomSpec(6, "friendly", 3))
            rep = check_neighborhood_lemma(tau, "nsize", mode=mode, **kwargs)
            r1, r2, b1, b2 = rep.worst_i
            base = common_neighborhood(tau, (r1, r2)) & common_neighborhood(
                tau, (b1, b2)
            )
            assert len(base) == rep.worst_i_size
            r1, r2, b1, b2, v, w = rep.worst_ii
            base = common_neighborhood(tau, (r1, r2)) & common_neighborhood(
                tau, (b1, b2)
            )
            assert len(base & common_neighborhood(tau, (v, w))) == rep.worst_ii_size

    def test_sampled_worst_within_exhaustive_range(self):
        tau = sample_type(RandomSpec(5, "friendly", 4))
        full = check_neighborhood_lemma(tau, "nsize", mode="exhaustive")
        sampled = check_neighborhood_lemma(tau, "nsize", mode="sampled", samples=30)
        assert sampled.worst_i_size >= full.worst_i_size
        assert sampled.worst_ii_size <= full.worst_ii_size

    def test_worst_sizes_bounded_by_vertex_count(self):
        for lemma_id, n, model in (
            ("nsize", 5, "friendly"),
            ("nsize2", 7, "friendly"),
            ("nsize3", 9, "general"),
        ):
            tau = sample_type(RandomSpec(n, model, 11))
            rep = check_neighborhood_lemma(tau, lemma_id, mode="sampled", samples=20)
            assert 0 <= rep.worst_i_size <= tau.n
            assert 0 <= rep.worst_ii_size <= tau.n

    def test_nsize2_exhaustive_matches_direct_evaluation(self):
        tau = sample_type(RandomSpec(7, "friendly", 2))
        rep = check_neighborhood_lemma(tau, "nsize2", mode="exhaustive")
        worst_i, worst_ii = None, None
        reds, blues = tau.red_vertices(), tau.blue_vertices()
        for rsel in combinations(reds, 6):
            for bsel in combinations(blues, 3):
                members = rsel + bsel
                size = len(common_neighborhood(tau, members))
                worst_i = min(worst_i, size) if worst_i is not None else size
                for v in range(tau.n):
                    if v in members:
                        continue
                    size2 = len(common_neighborhood(tau, members + (v,)))
                    worst_ii = (
                        max(worst_ii, size2) if worst_ii is not None else size2
                    )
        assert rep.worst_i_size == worst_i
        assert rep.worst_ii_size == worst_ii

    def test_nsize3_exhaustive_matches_direct_evaluation(self):
        tau = sample_type(RandomSpec(8, "general", 1))
        rep = check_neighborhood_lemma(tau, "nsize3", mode="exhaustive")
        sizes_i = []
        sizes_ii = []
        for members in combinations(range(tau.n), 3):
            sizes_i.append(len(common_neighborhood(tau, members)))
            for v in range(tau.n):
                if v not in members:
                    sizes_ii.append(len(common_neighborhood(tau, members + (v,))))
        assert rep.worst_i_size == min(sizes_i)
        assert rep.worst_ii_size == max(sizes_ii)
        assert rep.part_i_violations == sum(
            size < rep.threshold_i * rep.scale for size in sizes_i
        )

    def test_exhaustive_guard(self):
        tau = sample_type(RandomSpec(60, "friendly", 0))
        assert exhaustive_tuple_space(tau, "nsize") > EXHAUSTIVE_TUPLE_LIMIT
        with pytest.raises(ValueError, match="sampled"):
            check_neighborhood_lemma(tau, "nsize", mode="exhaustive")

    @pytest.mark.parametrize(
        "lemma_id, spec",
        [
            ("nsize", RandomSpec(3, "friendly", 1)),
            ("nsize", RandomSpec(4, "friendly", 2)),
            ("nsize2", RandomSpec(6, "friendly", 3)),
            ("nsize3", RandomSpec(5, "general", 4)),
            ("nsize3", RandomSpec(7, "general", 5)),
        ],
    )
    def test_exhaustive_guard_trips_exactly_above_the_space(
        self, monkeypatch, lemma_id, spec
    ):
        tau = sample_type(spec)
        space = exhaustive_tuple_space(tau, lemma_id)
        monkeypatch.setattr("matpart.randtypes.EXHAUSTIVE_TUPLE_LIMIT", space)
        assert check_neighborhood_lemma(tau, lemma_id, mode="exhaustive").samples > 0
        monkeypatch.setattr("matpart.randtypes.EXHAUSTIVE_TUPLE_LIMIT", space - 1)
        with pytest.raises(ValueError, match=f"tuple space {space} exceeds {space - 1}"):
            check_neighborhood_lemma(tau, lemma_id, mode="exhaustive")

    def test_mean_intersection_size_concentrates(self):
        # per-vertex membership probability 7/18 implies mean ~ (7/18) * 2n
        n = 200
        total = count = 0
        for seed in range(30):
            tau = sample_type(RandomSpec(n, "friendly", seed))
            rng = random.Random(seed)
            for _ in range(20):
                r1, r2 = rng.sample(range(n), 2)
                b1, b2 = rng.sample(range(n, 2 * n), 2)
                base = common_neighborhood(tau, (r1, r2)) & common_neighborhood(
                    tau, (b1, b2)
                )
                total += len(base)
                count += 1
        mean = total / count
        assert abs(mean - (7 / 18) * 2 * n) <= 0.02 * 2 * n


def replayed_tuples(tau, lemma_id, mode, samples, seed):
    """The checker's tuple stream, one tuple at a time: (witness_i, size_i,
    witness_ii, size_ii), with the sizes from common_neighborhood."""
    nv = tau.n
    reds, blues = list(tau.red_vertices()), list(tau.blue_vertices())
    cn = {}

    def hood(members):
        key = tuple(sorted(members))
        if key not in cn:
            cn[key] = common_neighborhood(tau, key)
        return cn[key]

    if lemma_id == "nsize":
        if mode == "sampled":
            rng = random.Random(f"nsize-{seed}")
            for _ in range(samples):
                r1, r2 = sorted(rng.sample(reds, 2))
                b1, b2 = sorted(rng.sample(blues, 2))
                while True:
                    v, w = sorted(rng.sample(range(nv), 2))
                    if (v, w) != (r1, r2) and (v, w) != (b1, b2):
                        break
                base = hood((r1, r2)) & hood((b1, b2))
                yield (r1, r2, b1, b2), len(base), (r1, r2, b1, b2, v, w), len(
                    base & hood((v, w))
                )
            return
        for rp in combinations(reds, 2):
            for bp in combinations(blues, 2):
                base = hood(rp) & hood(bp)
                best = max(  # max() keeps the first maximum
                    (
                        (len(base & hood(vw)), vw)
                        for vw in combinations(range(nv), 2)
                        if vw not in (rp, bp)
                    ),
                    key=lambda sv: sv[0],
                )
                yield rp + bp, len(base), rp + bp + best[1], best[0]
        return
    if lemma_id == "nsize2":
        red_pool, blue_pool, red_count, blue_count = reds, blues, 6, 3
    else:
        red_pool, blue_pool, red_count, blue_count = list(range(nv)), [], 3, 0
    if mode == "sampled":
        rng = random.Random(f"{lemma_id}-{seed}")
        sets = []
        for _ in range(samples):
            rsel = sorted(rng.sample(red_pool, red_count))
            bsel = sorted(rng.sample(blue_pool, blue_count)) if blue_count else []
            sets.append(tuple(rsel) + tuple(bsel))
    else:
        sets = [
            r + b
            for r in combinations(red_pool, red_count)
            for b in combinations(blue_pool, blue_count)
        ]
    for members in sets:
        size_ii, v = max(  # max() keeps the first maximum: the lowest v
            (
                (len(common_neighborhood(tau, members + (v,))), v)
                for v in range(nv)
                if v not in members
            ),
            key=lambda sv: sv[0],
        )
        yield members, len(hood(members)), members + (v,), size_ii


def reference_report(tau, lemma_id, mode, samples=0, seed=0):
    """LemmaReport built from the per-tuple replay: first smallest part-i
    size, first largest part-ii size, violations counted one by one."""
    thr_i, thr_ii = LEMMA_THRESHOLDS[lemma_id]
    scale = tau.n if lemma_id == "nsize3" else len(tau.red_vertices())
    rows = list(replayed_tuples(tau, lemma_id, mode, samples, seed))
    worst_i = min(rows, key=lambda row: row[1])
    worst_ii = max(rows, key=lambda row: row[3])
    violations = sum(row[1] < thr_i * scale for row in rows)
    return LemmaReport(
        lemma_id=lemma_id,
        scale=scale,
        vertex_count=tau.n,
        mode=mode,
        samples=len(rows),
        part_i_holds=violations == 0,
        part_i_violations=violations,
        part_ii_holds=worst_ii[3] <= thr_ii * scale,
        worst_i=worst_i[0],
        worst_i_size=worst_i[1],
        worst_ii=worst_ii[2],
        worst_ii_size=worst_ii[3],
        threshold_i=thr_i,
        threshold_ii=thr_ii,
    )


def all_green(vertex_colors):
    n = len(vertex_colors)
    return TypeGraph(tuple(vertex_colors), (GREEN,) * (n * (n - 1) // 2))


CHUNK_EDGES = (1, LEMMA_CHUNK - 1, LEMMA_CHUNK, LEMMA_CHUNK + 1, 2 * LEMMA_CHUNK + 1)


class TestChunkedLemmaEvaluation:
    def test_pinned_sampled_outputs(self):
        # captured from the tuple-at-a-time checker
        rep = check_neighborhood_lemma(
            sample_type(RandomSpec(200, "friendly", 7)), "nsize", "sampled",
            samples=1000, seed=7,
        )
        assert (rep.worst_i, rep.worst_i_size) == ((11, 88, 258, 353), 124)
        assert (rep.worst_ii, rep.worst_ii_size) == ((12, 168, 289, 369, 37, 381), 126)
        assert rep.part_i_violations == 20
        rep = check_neighborhood_lemma(
            sample_type(RandomSpec(200, "general", 7)), "nsize3", "sampled",
            samples=200, seed=7,
        )
        assert (rep.worst_i, rep.worst_i_size) == ((28, 68, 156), 83)
        assert (rep.worst_ii, rep.worst_ii_size) == ((0, 48, 91, 55), 104)
        assert rep.part_i_violations == 39

    @pytest.mark.parametrize("samples", CHUNK_EDGES)
    @pytest.mark.parametrize(
        "lemma_id, spec",
        [
            ("nsize", RandomSpec(12, "friendly", 21)),
            ("nsize2", RandomSpec(8, "friendly", 22)),
            ("nsize3", RandomSpec(15, "general", 23)),
        ],
    )
    def test_sampled_matches_per_tuple_replay(self, lemma_id, spec, samples):
        tau = sample_type(spec)
        for seed in (0, 5):
            rep = check_neighborhood_lemma(tau, lemma_id, "sampled", samples, seed)
            assert rep == reference_report(tau, lemma_id, "sampled", samples, seed)

    @pytest.mark.parametrize(
        "lemma_id, spec",
        [
            ("nsize", RandomSpec(6, "friendly", 24)),  # 225 tuples
            ("nsize2", RandomSpec(7, "friendly", 25)),  # 245 sets
            ("nsize3", RandomSpec(12, "general", 26)),  # 220 sets
        ],
    )
    def test_exhaustive_matches_per_tuple_replay(self, lemma_id, spec):
        tau = sample_type(spec)
        rep = check_neighborhood_lemma(tau, lemma_id, "exhaustive")
        assert rep.samples > LEMMA_CHUNK
        assert rep == reference_report(tau, lemma_id, "exhaustive")

    @pytest.mark.parametrize(
        "lemma_id, spec, samples",
        [
            ("nsize", RandomSpec(31, "friendly", 41), 200),  # 62 vertices: one word
            ("nsize", RandomSpec(32, "friendly", 42), 200),  # 64: one full word
            ("nsize", RandomSpec(33, "friendly", 43), 200),  # 66: a second word
            # the oracle tries every extra vertex per set, so fewer sets
            ("nsize2", RandomSpec(33, "friendly", 44), 100),
            ("nsize3", RandomSpec(63, "general", 45), 100),
            ("nsize3", RandomSpec(64, "general", 46), 100),
            ("nsize3", RandomSpec(65, "general", 47), 100),
        ],
    )
    def test_sampled_matches_per_tuple_replay_at_word_boundaries(self, lemma_id, spec, samples):
        """The rows are packed 64 vertices to a word; a vertex lost or
        counted twice at the edge of a word changes a size."""
        tau = sample_type(spec)
        rep = check_neighborhood_lemma(tau, lemma_id, "sampled", samples, seed=1)
        assert rep == reference_report(tau, lemma_id, "sampled", samples, seed=1)

    @pytest.mark.parametrize("samples", CHUNK_EDGES)
    def test_all_green_ties_keep_the_first_tuple(self, samples):
        friendly = all_green((RED,) * 12 + (BLUE,) * 12)
        general = all_green((RED, BLUE) * 8)
        for tau, lemma_id in ((friendly, "nsize"), (friendly, "nsize2"), (general, "nsize3")):
            rep = check_neighborhood_lemma(tau, lemma_id, "sampled", samples, seed=3)
            assert rep == reference_report(tau, lemma_id, "sampled", samples, seed=3)
            first = next(replayed_tuples(tau, lemma_id, "sampled", 1, 3))
            assert rep.worst_i == first[0]
            assert rep.worst_i_size == tau.n - len(first[0])

    def test_all_green_exhaustive_ties_keep_the_first_tuple(self):
        for tau, lemma_id, first in (
            (all_green((RED,) * 6 + (BLUE,) * 6), "nsize", (0, 1, 6, 7)),  # 225 tuples
            (all_green((RED, BLUE) * 6), "nsize3", (0, 1, 2)),  # 220 sets
        ):
            rep = check_neighborhood_lemma(tau, lemma_id, "exhaustive")
            assert rep.samples > LEMMA_CHUNK
            assert rep == reference_report(tau, lemma_id, "exhaustive")
            assert rep.worst_i == first


def old_nsize_draws(reds, blues, nv, samples, rng):
    """The rng.sample-based nsize draw that _nsize_draws replays."""
    for _ in range(samples):
        r1, r2 = sorted(rng.sample(reds, 2))
        b1, b2 = sorted(rng.sample(blues, 2))
        while True:
            v, w = sorted(rng.sample(range(nv), 2))
            if (v, w) != (r1, r2) and (v, w) != (b1, b2):
                break
        yield r1, r2, b1, b2, v, w


def old_set_draws(red_pool, blue_pool, red_count, blue_count, samples, rng):
    """The rng.sample-based set draw that _set_draws replays."""
    for _ in range(samples):
        rsel = sorted(rng.sample(red_pool, red_count))
        bsel = sorted(rng.sample(blue_pool, blue_count)) if blue_count else []
        yield tuple(rsel) + tuple(bsel)


SAMPLE_SIZES = list(range(1, 31)) + [84, 85, 86, 200, 400]


class TestSampleReplay:
    """The getrandbits draws equal CPython's Random.sample call for call, so
    a change to sample's algorithm in a new CPython fails here first."""

    @pytest.mark.parametrize("n", SAMPLE_SIZES)
    def test_equals_random_sample(self, n):
        population = [f"m{i}" for i in range(n)]
        for k in range(min(n, 8) + 1):
            for seed in (0, 1, "nsize-7", 2**40 + 3):
                ours, theirs = random.Random(seed), random.Random(seed)
                for _ in range(3):  # later calls start from a used state
                    assert _sample(ours, population, k) == theirs.sample(population, k)
                    assert ours.getstate() == theirs.getstate()

    # 22 is the smallest size drawn by the inlined pairs; its 2000 tuples
    # redraw (v, w) for equalling the red pair and for equalling the blue one
    @pytest.mark.parametrize("n", [2, 3, 5, 11, 12, 22, 30, 200])
    def test_nsize_draws_equal_the_sample_based_draws(self, n):
        tau = sample_type(RandomSpec(n, "friendly", n))
        reds, blues = list(tau.red_vertices()), list(tau.blue_vertices())
        for seed in (0, 9):
            ours, theirs = random.Random(f"nsize-{seed}"), random.Random(f"nsize-{seed}")
            assert list(_nsize_draws(reds, blues, tau.n, 2000, ours)) == list(
                old_nsize_draws(reds, blues, tau.n, 2000, theirs)
            )
            assert ours.getstate() == theirs.getstate()

    @pytest.mark.parametrize(
        "spec",
        [
            RandomSpec(6, "friendly", 1),
            RandomSpec(21, "friendly", 2),
            RandomSpec(22, "friendly", 3),
            RandomSpec(85, "friendly", 4),
            RandomSpec(86, "friendly", 5),
            RandomSpec(3, "general", 6),
            RandomSpec(22, "general", 7),
            RandomSpec(30, "general", 8),
            RandomSpec(200, "general", 9),
        ],
    )
    def test_set_draws_equal_the_sample_based_draws(self, spec):
        tau = sample_type(spec)
        reds, blues = list(tau.red_vertices()), list(tau.blue_vertices())
        pools = [(list(range(tau.n)), [], 3, 0)]  # nsize3
        if len(reds) >= 6 and len(blues) >= 3:
            pools.append((reds, blues, 6, 3))  # nsize2
        for pool in pools:
            for seed in (0, 9):
                ours, theirs = random.Random(f"s-{seed}"), random.Random(f"s-{seed}")
                assert list(_set_draws(*pool, 200, ours)) == list(
                    old_set_draws(*pool, 200, theirs)
                )
                assert ours.getstate() == theirs.getstate()

    def test_rejects_what_random_sample_rejects(self):
        for k in (-1, 4):
            with pytest.raises(ValueError, match="population or is negative"):
                _sample(random.Random(0), range(3), k)


def old_color_matrix(tau):
    """The element-by-element construction color_matrix replaced."""
    n = tau.n
    mat = np.full((n, n), -1, dtype=np.int8)
    if n > 1:
        rows, cols = np.triu_indices(n, 1)
        vals = np.asarray(tau.edge_colors, dtype=np.int8)
        mat[rows, cols] = vals
        mat[cols, rows] = vals
    return mat


class TestColorMatrix:
    @pytest.mark.parametrize("n", [0, 1, 2, 7])
    def test_matches_elementwise_construction(self, n):
        rng = random.Random(n)
        for _ in range(5):
            tau = TypeGraph(
                tuple(rng.choice((RED, BLUE)) for _ in range(n)),
                tuple(rng.choice((RED, BLUE, GREEN)) for _ in range(n * (n - 1) // 2)),
            )
            mat = color_matrix(tau)
            assert mat.dtype == np.int8 and mat.shape == (n, n)
            assert np.array_equal(mat, old_color_matrix(tau))

    def test_planted_type(self):
        tau = sample_type(RandomSpec(9, "friendly", 4))
        pattern = rho_obstruction_family()
        planted = plant_subtype(tau, pattern, choose_plant_positions(tau, pattern, 4))
        assert np.array_equal(color_matrix(planted), old_color_matrix(planted))

    def test_colors_equal_to_ints(self):
        tau = TypeGraph((RED, BLUE, RED), (1.0, True, GREEN))
        assert np.array_equal(color_matrix(tau), old_color_matrix(tau))
        assert color_matrix(tau)[0].tolist() == [-1, BLUE, BLUE]


class TestMonteCarlo:
    def test_block_rows_almost_always_distinct(self):
        prop = MCProperty(kind="block_rows", model="friendly")
        (summary,) = monte_carlo(prop, [30], range(50))
        assert summary.fraction >= 0.98
        assert 0 <= summary.fraction <= 1

    def test_deterministic_given_seeds(self):
        prop = MCProperty(kind="lemma", lemma_id="nsize", tuple_samples=30)
        a = monte_carlo(prop, [10, 20], range(10))
        b = monte_carlo(prop, [10, 20], range(10))
        assert a == b

    def test_lemma_parts_count_the_checker_verdicts(self):
        """part i, ii and both count the sampled types whose
        check_neighborhood_lemma report holds part i, part ii and both; at
        n=150 the three counts differ, so each part is told apart."""
        n, seeds = 150, range(20)
        reports = [
            check_neighborhood_lemma(
                sample_type(RandomSpec(n, "friendly", s)),
                "nsize",
                mode="sampled",
                samples=30,
                seed=s,
            )
            for s in seeds
        ]
        expected = {
            "i": sum(r.part_i_holds for r in reports),
            "ii": sum(r.part_ii_holds for r in reports),
            "both": sum(r.part_i_holds and r.part_ii_holds for r in reports),
        }
        assert len(set(expected.values())) == 3
        for part, successes in expected.items():
            prop = MCProperty(kind="lemma", lemma_id="nsize", part=part, tuple_samples=30)
            (summary,) = monte_carlo(prop, [n], seeds)
            assert summary.successes == successes

    def test_contains_rho_fraction_in_unit_interval(self):
        prop = MCProperty(kind="contains_rho", model="friendly", rho="thm1")
        (summary,) = monte_carlo(prop, [8], range(10))
        assert 0 <= summary.fraction <= 1

    def test_edge_frequency_mean_near_third(self):
        prop = MCProperty(kind="edge_frequency", model="general", color=GREEN)
        (summary,) = monte_carlo(prop, [100], range(100))
        per_type = 100 * 99 // 2
        sigma_mean = math.sqrt((1 / 3) * (2 / 3) / (per_type * 100))
        assert abs(summary.mean - 1 / 3) <= 4 * sigma_mean
        assert summary.successes == summary.trials


class TestExperimentSpecs:
    SPEC = """
# pairwise neighborhood bound fractions
property=lemma
lemma=nsize
part=i
model=friendly
n=10,15
seeds=0..9
mode=sampled:40
threshold=0.5
"""

    def test_parse_and_run(self):
        spec = parse_experiment_spec(self.SPEC)
        assert spec.n_values == (10, 15)
        assert spec.seeds == tuple(range(10))
        assert spec.threshold == 0.5
        summaries = monte_carlo(spec.prop, spec.n_values, spec.seeds)
        assert len(summaries) == 2
        assert all(s.trials == 10 for s in summaries)
        assert monte_carlo(spec.prop, spec.n_values, spec.seeds) == summaries

    def test_seed_count_form(self):
        spec = parse_experiment_spec("property=block_rows\nn=5\nseeds=7\n")
        assert spec.seeds == tuple(range(7))

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown experiment key"):
            parse_experiment_spec("property=block_rows\nn=5\nseeds=3\nbogus=1\n")

    def test_missing_required_key_rejected(self):
        with pytest.raises(ValueError, match="missing"):
            parse_experiment_spec("property=block_rows\nn=5\n")

    @pytest.mark.parametrize(
        "line, message",
        [
            ("n=5,x", "bad n '5,x' (line 2)"),
            ("seeds=1..y", "bad seeds '1..y' (line 2)"),
            ("mode=sampled:many", "bad mode 'sampled:many' (line 2)"),
            ("mode=random", "bad mode 'random' (line 2)"),
            ("threshold=high", "bad threshold 'high' (line 2)"),
        ],
    )
    def test_bad_number_names_key_and_line(self, line, message):
        key = line.split("=")[0]
        lines = ["property=lemma", line] + [
            f"{k}=3" for k in ("n", "seeds") if k != key
        ]
        with pytest.raises(ParseError) as info:
            parse_experiment_spec("\n".join(lines) + "\n")
        assert str(info.value) == message
        assert info.value.line == 2

    @pytest.mark.parametrize(
        "line, match",
        [
            ("model=weird", "unknown model 'weird'"),
            ("lemma=bogus", "unknown lemma id 'bogus'"),
            ("mode=sampled:0", "tuple samples must be positive"),
        ],
    )
    def test_bad_property_fields_rejected_at_parse_time(self, line, match):
        with pytest.raises(ParseError, match=match) as info:
            parse_experiment_spec(f"property=lemma\n{line}\nn=5\nseeds=2\n")
        assert info.value.line == 2
        assert str(info.value).endswith("(line 2)")


class TestMCPropertyValidation:
    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"model": "weird"}, "unknown model"),
            ({"lemma_id": "nsize4"}, "unknown lemma id"),
            ({"lemma_mode": "random"}, "unknown mode"),
            ({"tuple_samples": 0}, "tuple samples must be positive"),
            ({"tuple_samples": -3}, "tuple samples must be positive"),
        ],
    )
    def test_rejected(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            MCProperty(kind="lemma", **kwargs)

    def test_defaults_and_every_valid_choice_accepted(self):
        for model in ("general", "friendly"):
            for lemma_id in LEMMA_THRESHOLDS:
                for mode in ("exhaustive", "sampled"):
                    MCProperty("lemma", model, lemma_id, lemma_mode=mode, tuple_samples=1)

    @pytest.mark.parametrize("color", [7, 3, -1, 2.0, "green", None])
    def test_bad_color_rejected(self, color):
        """A color outside red, blue, green fails at construction, not as
        an IndexError inside monte_carlo."""
        with pytest.raises(ValueError, match=f"^bad color {color!r}$"):
            MCProperty(kind="edge_frequency", color=color)

    def test_every_color_accepted_and_labelled(self):
        for color, name in ((RED, "red"), (BLUE, "blue"), (GREEN, "green")):
            prop = MCProperty(kind="edge_frequency", model="general", color=color)
            (summary,) = monte_carlo(prop, [6], range(2))
            assert summary.property_label == f"edge_frequency:{name}"
