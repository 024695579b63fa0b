"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Criterion 3's second clause checks the pairwise neighborhood lower bound
(nsize part i) at n=200 against its exact per-tuple violation probability,
randtypes.part_i_violation_probability, and checks the ">= 99% of types"
claim through the exact union bound at n=2500, where the lemma delivers it.
"""

import math
import random
import statistics
import subprocess
import sys
from fractions import Fraction

import pytest

from matpart.model import (
    BLUE,
    GREEN,
    RED,
    PartitionMatrix,
    SimpleGraph,
    TypeGraph,
    coloring_matrix,
    common_neighborhood,
    is_embedding,
    rho_three_coloring,
    type_from_matrix,
    vertex_pairs,
)
from matpart.constructions import (
    broken_path_embedding,
    build_planted_obstruction,
    extend_embedding,
    plant_pattern,
    reduction_graph,
    restricted_placement_unsat,
)
from matpart.randtypes import (
    MCProperty,
    MembershipScenario,
    RandomSpec,
    chernoff_exponent,
    chernoff_tail_bound,
    check_neighborhood_lemma,
    exact_membership_probability,
    monte_carlo,
    part_i_violation_probability,
    sample_type,
)
from matpart.solver import (
    SolverConfig,
    brute_force_has_embedding,
    canonical_code,
    enumerate_minimal_obstructions,
    find_embedding,
)
from test_model import is_split_graph


def report(criterion, ok, detail):
    print(f"CRITERION {criterion}: {'PASS' if ok else 'FAIL'} — {detail}")
    return ok


def test_criterion_1_exact_probabilities():
    """Lemma-scenario probabilities are exactly 7/18 and 5/18."""
    generic = MembershipScenario(
        "friendly",
        RED,
        (("r1", RED), ("r2", RED), ("b1", BLUE), ("b2", BLUE)),
        (("r1", "r2"), ("b1", "b2")),
    )
    overlap = MembershipScenario(
        "friendly",
        RED,
        (("r1", RED), ("r2", RED), ("b1", BLUE), ("b2", BLUE)),
        (("r1", "r2"), ("b1", "b2"), ("r1", "b1")),
    )
    p1 = exact_membership_probability(generic).value
    p2 = exact_membership_probability(overlap).value
    ok = p1 == Fraction(7, 18) and p2 == Fraction(5, 18)
    assert report(1, ok, f"generic={p1}, overlapping={p2}")


def test_criterion_2_chernoff_bound():
    """chernoff_tail_bound(1/8, n) <= exp(-n/1000) for every n in 100..1000."""
    eps = Fraction(1, 8)
    exact_ok = all(
        chernoff_exponent(eps, n) >= Fraction(n, 1000) for n in range(100, 1001)
    )
    float_ok = all(
        chernoff_tail_bound(eps, n) <= math.exp(-n / 1000) for n in range(100, 1001)
    )
    assert report(2, exact_ok and float_ok, "exact and float inequalities on 100..1000")


def test_criterion_3a_empirical_frequency_matches_exact():
    """Membership frequency in T_f(200) over >= 1e5 vertex trials, 4 sigma."""
    n, seeds = 200, 260
    hits = trials = 0
    for seed in range(seeds):
        tau = sample_type(RandomSpec(n, "friendly", seed))
        rng = random.Random(f"acc3-{seed}")
        r1, r2 = rng.sample(range(n), 2)
        b1, b2 = rng.sample(range(n, 2 * n), 2)
        base = common_neighborhood(tau, (r1, r2)) & common_neighborhood(tau, (b1, b2))
        hits += len(base)
        trials += 2 * n - 4
    p = 7 / 18
    sigma = math.sqrt(trials * p * (1 - p))
    ok = trials >= 10**5 and abs(hits - trials * p) <= 4 * sigma
    assert report(
        "3a",
        ok,
        f"{hits}/{trials} = {hits / trials:.5f} vs 7/18 = {p:.5f} "
        f"(|dev| = {abs(hits - trials * p):.1f}, 4 sigma = {4 * sigma:.1f})",
    )


def test_criterion_3b_part_i_rate_at_desk_scale():
    """Part i (|N(r1,r2) ∩ N(b1,b2)| >= 2n/3) at n=200, 300 seeds, each
    probed with 1000 sampled tuples, against its exact per-tuple tail.

    At n=200 a tuple breaks part i with probability
    part_i_violation_probability(200) = P(Bin(396, 7/18) <= 133) ~ 0.01665,
    so a seed's 1000 tuples hold ~16.65 violations on average.  The mean
    per-seed violation count must match 1000 times that value within 4
    standard errors (seeds are independent; tuples within a seed are not).
    The lemma's "almost all types" claim is checked where the lemma
    delivers it: the union bound C(n,2)^2 * p(n) over every tuple of one
    type is at most 1/100 at n=2500, so >= 99% of types satisfy part i
    there.
    """
    n, seeds, samples = 200, 300, 1000
    counts = []
    for seed in range(seeds):
        tau = sample_type(RandomSpec(n, "friendly", seed))
        rep = check_neighborhood_lemma(
            tau, "nsize", mode="sampled", samples=samples, seed=seed
        )
        counts.append(rep.part_i_violations)
    expected = samples * part_i_violation_probability(n)
    mean = Fraction(sum(counts), seeds)
    stderr = statistics.stdev(counts) / math.sqrt(seeds)
    rate_ok = abs(mean - expected) <= 4 * stderr
    big_n = 2500
    union = math.comb(big_n, 2) ** 2 * part_i_violation_probability(big_n)
    union_ok = union <= Fraction(1, 100)
    assert report(
        "3b",
        rate_ok and union_ok,
        f"violations per seed {float(mean):.3f} vs exact {float(expected):.3f} "
        f"(4 se = {4 * stderr:.3f}); union bound at n={big_n} = {float(union):.5f} "
        "(need <= 0.01)",
    )


def test_criterion_4_solver_oracle_agreement():
    """find_embedding agrees with brute force on 200 random instances."""
    rng = random.Random(4)
    agreements = 0
    for _ in range(200):
        ng = rng.randint(0, 6)
        g = SimpleGraph.from_edges(
            ng, [e for e in vertex_pairs(ng) if rng.random() < 0.5]
        )
        nt = rng.randint(0, 4)
        if nt:
            vc = tuple(rng.choice((RED, BLUE)) for _ in range(nt))
            ec = tuple(
                rng.choice((RED, BLUE, GREEN)) for _ in range(nt * (nt - 1) // 2)
            )
            tau = TypeGraph(vc, ec)
        else:
            tau = TypeGraph((), ())
        agreements += find_embedding(g, tau).found == brute_force_has_embedding(g, tau)
    assert report(4, agreements == 200, f"{agreements}/200 agreements")


def test_criterion_5_obstruction_enumeration():
    """2-coloring up to 7 vertices: {C3, C5, C7}; 3-coloring up to 4: {K4}."""
    got2 = enumerate_minimal_obstructions(type_from_matrix(coloring_matrix(2)), 7)
    expected2 = {
        (k, canonical_code(SimpleGraph.cycle(k))) for k in (3, 5, 7)
    }
    got3 = enumerate_minimal_obstructions(type_from_matrix(coloring_matrix(3)), 4)
    expected3 = {(4, canonical_code(SimpleGraph.complete(4)))}
    ok = {(g.n, canonical_code(g)) for g in got2} == expected2 and {
        (g.n, canonical_code(g)) for g in got3
    } == expected3
    assert report(
        5,
        ok,
        f"2-coloring: {[(g.n, len(g.edges)) for g in got2]}, "
        f"3-coloring: {[(g.n, len(g.edges)) for g in got3]}",
    )


def test_split_matrix_obstructions_and_split_graphs():
    """[[0,*],[*,1]] asks for an independent set and a clique: its minimal
    obstructions are 2K2, C4 and C5 (Foldes and Hammer 1977), and a graph
    embeds exactly when is_split_graph says it is split."""
    split = type_from_matrix(PartitionMatrix.from_rows([[0, 2], [2, 1]]))
    two_k2 = SimpleGraph.from_edges(4, [(0, 1), (2, 3)])
    expected = {
        (g.n, canonical_code(g))
        for g in (two_k2, SimpleGraph.cycle(4), SimpleGraph.cycle(5))
    }
    got = enumerate_minimal_obstructions(split, 7)
    assert {(g.n, canonical_code(g)) for g in got} == expected
    for n in range(6):
        pairs = list(vertex_pairs(n))
        for mask in range(1 << len(pairs)):
            g = SimpleGraph.from_edges(n, [p for k, p in enumerate(pairs) if mask >> k & 1])
            assert find_embedding(g, split).found == is_split_graph(g), sorted(g.edges)


def test_criterion_6_obstruction_family_instances():
    """50 planted instances: order identity, every broken-path embedding
    validates, the restricted placement check is unsatisfiable, and the
    negative control (final anchor removed) is satisfiable."""
    import dataclasses

    checked = 0
    for seed in range(50):
        n = 10 + (seed % 16)  # 10..25
        m = (seed % 5) + 1  # 1..5
        inst = build_planted_obstruction(n, m, seed)
        assert inst.graph.n == len(inst.sigma) + 2 * m
        for i in range(1, m + 1):
            psi = broken_path_embedding(inst, i)
            reduced = inst.graph.delete_vertex(inst.x_index(i))
            assert is_embedding(reduced, inst.tau, psi), (seed, i)
        assert restricted_placement_unsat(inst), seed
        anchor = tuple(
            sorted((inst.y_index(m), inst.prime_index(inst.rho_copy.image[2])))
        )
        mutated = dataclasses.replace(
            inst, graph=SimpleGraph(inst.graph.n, inst.graph.edges - {anchor})
        )
        assert not restricted_placement_unsat(mutated), seed
        checked += 1
    assert report(6, checked == 50, f"{checked}/50 instances validated")


def _random_graph_with(rng, colorable, pattern):
    while True:
        n = rng.randint(1, 6) if colorable else rng.randint(4, 6)
        p = 0.4 if colorable else 0.75
        g = SimpleGraph.from_edges(n, [e for e in vertex_pairs(n) if rng.random() < p])
        if find_embedding(g, pattern).found == colorable:
            return g


def test_criterion_7_reduction_soundness():
    """100 three-colorable inputs: the extension embedding validates on the
    reduction graph; for non-three-colorable inputs the converse rate is
    reported without being asserted."""
    pattern = rho_three_coloring()
    rng = random.Random(7)
    good = 0
    seed = 0
    for _ in range(100):
        g = _random_graph_with(rng, True, pattern)
        while True:
            seed += 1
            try:
                tau, copy = plant_pattern(
                    sample_type(RandomSpec(25, "general", seed)), "thm3", seed
                )
                break
            except ValueError:  # fewer than three red vertices sampled
                continue
        inst = reduction_graph(g, tau, copy)
        psi = find_embedding(g, pattern).map
        extended = extend_embedding(psi, inst)
        good += is_embedding(inst.output_graph, tau, extended)
    ok = good == 100
    report(7, ok, f"{good}/100 extension embeddings validated")

    outcomes = {"no-embedding": 0, "embeddable": 0, "limit-exceeded": 0}
    for k in range(12):
        g = _random_graph_with(rng, False, pattern)
        seed += 1
        tau, copy = plant_pattern(
            sample_type(RandomSpec(25, "general", seed)), "thm3", seed
        )
        inst = reduction_graph(g, tau, copy)
        res = find_embedding(
            inst.output_graph, tau, SolverConfig(node_limit=50000)
        )
        outcomes[res.status] += 1
    print(
        "CRITERION 7 (converse, reported not asserted): "
        f"non-3-colorable inputs -> output graph UNSAT {outcomes['no-embedding']}, "
        f"SAT {outcomes['embeddable']}, inconclusive {outcomes['limit-exceeded']} of 12"
    )
    assert ok


def test_criterion_8_block_row_distinctness_proxy():
    """Fixed-n proxy for the headline statements: both diagonal blocks of
    the friendly random matrix have distinct rows in >= 99% of 500 seeds at
    n=30 (the construction/reduction/probability suites cover the rest)."""
    (summary,) = monte_carlo(
        MCProperty(kind="block_rows", model="friendly"), [30], range(500)
    )
    ok = summary.fraction >= 0.99
    assert report(8, ok, f"row-distinct fraction {summary.fraction:.4f} over 500 seeds")


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "matpart.cli", *args], capture_output=True, text=True
    )


def test_criterion_9_byte_determinism(tmp_path):
    """gen-type, experiment, and obstructions are byte-identical on reruns."""
    out1, out2 = tmp_path / "a.type", tmp_path / "b.type"
    g1 = run_cli("gen-type", "--n", "12", "--model", "friendly", "--seed", "99",
                 "--out", str(out1))
    g2 = run_cli("gen-type", "--n", "12", "--model", "friendly", "--seed", "99",
                 "--out", str(out2))
    gen_ok = (
        g1.returncode == g2.returncode == 0
        and out1.read_bytes() == out2.read_bytes()
        and g1.stdout.replace(str(out1), "OUT") == g2.stdout.replace(str(out2), "OUT")
    )

    mat = tmp_path / "col2.mat"
    mat.write_text("2\n0*\n*0\n")
    o1 = run_cli("obstructions", "--matrix", str(mat), "--max-n", "6")
    o2 = run_cli("obstructions", "--matrix", str(mat), "--max-n", "6")
    obs_ok = o1.returncode == 0 and o1.stdout == o2.stdout

    spec = tmp_path / "exp.txt"
    spec.write_text(
        "property=lemma\nlemma=nsize\npart=i\nmodel=friendly\nn=8\nseeds=0..9\n"
        "mode=sampled:50\n"
    )
    e1 = run_cli("experiment", "--spec", str(spec))
    e2 = run_cli("experiment", "--spec", str(spec))
    exp_ok = e1.returncode == e2.returncode and e1.stdout == e2.stdout

    ok = gen_ok and obs_ok and exp_ok
    assert report(
        9, ok, f"gen-type={gen_ok}, obstructions={obs_ok}, experiment={exp_ok}"
    )
