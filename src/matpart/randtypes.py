"""Seeded random types, exact scenario probabilities, tail bounds, and
neighborhood-bound checkers with Monte Carlo aggregation.

Randomness is a counter-based splitmix-style mixer over (seed, stream
index), so samples are bit-for-bit reproducible from the documented stream
layout: vertex colors in index order first (general model only; the
friendly model's colors are fixed), then edge colors in lexicographic pair
order.  Two-way choices use the draw mod 2, three-way choices mod 3, with
0 -> red, 1 -> blue, 2 -> green.

Sampled lemma tuples come from a random.Random seeded by the lemma id and
the seed, each member set made from the getrandbits calls that
random.Random.sample would make for it (`_sample`).  The lemma checkers
first draw (or enumerate) their tuples with the same generator calls, in
the same order, as a one-tuple-at-a-time walk, and then evaluate them
LEMMA_CHUNK at a time in array code on the type's red and blue rows packed
as uint64 bitsets (`_bit_table`): a chunk ORs its members' rows together,
and part ii of nsize2/nsize3 tries every extra vertex against the chunk,
so it costs memory in proportion to vertices x chunk.  The chunks are
bounded, rather than every tuple taken in one pass, because that pass
grows with the sample count: at n=200 one pass over 2000 nsize2 sets
raised the peak memory by about 20 MB, while chunks of 128 stay within
1 MB.  Sizes are exact popcounts, and the worst witnesses keep the first
extremum, so reports do not depend on the chunk size.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import chain, combinations, islice, product
from numbers import Integral
from typing import Iterator, Sequence

import numpy as np

from .model import (
    BLUE,
    COLOR_NAMES,
    GREEN,
    PATTERNS,
    RED,
    TypeGraph,
    _rows_from_pairs,
    matrix_from_type,
    block_row_distinctness,
    find_subtype_copy,
    pattern_by_token,
)

_GOLD = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_MASK = (1 << 64) - 1


def splitmix_draw(seed: int, index: int) -> int:
    """Scalar reference for the counter-based generator (64-bit draws)."""
    z = (seed + (index + 1) * _GOLD) & _MASK
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
    return z ^ (z >> 31)


def _draws(seed: int, start: int, count: int) -> np.ndarray:
    """Vectorized draws for stream indices start..start+count-1."""
    idx = np.arange(start, start + count, dtype=np.uint64)
    z = np.uint64(seed & _MASK) + (idx + np.uint64(1)) * np.uint64(_GOLD)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
    return z ^ (z >> np.uint64(31))


@dataclass(frozen=True)
class RandomSpec:
    """Sampling request: n red+blue pairs (friendly) or n vertices (general)."""

    n: int
    model: str
    seed: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.model not in ("general", "friendly"):
            raise ValueError(f"unknown model {self.model!r}")


def _sample_arrays(spec: RandomSpec) -> tuple[np.ndarray, np.ndarray]:
    if spec.model == "friendly":
        n, nv = spec.n, 2 * spec.n
        colors = np.concatenate(
            [np.full(n, RED, dtype=np.int8), np.full(n, BLUE, dtype=np.int8)]
        )
        rows, cols = np.triu_indices(nv, 1)
        draws = _draws(spec.seed, 0, len(rows))
        same_class = (rows < n) == (cols < n)
        edges = np.where(
            same_class,
            (draws % np.uint64(2)).astype(np.int8),
            (draws % np.uint64(3)).astype(np.int8),
        )
        return colors, edges
    n = spec.n
    vdraws = _draws(spec.seed, 0, n)
    colors = (vdraws % np.uint64(2)).astype(np.int8)
    pairs = n * (n - 1) // 2
    edraws = _draws(spec.seed, n, pairs)
    return colors, (edraws % np.uint64(3)).astype(np.int8)


def sample_type(spec: RandomSpec) -> TypeGraph:
    """Deterministic-in-seed random type for the requested model."""
    colors, edges = _sample_arrays(spec)
    return TypeGraph._from_rows(_rows_from_pairs(colors.tobytes(), edges.tobytes()))


def color_matrix(tau: TypeGraph) -> np.ndarray:
    """Symmetric edge-color matrix (int8) with -1 on the diagonal."""
    n = tau.n
    mat = np.frombuffer(b"".join(tau.rows), np.int8).reshape(n, n).copy()
    np.fill_diagonal(mat, -1)
    return mat


def plant_subtype(
    tau: TypeGraph, pattern: TypeGraph, position: Sequence[int]
) -> TypeGraph:
    """Overwrite edge colors inside `position` so that it carries `pattern`.

    position[k] plays pattern vertex k; vertex colors must already match.
    Everything outside the planted positions is untouched.
    """
    if len(position) != pattern.n:
        raise ValueError("position length does not match pattern order")
    if len(set(position)) != len(position):
        raise ValueError("position vertices must be distinct")
    for k, h in enumerate(position):
        if not 0 <= h < tau.n:
            raise ValueError(f"position vertex {h} outside type")
        if tau.vertex_colors[h] != pattern.vertex_colors[k]:
            raise ValueError(
                f"vertex color mismatch: position {h} cannot play pattern vertex {k}"
            )
    rows = list(tau.rows)
    for i, pattern_row in zip(position, pattern.rows):
        row = bytearray(rows[i])
        for j, c in zip(position, pattern_row):  # j == i rewrites the same vertex color
            row[j] = c
        rows[i] = bytes(row)
    return TypeGraph._from_rows(rows)


def choose_plant_positions(
    tau: TypeGraph, pattern: TypeGraph, seed: int
) -> tuple[int, ...]:
    """Seeded color-respecting positions for planting `pattern` into `tau`."""
    rng = random.Random(f"plant-{seed}")
    reds = [v for v in range(tau.n) if tau.vertex_colors[v] == RED]
    blues = [v for v in range(tau.n) if tau.vertex_colors[v] == BLUE]
    need_red = sum(1 for c in pattern.vertex_colors if c == RED)
    need_blue = pattern.n - need_red
    if len(reds) < need_red or len(blues) < need_blue:
        raise ValueError(
            f"type has {len(reds)} red / {len(blues)} blue vertices; "
            f"pattern needs {need_red} red / {need_blue} blue"
        )
    red_slots = iter(sorted(rng.sample(reds, need_red)))
    blue_slots = iter(sorted(rng.sample(blues, need_blue)))
    return tuple(
        next(red_slots) if c == RED else next(blue_slots)
        for c in pattern.vertex_colors
    )


# ---------------------------------------------------------------------------
# exact membership probabilities

SCENARIO_LIMIT = 10**7


@dataclass(frozen=True)
class MembershipScenario:
    """A fresh vertex of a fixed color against constraint sets in one model.

    `vertices` declares the constraint vertices (name, color); `sets` are
    the constraint sets the fresh vertex must be a common neighbor of.
    """

    model: str
    candidate_color: int
    vertices: tuple[tuple[str, int], ...]
    sets: tuple[tuple[str, ...], ...]

    def __post_init__(self) -> None:
        fault = _scenario_fault(self.model, self.candidate_color, self.vertices, self.sets)
        if fault is not None:
            raise ValueError(fault[2])


def _scenario_fault(
    model: str,
    candidate_color: int,
    vertices: Sequence[tuple[str, int]],
    sets: Sequence[Sequence[str]],
) -> tuple[str, int, str] | None:
    """The first fault of a scenario's fields, as (field, k, message): the
    field's name and, for "vertices" and "sets", the index of the entry at
    fault (0 for "model" and "candidate").  None if there is none."""
    if model not in ("general", "friendly"):
        return "model", 0, f"unknown model {model!r}"
    if candidate_color not in (RED, BLUE):
        return "candidate", 0, "candidate color must be red or blue"
    names: set[str] = set()
    for k, (name, _) in enumerate(vertices):
        if name in names:
            return "vertices", k, "duplicate constraint vertex names"
        names.add(name)
    for k, (_, c) in enumerate(vertices):
        if c not in (RED, BLUE):
            return "vertices", k, "constraint vertex colors must be red or blue"
    for k, s in enumerate(sets):
        for name in s:
            if name not in names:
                return "sets", k, f"set member {name!r} not declared"
        if len(set(s)) != len(s):
            return "sets", k, "duplicate member inside a constraint set"
    return None


@dataclass(frozen=True)
class ProbabilityResult:
    value: Fraction
    scenario: MembershipScenario

    def __post_init__(self) -> None:
        if not 0 <= self.value <= 1:
            raise ValueError("probability outside [0, 1]")


def exact_membership_probability(scenario: MembershipScenario) -> ProbabilityResult:
    """Exact P(fresh vertex lies in every constraint set's common
    neighborhood), by enumerating the colorings of its edges to the
    constraint vertices."""
    names = [name for name, _ in scenario.vertices]
    colors = dict(scenario.vertices)
    domains = []
    for name in names:
        if scenario.model == "friendly" and colors[name] == scenario.candidate_color:
            domains.append((RED, BLUE))
        else:
            domains.append((RED, BLUE, GREEN))
    total = 1
    for d in domains:
        total *= len(d)
    if total > SCENARIO_LIMIT:
        raise ValueError(f"scenario enumeration of {total} colorings exceeds guard")
    index = {name: k for k, name in enumerate(names)}
    member_sets = [tuple(index[name] for name in s) for s in scenario.sets]
    good = 0
    for coloring in product(*domains):
        ok = True
        for members in member_sets:
            saw_red = saw_blue = False
            for k in members:
                if coloring[k] == RED:
                    saw_red = True
                elif coloring[k] == BLUE:
                    saw_blue = True
            if saw_red and saw_blue:
                ok = False
                break
        if ok:
            good += 1
    return ProbabilityResult(Fraction(good, total), scenario)


# ---------------------------------------------------------------------------
# tail bound


def chernoff_exponent(eps: Fraction | float, n: int) -> Fraction:
    """Exact exponent (7/72) * eps^2 * (n - 2) of the lower-tail bound."""
    eps = Fraction(eps)
    if not 0 < eps <= 1:
        raise ValueError("eps must be in (0, 1]")
    if n < 3:
        raise ValueError("n must be at least 3")
    return Fraction(7, 72) * eps * eps * (n - 2)


def chernoff_tail_bound(eps: Fraction | float, n: int) -> float:
    """exp(-(7/72) eps^2 (n-2)): lower-tail bound for the pairwise
    neighborhood intersection size in the friendly model."""
    return math.exp(-float(chernoff_exponent(eps, n)))


# ---------------------------------------------------------------------------
# neighborhood-bound checkers

EXHAUSTIVE_TUPLE_LIMIT = 10**7
LEMMA_CHUNK = 128  # tuples evaluated together; bounds the per-chunk arrays
_SAMPLE_SETSIZE = 21  # random.Random.sample's pool/set threshold for k <= 5

LEMMA_THRESHOLDS = {
    "nsize": (Fraction(2, 3), Fraction(16, 27)),
    "nsize2": (Fraction(1, 36), Fraction(1, 40)),
    "nsize3": (Fraction(14, 27), Fraction(13, 27)),
}


def part_i_violation_probability(n: int) -> Fraction:
    """Exact probability that one fixed tuple breaks nsize part i in T_f(n).

    For distinct reds r1, r2 and blues b1, b2, each of the other N = 2n - 4
    vertices lies in N(r1,r2) ∩ N(b1,b2) independently with probability
    7/18 (criterion 1's generic scenario), so the part-i size is
    Binomial(N, 7/18) and the tuple breaks part i when that size is below
    (2/3) n: sum over those j of C(N,j) 7^j 11^(N-j) / 18^N.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    trials = 2 * n - 4
    cutoff = min(math.ceil(LEMMA_THRESHOLDS["nsize"][0] * n), trials + 1)
    tail = sum(
        math.comb(trials, j) * 7**j * 11 ** (trials - j) for j in range(cutoff)
    )
    return Fraction(tail, 18**trials)


@dataclass(frozen=True)
class LemmaReport:
    """Outcome of a neighborhood-bound check.

    `scale` is the n the thresholds multiply (class size for the friendly
    checks, vertex count for nsize3).  Worst witnesses are the quantified
    tuples with the smallest part-i size / largest part-ii size seen;
    `part_i_violations` counts the checked tuples whose part-i size fell
    below threshold_i * scale.
    """

    lemma_id: str
    scale: int
    vertex_count: int
    mode: str
    samples: int
    part_i_holds: bool
    part_i_violations: int
    part_ii_holds: bool
    worst_i: tuple[int, ...]
    worst_i_size: int
    worst_ii: tuple[int, ...]
    worst_ii_size: int
    threshold_i: Fraction
    threshold_ii: Fraction


def _require_balanced(tau: TypeGraph, lemma_id: str) -> tuple[list[int], list[int]]:
    reds = list(tau.red_vertices())
    blues = list(tau.blue_vertices())
    if len(reds) != len(blues):
        raise ValueError(
            f"{lemma_id} check expects equally many red and blue vertices, "
            f"got {len(reds)} red / {len(blues)} blue"
        )
    return reds, blues


def check_neighborhood_lemma(
    tau: TypeGraph,
    lemma_id: str,
    mode: str = "exhaustive",
    samples: int = 2000,
    seed: int = 0,
) -> LemmaReport:
    """Check the part-i lower bound and part-ii upper bound for one type.

    mode "exhaustive" walks every quantified tuple (guarded at 10^7);
    "sampled" draws `samples` tuples with a generator seeded by `seed`.
    Tuples are evaluated LEMMA_CHUNK at a time; across chunks the first
    tuple with the smallest part-i size and the first with the largest
    part-ii size are kept, exactly as a tuple-by-tuple walk would.

    Every evaluator counts on one packed table per type (`_bit_table`):
    table[c, w, a] is uint64 word w of vertex a's row of colour c (0 red,
    1 blue), one bit per vertex u in np.packbits' big-endian bit order
    within each byte (see `_words`).  Sizes are popcounts of these words;
    nothing is unpacked back to one bit per vertex.
    """
    if lemma_id not in LEMMA_THRESHOLDS:
        raise ValueError(f"unknown lemma id {lemma_id!r}")
    if mode not in ("exhaustive", "sampled"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "sampled" and samples < 1:
        raise ValueError("samples must be positive")
    thr_i, thr_ii = LEMMA_THRESHOLDS[lemma_id]
    nv = tau.n
    if lemma_id == "nsize3":
        scale = nv
        if nv < 3:
            raise ValueError("nsize3 check needs at least three vertices")
        pools = (list(range(nv)), [], 3, 0)
    else:
        reds, blues = _require_balanced(tau, lemma_id)
        scale = len(reds)
        if lemma_id == "nsize" and scale < 2:
            raise ValueError("nsize check needs at least two vertices per color")
        if lemma_id == "nsize2" and (len(reds) < 6 or len(blues) < 3):
            raise ValueError("nsize2 check needs six red and three blue vertices")
        pools = (reds, blues, 2, 2) if lemma_id == "nsize" else (reds, blues, 6, 3)
    if mode == "exhaustive":  # before any per-type table is built
        space = exhaustive_tuple_space(tau, lemma_id)
        if space > EXHAUSTIVE_TUPLE_LIMIT:
            raise ValueError(
                f"exhaustive tuple space {space} exceeds {EXHAUSTIVE_TUPLE_LIMIT}; "
                "use sampled mode"
            )
        tuples = _all_sets(*pools)
    elif lemma_id == "nsize":
        tuples = _nsize_draws(reds, blues, nv, samples, random.Random(f"nsize-{seed}"))
    else:
        tuples = _set_draws(*pools, samples, random.Random(f"{lemma_id}-{seed}"))

    table = _bit_table(tau)
    if lemma_id != "nsize":
        evaluate = partial(_fixed_set_sizes, table)
    elif mode == "exhaustive":
        pairs = np.column_stack(np.triu_indices(nv, 1))
        evaluate = partial(_nsize_best_pair, nv, _outside(table, pairs))
    else:
        evaluate = partial(_nsize_drawn_pair, table)

    worst_i: tuple[int, ...] = ()
    worst_i_size = nv + 1
    worst_ii: tuple[int, ...] = ()
    worst_ii_size = -1
    checked = violations_i = 0
    cutoff_i = math.ceil(thr_i * scale)
    for chunk in _chunks(tuples):
        witness_i, size_i, witness_ii, size_ii = evaluate(chunk)
        checked += len(chunk)
        violations_i += int((size_i < cutoff_i).sum())
        k = int(size_i.argmin())  # argmin/argmax return the first extremum
        if size_i[k] < worst_i_size:
            worst_i_size = int(size_i[k])
            worst_i = tuple(witness_i[k].tolist())
        k = int(size_ii.argmax())
        if size_ii[k] > worst_ii_size:
            worst_ii_size = int(size_ii[k])
            worst_ii = tuple(witness_ii[k].tolist())
    return LemmaReport(
        lemma_id=lemma_id,
        scale=scale,
        vertex_count=nv,
        mode=mode,
        samples=checked,
        part_i_holds=violations_i == 0,
        part_i_violations=violations_i,
        part_ii_holds=Fraction(worst_ii_size) <= thr_ii * scale,
        worst_i=worst_i,
        worst_i_size=worst_i_size,
        worst_ii=worst_ii,
        worst_ii_size=worst_ii_size,
        threshold_i=thr_i,
        threshold_ii=thr_ii,
    )


def _chunks(tuples: Iterator[tuple[int, ...]]) -> Iterator[np.ndarray]:
    """Consecutive (<= LEMMA_CHUNK, width) index arrays of equal-width tuples."""
    while chunk := list(islice(tuples, LEMMA_CHUNK)):
        shape = len(chunk), len(chunk[0])
        flat = np.fromiter(chain.from_iterable(chunk), np.intp, shape[0] * shape[1])
        yield flat.reshape(shape)


def _all_sets(red_pool, blue_pool, red_count, blue_count):
    """Every set of the given color composition (reds first), lexicographically."""
    for rsel, bsel in product(
        combinations(red_pool, red_count), combinations(blue_pool, blue_count)
    ):
        yield rsel + bsel


def _nsize_draws(reds, blues, nv, samples, rng):
    """Sampled nsize tuples (r1, r2, b1, b2, v, w), drawn lazily in stream order.

    Every pair is sorted(rng.sample(pop, 2)) made from the same getrandbits
    calls, so the tuples and the generator state afterwards are those of
    rng.sample; (v, w) is redrawn while it equals the red or the blue pair.
    When every population is above _SAMPLE_SETSIZE, sample's set branch is
    inlined: a first index below the population size, then a second that also
    differs from the first.
    """
    if min(len(reds), len(blues), nv) <= _SAMPLE_SETSIZE:
        vertices = range(nv)
        for _ in range(samples):
            r1, r2 = sorted(_sample(rng, reds, 2))
            b1, b2 = sorted(_sample(rng, blues, 2))
            while True:
                v, w = sorted(_sample(rng, vertices, 2))
                if (v, w) != (r1, r2) and (v, w) != (b1, b2):
                    break
            yield r1, r2, b1, b2, v, w
        return
    getrandbits = rng.getrandbits
    nr, nb = len(reds), len(blues)
    kr, kb, kv = nr.bit_length(), nb.bit_length(), nv.bit_length()
    for _ in range(samples):
        i = getrandbits(kr)
        while i >= nr:
            i = getrandbits(kr)
        j = getrandbits(kr)
        while j >= nr or j == i:
            j = getrandbits(kr)
        r1, r2 = reds[i], reds[j]
        if r1 > r2:
            r1, r2 = r2, r1
        i = getrandbits(kb)
        while i >= nb:
            i = getrandbits(kb)
        j = getrandbits(kb)
        while j >= nb or j == i:
            j = getrandbits(kb)
        b1, b2 = blues[i], blues[j]
        if b1 > b2:
            b1, b2 = b2, b1
        while True:
            v = getrandbits(kv)
            while v >= nv:
                v = getrandbits(kv)
            w = getrandbits(kv)
            while w >= nv or w == v:
                w = getrandbits(kv)
            if v > w:
                v, w = w, v
            if (v != r1 or w != r2) and (v != b1 or w != b2):
                break
        yield r1, r2, b1, b2, v, w


def _set_draws(red_pool, blue_pool, red_count, blue_count, samples, rng):
    """Sampled sets of fixed color composition, drawn lazily in stream order.

    Each set makes the getrandbits calls of rng.sample(red_pool, red_count),
    then of rng.sample(blue_pool, blue_count) when blue_count is not 0.
    """
    for _ in range(samples):
        rsel = sorted(_sample(rng, red_pool, red_count))
        bsel = sorted(_sample(rng, blue_pool, blue_count)) if blue_count else []
        yield tuple(rsel) + tuple(bsel)


def _sample(rng: random.Random, population: Sequence, k: int) -> list:
    """rng.sample(population, k), made from the same rng.getrandbits calls
    without sample's per-call overhead.

    This replays CPython's algorithm (unchanged from 3.10 to 3.13).  An index
    below m takes getrandbits(m.bit_length()) draws until one is below m.
    A population of at most _SAMPLE_SETSIZE (plus 4 ** ceil(log(3k, 4)) when
    k > 5) is drawn from a pool, the i-th index below n - i, with the pool's
    last member moved into the vacancy; a larger one by indices below n,
    redrawn while already taken.
    """
    n = len(population)
    if not 0 <= k <= n:
        raise ValueError("Sample larger than population or is negative")
    getrandbits = rng.getrandbits
    setsize = _SAMPLE_SETSIZE
    if k > 5:
        setsize += 4 ** math.ceil(math.log(k * 3, 4))
    result = []
    if n <= setsize:
        pool = list(population)
        for m in range(n, n - k, -1):
            bits = m.bit_length()
            j = getrandbits(bits)
            while j >= m:
                j = getrandbits(bits)
            result.append(pool[j])
            pool[j] = pool[m - 1]
        return result
    bits = n.bit_length()
    taken = set()
    for _ in range(k):
        j = getrandbits(bits)
        while j >= n or j in taken:
            j = getrandbits(bits)
        taken.add(j)
        result.append(population[j])
    return result


def _bit_table(tau: TypeGraph) -> np.ndarray:
    """The type's red and blue rows as bitsets: table[0] and table[1] are the
    `_words` of the red and of the blue edge indicators, each with the
    diagonal set, so bit u of table[c][:, a] is set when the edge ua has
    colour c (red, blue) or when u = a.

    A set S then excludes from N(S) exactly the vertices whose red bit and
    blue bit are both set in the OR of the members' rows: those that see a
    red and a blue edge to S, and the members themselves.
    """
    cmat = color_matrix(tau)
    own = np.eye(tau.n, dtype=bool)
    return np.stack([_words((cmat == RED) | own), _words((cmat == BLUE) | own)])


def _outside(table: np.ndarray, sets: np.ndarray) -> np.ndarray:
    """Bitsets of the vertices outside N(S) for every member set S along the
    last axis of `sets`; words first, then the leading axes of `sets`."""
    red, blue = np.bitwise_or.reduce(table[:, :, sets], axis=-1)
    return red & blue


def _sizes(nv: int, outside: np.ndarray) -> np.ndarray:
    """Vertices not in the word-major bitsets `outside`, one count per column."""
    return nv - np.bitwise_count(outside).sum(axis=0, dtype=np.intp)


def _nsize_drawn_pair(table, t):
    """nsize sizes for drawn tuples t[k] = (r1, r2, b1, b2, v, w)."""
    outside = _outside(table, t.reshape(-1, 3, 2))
    out4 = outside[..., 0] | outside[..., 1]
    nv = table.shape[-1]
    return t[:, :4], _sizes(nv, out4), t, _sizes(nv, out4 | outside[..., 2])


def _nsize_best_pair(nv, pair_outside, t):
    """nsize sizes for t[k] = (r1, r2, b1, b2); part ii takes the pair {v, w}
    (other than {r1, r2} and {b1, b2}) that keeps the most vertices, the
    first in lexicographic pair order among ties.  `pair_outside` holds the
    `_outside` bitsets of every pair in that order."""
    ir = _pair_positions(t[:, 0], t[:, 1], nv)
    ib = _pair_positions(t[:, 2], t[:, 3], nv)
    out4 = pair_outside[:, ir] | pair_outside[:, ib]
    counts = _sizes(nv, out4[:, :, None] | pair_outside[:, None, :])
    cols = np.arange(len(t))
    counts[cols, ir] = -1
    counts[cols, ib] = -1
    best = counts.argmax(axis=1)
    v, w = np.triu_indices(nv, 1)
    witness_ii = np.column_stack([t, v[best], w[best]])
    return t, _sizes(nv, out4), witness_ii, counts[cols, best]


def _pair_positions(i: np.ndarray, j: np.ndarray, n: int) -> np.ndarray:
    """Vectorized `pair_index` for pairs i < j."""
    return i * (n - 1) - i * (i - 1) // 2 + (j - i - 1)


def _words(bits: np.ndarray) -> np.ndarray:
    """Rows of a boolean matrix as bitsets, word-major: out[w, i] holds
    bits 64w .. 64w+63 of row i, and the bits past the row width are 0.

    The bits are laid out as np.packbits leaves them, in its default
    big-endian bit order: bit u of a row is bit 7 - u % 8 of the row's byte
    u // 8, and eight consecutive bytes make one word in native byte order,
    so bit u is not bit u % 64 of its word.  Popcounts and bitwise
    operations between words of this layout do not depend on that; reading
    single bits back needs np.unpackbits' default order on the same bytes.
    """
    rows, width = bits.shape
    packed = np.zeros((rows, -(-width // 64) * 8), dtype=np.uint8)
    packed[:, : (width + 7) // 8] = np.packbits(bits, axis=1)
    return packed.view(np.uint64).T.copy()


def _fixed_set_sizes(table, sets):
    """Sizes for member sets A = sets[k]; part ii ranges over all v outside A.

    The OR of the members' rows gives the vertices that see a red and a
    blue edge to A; adding v ORs in v's rows, so the part-ii size for v is
    nv less the popcount of (red(A) | red(v)) & (blue(A) | blue(v)).
    """
    nv, k = table.shape[-1], len(sets)
    red, blue = np.bitwise_or.reduce(table[:, :, sets], axis=-1)
    counts = np.full((k, nv), nv, dtype=np.intp)
    for set_red, set_blue, v_red, v_blue in zip(red, blue, *table):
        counts -= np.bitwise_count((set_red[:, None] | v_red) & (set_blue[:, None] | v_blue))
    cols = np.arange(k)
    counts[cols[:, None], sets] = -1
    best = counts.argmax(axis=1)
    return sets, _sizes(nv, red & blue), np.column_stack([sets, best]), counts[cols, best]


def exhaustive_tuple_space(tau: TypeGraph, lemma_id: str) -> int:
    """Size of the quantified tuple space walked by the exhaustive checker."""
    nv = tau.n
    if lemma_id == "nsize":
        reds, blues = _require_balanced(tau, lemma_id)
        return (
            math.comb(len(reds), 2)
            * math.comb(len(blues), 2)
            * max(math.comb(nv, 2) - 2, 1)
        )
    if lemma_id == "nsize2":
        reds, blues = _require_balanced(tau, lemma_id)
        return math.comb(len(reds), 6) * math.comb(len(blues), 3) * max(nv - 9, 1)
    if lemma_id == "nsize3":
        return math.comb(nv, 3) * max(nv - 3, 1)
    raise ValueError(f"unknown lemma id {lemma_id!r}")


# ---------------------------------------------------------------------------
# Monte Carlo aggregation

MC_KINDS = ("lemma", "block_rows", "contains_rho", "edge_frequency")


@dataclass(frozen=True)
class MCProperty:
    """What to measure per sampled type.

    kind "lemma": success iff the requested part(s) of the lemma check hold;
    measured value is the worst part-i size.  kind "block_rows": both
    diagonal blocks of the matrix have pairwise distinct rows.  kind
    "contains_rho": an exact copy of the pattern exists.  kind
    "edge_frequency": measured value is the frequency of `color`; always a
    success.
    """

    kind: str
    model: str = "friendly"
    lemma_id: str = "nsize"
    part: str = "i"  # i | ii | both
    lemma_mode: str = "sampled"
    tuple_samples: int = 200
    rho: str = "thm1"
    color: int = GREEN

    def __post_init__(self) -> None:
        fault = _property_fault(
            self.kind, self.model, self.lemma_id, self.part, self.lemma_mode,
            self.tuple_samples, self.rho, self.color,
        )
        if fault is not None:
            raise ValueError(fault[1])

    def label(self) -> str:
        if self.kind == "lemma":
            return f"lemma:{self.lemma_id}:{self.part}"
        if self.kind == "contains_rho":
            return f"contains_rho:{self.rho}"
        if self.kind == "edge_frequency":
            return f"edge_frequency:{COLOR_NAMES[self.color]}"
        return self.kind


def _property_fault(
    kind: str,
    model: str,
    lemma_id: str,
    part: str,
    lemma_mode: str,
    tuple_samples: int,
    rho: str,
    color: int,
) -> tuple[str, str] | None:
    """The first invalid MCProperty field, as (field name, message); None
    if every field is valid."""
    if kind not in MC_KINDS:
        return "kind", f"unknown property kind {kind!r}"
    if model not in ("general", "friendly"):
        return "model", f"unknown model {model!r}"
    if lemma_id not in LEMMA_THRESHOLDS:
        return "lemma_id", f"unknown lemma id {lemma_id!r}"
    if lemma_mode not in ("exhaustive", "sampled"):
        return "lemma_mode", f"unknown mode {lemma_mode!r}"
    if tuple_samples < 1:
        return "tuple_samples", "tuple samples must be positive"
    if part not in ("i", "ii", "both"):
        return "part", f"unknown part {part!r}"
    if rho not in PATTERNS:
        return "rho", f"unknown rho token {rho!r}"
    # label() indexes COLOR_NAMES by the color, so 2.0 is no color here
    if not isinstance(color, Integral) or color not in (RED, BLUE, GREEN):
        return "color", f"bad color {color!r}"
    return None


@dataclass(frozen=True)
class MCSummary:
    property_label: str
    model: str
    n: int
    trials: int
    successes: int
    mean: float
    stddev: float

    @property
    def fraction(self) -> float:
        return self.successes / self.trials if self.trials else 0.0


def _evaluate_trial(prop: MCProperty, n: int, seed: int) -> tuple[bool, float]:
    spec = RandomSpec(n, prop.model, seed)
    if prop.kind == "lemma":
        tau = sample_type(spec)
        report = check_neighborhood_lemma(
            tau,
            prop.lemma_id,
            mode=prop.lemma_mode,
            samples=prop.tuple_samples,
            seed=seed,
        )
        if prop.part == "i":
            ok = report.part_i_holds
        elif prop.part == "ii":
            ok = report.part_ii_holds
        else:
            ok = report.part_i_holds and report.part_ii_holds
        return ok, float(report.worst_i_size)
    if prop.kind == "block_rows":
        tau = sample_type(spec)
        rep = block_row_distinctness(matrix_from_type(tau))
        ok = rep.a_rows_distinct and rep.b_rows_distinct
        return ok, 1.0 if ok else 0.0
    if prop.kind == "contains_rho":
        tau = sample_type(spec)
        ok = find_subtype_copy(tau, pattern_by_token(prop.rho)) is not None
        return ok, 1.0 if ok else 0.0
    # edge_frequency
    _, edges = _sample_arrays(spec)
    freq = float((edges == prop.color).mean()) if len(edges) else 0.0
    return True, freq


def monte_carlo(
    prop: MCProperty, n_values: Sequence[int], seeds: Sequence[int]
) -> tuple[MCSummary, ...]:
    """Per-n success fractions and measured-value statistics over the seeds.

    Trials are independent given (n, seed); aggregation is order-free sums,
    so results do not depend on evaluation order.
    """
    if not seeds:
        raise ValueError("need at least one seed")
    summaries = []
    for n in n_values:
        successes = 0
        values = []
        for seed in seeds:
            ok, value = _evaluate_trial(prop, n, seed)
            successes += ok
            values.append(value)
        arr = np.array(values, dtype=float)
        stddev = float(arr.std(ddof=1)) if len(arr) > 1 else 0.0
        summaries.append(
            MCSummary(
                property_label=prop.label(),
                model=prop.model,
                n=n,
                trials=len(seeds),
                successes=successes,
                mean=float(arr.mean()),
                stddev=stddev,
            )
        )
    return tuple(summaries)

