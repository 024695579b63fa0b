"""Exact decision procedures: embedding search, minimality tests, and
enumeration of minimal obstructions and edge-homomorphisms.

Every search here is one list M-partition instance run through
model.ListSearch, an iterative backtracking search over bitset target lists
with forward checking.  An embedding of g into tau is an edge-homomorphism
from g, read as a type with blue edges and red non-edges, so both read the
target rows tau.hom_rows.  Everything is complete (no heuristics that lose
solutions), and a node limit turns the answer into a tri-state so a timeout
is never mistaken for "no embedding".

find_embedding walks one search tree in one order, with two cores.
ListSearch expands a node at a time; _bitset_search expands many nodes of
the same tree per numpy call, in the same preorder, so it reaches the same
first map or the same proof of non-embedding and gives the SearchResult
ListSearch alone would give.  Searches longer than BATCH_BUDGET nodes go to
the batched core; one that it declines, or that passes the caller's node
limit or its byte bound there, runs on ListSearch again from the root.

A node of the batched core is a row of n words, one per vertex of g: a
free vertex's target list with a free mark, or an assigned vertex's one
target bit, so a complete row is itself the map.  Beside the row goes one
integer, the nodes its path's steps made after it, which ListSearch never
tries; that is all the core keeps of the tree behind it.  The core counts
the bytes its pending rows hold and keeps its arrays within
MAX_BATCH_BYTES: it declines a graph whose forward table and step arrays
alone pass the bound, and stops once its pending rows pass the rest.

Obstruction enumeration drops isomorphic duplicates by canonical_code, the
least adjacency bitstring over all relabelings.  It is found exactly by a
search over ordered vertex partitions with twin pruning, not by trying all
n! relabelings, which lets the canonical form reach 10 vertices.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterator, Sequence

import numpy as np

from .model import (
    BLUE,
    RED,
    ListSearch,
    SimpleGraph,
    TypeGraph,
    is_embedding,
    subtype,
    vertex_pairs,
)

SAT = "embeddable"
UNSAT = "no-embedding"
UNKNOWN = "limit-exceeded"

BRUTE_FORCE_LIMIT = 10**8

# find_embedding tries ListSearch for this many nodes before it hands a
# search to the batched core; most calls end well within it.
BATCH_BUDGET = 200
# Children expanded per numpy step of the batched core, at most.
BATCH_CHILDREN = 4096
# The batched core keeps a target list and its free mark in one integer of
# 16, 32 or 64 bits, so it takes hosts of up to 63 vertices and declines
# larger ones.
MAX_BATCH_TARGETS = 63
# The batched core's arrays stay within this many bytes: it declines a
# search whose fixed part passes it and stops one whose pending rows pass
# the rest, and ListSearch, whose memory grows with the graph alone, runs it.
MAX_BATCH_BYTES = 1 << 24


@dataclass(frozen=True)
class SolverConfig:
    node_limit: int | None = None

    def __post_init__(self) -> None:
        if self.node_limit is not None and self.node_limit <= 0:
            raise ValueError("node limit must be positive")


@dataclass(frozen=True)
class SearchResult:
    """Outcome of an embedding search.

    status is SAT/UNSAT/UNKNOWN; map is set only on SAT.  nodes counts
    attempted assignments, depth is the deepest partial assignment reached.
    """

    status: str
    map: tuple[int, ...] | None
    nodes: int
    depth: int

    @property
    def found(self) -> bool:
        return self.status == SAT


def find_embedding(
    g: SimpleGraph, tau: TypeGraph, config: SolverConfig | None = None
) -> SearchResult:
    """Complete search for an embedding of g into tau, most constrained
    vertex first.

    Both cores read one relation of g (_relation) against tau.hom_rows.
    ListSearch runs for BATCH_BUDGET nodes; a search that outlasts them
    goes to _bitset_search, which returns the same map, node count and
    depth on SAT and UNSAT.  It returns UNKNOWN when it declines the search
    or its pending rows pass MAX_BATCH_BYTES, and past the caller's limit,
    where its count, which runs ahead of ListSearch's within a step, cannot
    tell where ListSearch would stop; then ListSearch runs again under the
    limit.
    """
    cfg = config or SolverConfig()
    rows = tau.hom_rows
    relation = _relation(g)
    limit = cfg.node_limit
    if limit is None or limit > BATCH_BUDGET:
        first = _list_search(relation, rows, BATCH_BUDGET)
        if first.status != UNKNOWN:
            return first
        result = _bitset_search(relation, rows, limit)
        if result.status != UNKNOWN:
            return result
    return _list_search(relation, rows, limit)


def _relation(g: SimpleGraph) -> list[list[int]]:
    """relation[u][v]: the color a map must respect on the pair uv, BLUE
    for an edge of g and RED for a non-edge (and on the unread diagonal)."""
    relation = [[RED] * g.n for _ in range(g.n)]
    for u, v in g.edges:
        relation[u][v] = relation[v][u] = BLUE
    return relation


def _list_search(
    relation: list[list[int]], rows: Sequence[tuple[int, int, int]], limit: int | None
) -> SearchResult:
    search = ListSearch(
        [(1 << len(rows)) - 1] * len(relation),
        relation,
        rows,
        most_constrained=True,
        node_limit=limit,
    )
    psi = next(iter(search), None)
    status = SAT if psi is not None else UNKNOWN if search.limit_hit else UNSAT
    return SearchResult(status, psi, search.nodes, search.depth)


def _bitset_search(
    relation: list[list[int]], rows: Sequence[tuple[int, int, int]], limit: int | None
) -> SearchResult:
    """ListSearch's search (fewest targets first, ties to the lower vertex),
    expanding many nodes of its tree per numpy call, in its order.

    Returns ListSearch's SearchResult on SAT and UNSAT: the same map, node
    count and depth.  Past limit nodes it returns UNKNOWN with its own
    count, which runs ahead of ListSearch's, since a step expands a whole
    batch of nodes at once; the node count and depth ListSearch would
    reach at the limit are not known here.

    Its arrays stay within MAX_BATCH_BYTES.  The fixed part is the forward
    table and four arrays of a step's children and their node offsets; a
    search with more than MAX_BATCH_TARGETS targets, or whose fixed part
    passes the bound, is declined at 0 nodes with UNKNOWN.  The pending
    rows get the rest: the bytes of every chunk on the stack are counted,
    a split chunk's whole array while any of its rows waits, and once they
    pass the rest the search stops as at the node limit, with UNKNOWN.
    On the planted m = 4 gadgets with n = 16 and 20 (22-27 vertices into
    32 or 40 targets) a whole search peaked at 0.65-0.98 MiB under
    tracemalloc, far inside the bound.

    relation is _relation(g) of the graph g searched.  A search node is a
    row of n words, one per vertex of g.  A free vertex carries its target
    list plus the top bit, so a list that loses every target equals the
    top bit alone and wipes the row out; an assigned vertex carries
    1 << t, its target, without the top bit.  A row with no top bit left
    is a complete assignment, and the map.
    forward[u, t] is the row that assigning t to u ANDs in: the hom row of
    t for each other vertex, with the top bit kept, and 1 << t for u.
    Hom rows are symmetric (s joins t where t joins s), so the word of an
    assigned vertex keeps its bit through every later AND.

    Pending rows wait on a LIFO stack of chunks, front row on top, in
    ListSearch's preorder.  A step takes the first BATCH_CHILDREN // k
    pending rows, whatever their depths, each picking its own vertex, and
    puts their children back on top in order, so it expands at most
    BATCH_CHILDREN children.  The depths of pending rows thus never rise
    from front to back, so a complete row, the deepest there is, is found
    in front, and every node ListSearch tries before its first map has
    been expanded.  The count then runs over ListSearch's by the children
    each step on the row's path made after the path's child, which
    ListSearch never tries, so each pending row carries that number beside
    it and the SAT count subtracts it.
    """
    k, n = len(rows), len(relation)
    if n == 0:
        return SearchResult(SAT, (), 0, 0)
    # a target list and its free mark above it share one word
    dtype = np.uint16 if k < 16 else np.uint32 if k < 32 else np.uint64
    word = np.dtype(dtype).itemsize
    room = MAX_BATCH_BYTES - n * n * k * word - 4 * BATCH_CHILDREN * (n * word + 8)
    if k > MAX_BATCH_TARGETS or room < 0:
        return SearchResult(UNKNOWN, None, 0, 0)
    free = dtype(1) << dtype(word * 8 - 1)
    colors = np.array(relation, np.intp)
    bits = np.left_shift(dtype(1), np.arange(k, dtype=dtype))
    forward = (np.array(rows, dtype=dtype).reshape(k, 3) | free)[
        np.arange(k)[:, None], colors[:, None, :]
    ]
    forward[np.arange(n), :, np.arange(n)] = bits
    cap = BATCH_CHILDREN // max(k, 1)
    index = np.arange(BATCH_CHILDREN)  # indexes a step's rows and its children
    nodes = depth = pending = 0
    # (rows, the nodes made after each row by the steps on its path, the
    # bytes of the chunk's whole arrays)
    stack: list[tuple[np.ndarray, np.ndarray, int]] = [
        (np.full((1, n), free | dtype((1 << k) - 1), dtype), np.zeros(1, np.int64), 0)
    ]
    while stack:
        parts, need = [], cap
        while need and stack:
            doms, after, held = stack.pop()
            if len(doms) > need:
                stack.append((doms[need:], after[need:], held))
                doms, after = doms[:need], after[:need]
            else:
                pending -= held
            parts.append((doms, after))
            need -= len(doms)
        if len(parts) == 1:
            doms, after = parts[0]
        else:
            doms, after = map(np.concatenate, zip(*parts))
        assigned = np.count_nonzero(doms[0] < free)  # the front row is the deepest
        if assigned == n:
            psi = tuple(int(w).bit_length() - 1 for w in doms[0])
            return SearchResult(SAT, psi, nodes - int(after[0]), n - 1)
        depth = max(depth, assigned)
        counts = np.bitwise_count(doms)
        counts -= 2  # a free list counts its targets less one, an assigned vertex wraps to 255
        u = counts.argmin(1)
        values = doms[index[: len(doms)], u]
        parent, t = np.nonzero((values[:, None] & bits) != 0)  # nonzero is faster on bools
        made = len(parent)
        nodes += made
        if limit is not None and nodes > limit or pending > room:
            return SearchResult(UNKNOWN, None, nodes, depth)
        child = doms[parent]
        child &= forward[u[parent], t]
        keep = (child != free).all(1)
        child = child[keep]
        if len(child):  # child i's offset is its parent's plus made - 1 - i
            later = after[parent]
            later += index[made - 1 :: -1]
            later = later[keep]
            held = child.nbytes + later.nbytes
            stack.append((child, later, held))
            pending += held
    return SearchResult(UNSAT, None, nodes, depth)


def brute_force_has_embedding(g: SimpleGraph, tau: TypeGraph) -> bool:
    """Exhaustive oracle over all |V(tau)|^|V(g)| maps; guarded by size."""
    if g.n == 0:
        return True
    if tau.n == 0:
        return False
    if tau.n**g.n > BRUTE_FORCE_LIMIT:
        raise ValueError(f"search space {tau.n}^{g.n} exceeds the brute-force guard")
    psi = [0] * g.n
    last = tau.n - 1
    while True:
        if is_embedding(g, tau, psi):
            return True
        k = g.n - 1
        while k >= 0 and psi[k] == last:
            psi[k] = 0
            k -= 1
        if k < 0:
            return False
        psi[k] += 1


def is_minimal_obstruction(g: SimpleGraph, tau: TypeGraph) -> bool:
    """g has no embedding into tau but every one-vertex-deleted subgraph does."""
    if find_embedding(g, tau).found:
        return False
    return all(find_embedding(g.delete_vertex(v), tau).found for v in range(g.n))


# ---------------------------------------------------------------------------
# canonical forms (n <= 10, minimum adjacency bitstring by partition refinement)

MAX_CANONICAL_N = 10


def canonical_code(g: SimpleGraph) -> int:
    """Minimum adjacency bitstring over all vertex relabelings, as an integer.

    Bit order is lexicographic over pairs with (0,1) most significant, so
    the code is row 0 (vertex 0 against 1..n-1), then row 1, and so on.

    The minimum is found exactly without trying all n! relabelings.  A
    search node is a placed prefix plus an ordered partition of the
    unplaced vertices into cells, as bitsets; level k places position k
    from the first cell and fixes row k.  For a choice v, row k is the
    concatenation over the cells (the first minus v, then the others) of
    0^(s-o) 1^o, where s is the cell's size and o the number of v's
    neighbours in it.  Every (node, v) whose row ties the least row of the
    level, across all nodes, survives, and each of its cells splits into
    the non-neighbours of v followed by the neighbours of v.

    Why this is exact: the least code first minimises row 0, then row 1,
    and so on.  Once rows 0..k-1 are fixed, the orderings that keep them
    are exactly those that list the cells in order, so within each cell
    the non-neighbours of the vertex at position k must come first for row
    k to be least.  The fixed rows determine the cells, so every surviving
    node has the same cell sizes and their rows are comparable.

    Twin rule: v is skipped when a vertex u tried before it in the same
    cell has N(v) = N(u) or N[v] = N[u].  Swapping u and v is then an
    automorphism that fixes the prefix and every cell, so both subtrees
    give the same codes.  Without it the empty and complete graphs would
    grow n! nodes.
    """
    n = g.n
    if n > MAX_CANONICAL_N:
        raise ValueError(f"canonical form supported up to {MAX_CANONICAL_N} vertices")
    nbr = [0] * n
    for u, v in g.edges:
        nbr[u] |= 1 << v
        nbr[v] |= 1 << u
    code = 0
    nodes = [((1 << n) - 1,)]
    for bits in range(n - 1, 0, -1):  # row k has n-1-k bits
        best = 1 << bits
        survivors: list[tuple[tuple[int, ...], int]] = []
        for cells in nodes:
            first = cells[0]
            others = cells[1:]
            twins: set[int] = set()
            rest = first
            while rest:
                bit = rest & -rest
                rest ^= bit
                nv = nbr[bit.bit_length() - 1]
                # one set serves both twin kinds: N(v) = N[u] cannot hold, as it
                # puts u in N(v), so v in N[u] = N(v)
                if nv in twins or (nv | bit) in twins:
                    continue
                twins.add(nv)
                twins.add(nv | bit)
                row = (1 << (first & nv).bit_count()) - 1  # first minus v: v is no neighbour of v
                for cell in others:
                    row = row << cell.bit_count() | (1 << (cell & nv).bit_count()) - 1
                if row > best:
                    continue
                if row < best:
                    best = row
                    survivors = []
                survivors.append((cells, bit))
        code = code << bits | best
        nodes = []
        for cells, bit in survivors:
            nv = nbr[bit.bit_length() - 1]
            split = []
            for cell in (cells[0] ^ bit,) + cells[1:]:
                if cell & ~nv:
                    split.append(cell & ~nv)
                if cell & nv:
                    split.append(cell & nv)
            nodes.append(tuple(split))
    return code


def graph_from_code(n: int, code: int) -> SimpleGraph:
    """Inverse of canonical_code's bit layout for a given vertex count."""
    pairs = list(vertex_pairs(n))
    k = len(pairs)
    edges = [pairs[i] for i in range(k) if code >> (k - 1 - i) & 1]
    return SimpleGraph.from_edges(n, edges)


# ---------------------------------------------------------------------------
# minimal obstruction enumeration


def _extensions(g: SimpleGraph) -> Iterator[SimpleGraph]:
    """All graphs formed by adding one vertex with an arbitrary neighborhood."""
    n = g.n
    base = list(g.edges)
    for mask in range(1 << n):
        extra = [(v, n) for v in range(n) if mask >> v & 1]
        yield SimpleGraph(n + 1, frozenset(base + extra))


def enumerate_minimal_obstructions(
    tau: TypeGraph, max_vertices: int
) -> list[SimpleGraph]:
    """All minimal obstructions with at most max_vertices vertices, one
    canonical representative per isomorphism class, sorted by (order, code).

    Grows candidates level by level: every embeddable graph and every
    minimal obstruction on k vertices is a one-vertex extension of an
    embeddable graph on k-1 vertices, because embeddability is hereditary
    and minimality demands embeddable deletions.
    """
    if not 1 <= max_vertices <= MAX_CANONICAL_N:
        raise ValueError(f"max_vertices must be in 1..{MAX_CANONICAL_N}")
    found: list[tuple[int, int]] = []
    embeddable = {0: SimpleGraph.empty(0)}  # canonical code -> representative
    for size in range(1, max_vertices + 1):
        seen: set[int] = set()
        next_embeddable: dict[int, SimpleGraph] = {}
        for parent in embeddable.values():
            for cand in _extensions(parent):
                code = canonical_code(cand)
                if code in seen:
                    continue
                seen.add(code)
                if find_embedding(cand, tau).found:
                    next_embeddable[code] = graph_from_code(size, code)
                elif all(
                    find_embedding(cand.delete_vertex(v), tau).found
                    for v in range(size)
                ):
                    found.append((size, code))
        embeddable = next_embeddable
    return [graph_from_code(n, code) for n, code in sorted(found)]


# ---------------------------------------------------------------------------
# edge-homomorphism enumeration and fixed-point scan

EDGE_HOM_LIMIT = 10**8
MAX_FIXED_POINT_N = 7


def enumerate_edge_homomorphisms(
    sigma: TypeGraph, tau: TypeGraph
) -> Iterator[tuple[int, ...]]:
    """All edge-homomorphisms sigma -> tau in lexicographic order."""
    if tau.n > 1 and tau.n**sigma.n > EDGE_HOM_LIMIT:
        raise ValueError(f"search space {tau.n}^{sigma.n} exceeds the guard")
    yield from ListSearch([(1 << tau.n) - 1] * sigma.n, sigma.rows, tau.hom_rows)


@dataclass(frozen=True)
class FixedPointReport:
    """Minimizing witness of the fixed-point scan over large subtypes."""

    subtype_vertices: tuple[int, ...]
    map: tuple[int, ...]
    fixed_count: int
    alpha: Fraction
    beta: Fraction

    @property
    def subtype_size(self) -> int:
        return len(self.subtype_vertices)

    def __post_init__(self) -> None:
        if self.fixed_count > self.subtype_size:
            raise ValueError("fixed points exceed subtype size")


def min_fixed_points(tau: TypeGraph, alpha: Fraction | float) -> FixedPointReport:
    """The witness with the fewest fixed points among every subtype with at
    least alpha * |V(tau)| vertices and every edge-homomorphism from it into
    tau (first found in (size, vertices, map) order on ties).

    Only the subtypes of the least such size kmin are scanned.  An
    edge-homomorphism from a larger subtype restricts to one from each of
    its kmin-vertex subtypes, with no more fixed points, so the least count
    is reached at size kmin, and in the full scan, which replaces its best
    only on a strict improvement, it is first reached there too."""
    alpha = Fraction(alpha).limit_denominator(10**6) if not isinstance(alpha, Fraction) else alpha
    if not 0 < alpha <= 1:
        raise ValueError("alpha must be in (0, 1]")
    n = tau.n
    if n == 0:
        raise ValueError("type is empty")
    if n > MAX_FIXED_POINT_N:
        raise ValueError(f"exhaustive scan supported up to {MAX_FIXED_POINT_N} vertices")
    kmin = 1
    while Fraction(kmin) < alpha * n:
        kmin += 1

    best: FixedPointReport | None = None
    for vertices in combinations(range(n), kmin):
        for mapping in enumerate_edge_homomorphisms(subtype(tau, vertices), tau):
            fixed = sum(1 for a, t in zip(vertices, mapping) if a == t)
            if best is None or fixed < best.fixed_count:
                best = FixedPointReport(vertices, mapping, fixed, alpha, Fraction(fixed, n))
    assert best is not None  # kmin <= n guarantees at least the identity scan
    return best
