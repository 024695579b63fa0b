"""Core data model: partition matrices, colored types, the paper's two
pattern types, graphs, and maps.

A partition matrix M is a symmetric table over {0, 1, *} with no * on the
diagonal; it specifies which vertex classes of a partition must span
non-edges (0), edges (1), or anything (*).  A *type* is the same matrix
read as a colored complete graph: M[i][i] colors vertex i red (0) or blue
(1), and M[i][j] colors the edge ij red, blue or green (0, 1, *).
PartitionMatrix and TypeGraph both store exactly that table, one bytes row
per index, so a matrix and its type share one tuple of rows, and a
vertex's view of the type is its row and needs no walk in pair order.

Because the diagonal holds the vertex color, one rule decides where a map
psi may send a pair u, v of a graph g: an edge may not land on a red entry
M[psi(u)][psi(v)] and a non-edge may not land on a blue one.  It covers
psi(u) == psi(v), where the entry is a vertex color, as well as distinct
images.

All values here are immutable and hashable, and every operation is a pure
function, so everything is safe to share across threads.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from operator import index
from typing import Iterable, Iterator, Sequence

RED, BLUE, GREEN = 0, 1, 2
ZERO, ONE, STAR = 0, 1, 2  # matrix entries, aligned with the color correspondence

COLOR_NAMES = ("red", "blue", "green")
ENTRY_CHARS = "01*"


def pair_index(i: int, j: int, n: int) -> int:
    """Position of the pair (i, j), i < j, in lexicographic pair order."""
    if not 0 <= i < j < n:
        raise ValueError(f"bad pair ({i}, {j}) for n={n}")
    return i * (n - 1) - i * (i - 1) // 2 + (j - i - 1)


def vertex_pairs(n: int):
    """All pairs (i, j) with i < j < n, in lexicographic order."""
    return combinations(range(n), 2)


@dataclass(frozen=True, init=False)
class _Table:
    """A symmetric table stored as one bytes row per index, the stored form
    of both PartitionMatrix and TypeGraph."""

    rows: tuple[bytes, ...]

    @classmethod
    def _from_rows(cls, rows: Iterable[bytes]):
        """The value with these rows, which the caller guarantees form a
        valid table: symmetric, 0 or 1 on the diagonal, 0..2 elsewhere."""
        table = cls.__new__(cls)
        object.__setattr__(table, "rows", tuple(rows))
        return table


@dataclass(frozen=True, init=False)
class PartitionMatrix(_Table):
    """Symmetric m x m table over {ZERO, ONE, STAR}, no STAR on the diagonal.

    Stored as a TypeGraph is, one bytes row per index, so a matrix and its
    type share one tuple of rows.
    The constructor validates any square sequence of rows, reading each
    row by index (a mapping row by its values), and names the first fault.
    """

    def __init__(self, entries: Sequence[Sequence[int]]) -> None:
        m = len(entries)
        for i, row in enumerate(entries):
            if len(row) != m:
                raise ValueError(f"row {i} has length {len(row)}, expected {m}")
            _check_entries(i, row)
        fault = _table_fault(entries)
        if fault is not None:
            raise ValueError(fault[2])
        rows = []
        for i, row in enumerate(entries):
            values = [row[j] for j in range(m)]
            _check_entries(i, values)  # a mapping row: the walks read its keys
            rows.append(_byte_form(values))
        object.__setattr__(self, "rows", tuple(rows))

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[int]]) -> "PartitionMatrix":
        return cls(tuple(tuple(row) for row in rows))

    @property
    def m(self) -> int:
        return len(self.rows)


def _check_entries(i: int, row: Iterable) -> None:
    for j, e in enumerate(row):
        if e not in (ZERO, ONE, STAR):
            raise ValueError(f"bad entry {e!r} at ({i}, {j})")


def _table_fault(rows: Sequence[Sequence[int]]) -> tuple[int, int, str] | None:
    """The first fault of a square table in row order, as (i, j, message):
    a star on the diagonal (j == i) or an asymmetric pair (i < j).  None
    if there is neither."""
    for i, row in enumerate(rows):
        if row[i] == STAR:
            return i, i, f"star on diagonal {i}"
        for j in range(i + 1, len(rows)):
            if row[j] != rows[j][i]:
                return i, j, f"not symmetric ({i},{j})"
    return None


@dataclass(frozen=True, init=False)
class TypeGraph(_Table):
    """Complete graph with red/blue vertices and red/blue/green edges,
    stored as its partition matrix.

    rows[i][j] is the color of the edge ij and rows[i][i] the color of
    vertex i, one bytes object per row.  Since the diagonal holds the
    vertex color, a rule on entries (an edge of g may not land on red, a
    non-edge not on blue) holds for two graph vertices sent to one type
    vertex just as for two sent to distinct ones.

    The constructor takes the vertex colors and the edge colors in
    lexicographic pair order (0,1), (0,2), ..., (0,n-1), (1,2), ..., and
    validates them; vertex_colors and edge_colors give them back.
    """

    def __init__(self, vertex_colors: Sequence[int], edge_colors: Sequence[int]) -> None:
        n = len(vertex_colors)
        for i, c in enumerate(vertex_colors):
            if c not in (RED, BLUE):
                raise ValueError(f"bad vertex color {c!r} at {i}")
        if len(edge_colors) != n * (n - 1) // 2:
            raise ValueError(
                f"expected {n * (n - 1) // 2} edge colors, got {len(edge_colors)}"
            )
        for k, c in enumerate(edge_colors):
            if c not in (RED, BLUE, GREEN):
                raise ValueError(f"bad edge color {c!r} at pair index {k}")
        rows = _rows_from_pairs(_byte_form(vertex_colors), _byte_form(edge_colors))
        object.__setattr__(self, "rows", rows)

    @property
    def n(self) -> int:
        return len(self.rows)

    @cached_property
    def vertex_colors(self) -> tuple[int, ...]:
        return tuple(row[i] for i, row in enumerate(self.rows))

    @cached_property
    def hom_rows(self) -> tuple[tuple[int, int, int], ...]:
        """hom_rows[t][c]: bitset of targets s that an edge of color c may
        join to t, the target rows of every embedding and edge-homomorphism
        search of this type.  Built on first use, once per type.

        A red (blue) edge may collapse into a red (blue) vertex or cross a
        red (blue) or green edge; a green edge may go anywhere.  With the
        vertex color on the diagonal, that is every entry of row t but blue
        (red).
        """
        full = (1 << self.n) - 1
        return tuple(
            (_row_bits(row, _NOT_BLUE), _row_bits(row, _NOT_RED), full) for row in self.rows
        )

    @property
    def edge_colors(self) -> tuple[int, ...]:
        """Edge colors in lexicographic pair order."""
        return tuple(b"".join(row[i + 1 :] for i, row in enumerate(self.rows)))

    def edge(self, i: int, j: int) -> int:
        """Color of the edge between distinct vertices i and j."""
        n = len(self.rows)
        if i == j or not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"bad pair ({min(i, j)}, {max(i, j)}) for n={n}")
        return self.rows[i][j]

    def red_vertices(self) -> tuple[int, ...]:
        return tuple(v for v, c in enumerate(self.vertex_colors) if c == RED)

    def blue_vertices(self) -> tuple[int, ...]:
        return tuple(v for v, c in enumerate(self.vertex_colors) if c == BLUE)


def _rows_from_pairs(vertex_colors: bytes, edge_colors: bytes) -> tuple[bytes, ...]:
    """Rows of the table with this diagonal and these entries in pair order.

    The entries of the pairs (i, i+1), ..., (i, n-1) are consecutive; they
    fill row i right of the diagonal and column i below it.
    """
    n = len(vertex_colors)
    flat = bytearray(n * n)
    flat[:: n + 1] = vertex_colors
    k = 0
    for i in range(n - 1):
        upper = edge_colors[k : k + n - 1 - i]
        flat[i * n + i + 1 : (i + 1) * n] = upper
        flat[(i + 1) * n + i :: n] = upper
        k += n - 1 - i
    return tuple(bytes(flat[i * n : (i + 1) * n]) for i in range(n))


def _bit_table(*colors: int) -> bytes:
    """bytes.translate table sending the given colors (entries) to b"1" and
    the others to b"0"."""
    return bytes.maketrans(b"\0\1\2", bytes(b"01"[c in colors] for c in range(3)))


_EQUALS = tuple(_bit_table(c) for c in (RED, BLUE, GREEN))
_NOT_BLUE = _bit_table(RED, GREEN)
_NOT_RED = _bit_table(BLUE, GREEN)


def _row_bits(row: bytes, table: bytes) -> int:
    """Bitset of the positions j whose entry row[j] the table sends to b"1";
    position j is bit j."""
    return int(row.translate(table)[::-1] or b"0", 2)


def type_from_edges(
    vertex_colors: Sequence[int],
    edges: dict[tuple[int, int], int],
    default: int,
) -> TypeGraph:
    """Build a type from explicit edge colors; unlisted pairs get `default`."""
    n = len(vertex_colors)
    colors = [default] * (n * (n - 1) // 2)
    for (i, j), c in edges.items():
        if i > j:
            i, j = j, i
        colors[pair_index(i, j, n)] = c
    return TypeGraph(tuple(vertex_colors), tuple(colors))


@dataclass(frozen=True)
class SimpleGraph:
    """Finite simple undirected graph on vertices 0..n-1."""

    n: int
    edges: frozenset

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("negative vertex count")
        for e in self.edges:
            u, v = e
            if not 0 <= u < v < self.n:
                raise ValueError(f"bad edge {e!r} for n={self.n}")

    @cached_property
    def adjacency(self) -> tuple[int, ...]:
        """Neighbor bitmask of each vertex: bit v of adjacency[u] is set iff
        uv is an edge.  Built on first use, once per graph."""
        nbr = [0] * self.n
        for u, v in self.edges:
            nbr[u] |= 1 << v
            nbr[v] |= 1 << u
        return tuple(nbr)

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "SimpleGraph":
        norm = set()
        for u, v in edges:
            if u == v:
                raise ValueError(f"loop at {u}")
            if u > v:
                u, v = v, u
            norm.add((u, v))
        return cls(n, frozenset(norm))

    @classmethod
    def empty(cls, n: int) -> "SimpleGraph":
        return cls(n, frozenset())

    @classmethod
    def complete(cls, n: int) -> "SimpleGraph":
        return cls(n, frozenset((u, v) for u in range(n) for v in range(u + 1, n)))

    @classmethod
    def cycle(cls, n: int) -> "SimpleGraph":
        if n < 3:
            raise ValueError("cycle needs at least 3 vertices")
        return cls.from_edges(n, [(v, (v + 1) % n) for v in range(n)])

    @classmethod
    def path(cls, n: int) -> "SimpleGraph":
        return cls.from_edges(n, [(v, v + 1) for v in range(n - 1)])

    def has_edge(self, u: int, v: int) -> bool:
        if u > v:
            u, v = v, u
        return (u, v) in self.edges

    def induced(self, keep: Sequence[int]) -> "SimpleGraph":
        """Induced subgraph on `keep`, reindexed in the given order."""
        pos = {v: k for k, v in enumerate(keep)}
        if len(pos) != len(keep):
            raise ValueError("duplicate vertices in keep")
        edges = [
            (pos[u], pos[v])
            for (u, v) in self.edges
            if u in pos and v in pos
        ]
        return SimpleGraph.from_edges(len(keep), edges)

    def delete_vertex(self, v: int) -> "SimpleGraph":
        """Remove vertex v; remaining vertices keep their relative order."""
        return self.induced([u for u in range(self.n) if u != v])

    def sorted_edges(self) -> list[tuple[int, int]]:
        return sorted(self.edges)


@dataclass(frozen=True)
class SubtypeCopy:
    """An exact injective copy of `pattern` inside `host`.

    image[k] is the host vertex playing the role of pattern vertex k: every
    entry of the pattern's table, vertex colors on the diagonal included,
    equals the host's entry at the image.
    """

    pattern: TypeGraph
    host: TypeGraph
    image: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.image) != self.pattern.n:
            raise ValueError("image length does not match pattern order")
        if len(set(self.image)) != len(self.image):
            raise ValueError("image is not injective")
        for h in self.image:
            if not 0 <= h < self.host.n:
                raise ValueError(f"image vertex {h} outside host")
        for k, (row, h) in enumerate(zip(self.pattern.rows, self.image)):
            host_row = self.host.rows[h]
            for l in range(k, len(row)):
                if row[l] != host_row[self.image[l]]:
                    raise ValueError(
                        f"vertex color mismatch at pattern vertex {k}"
                        if k == l
                        else f"edge color mismatch on pattern pair ({k},{l})"
                    )


# ---------------------------------------------------------------------------
# matrix <-> type correspondence


def type_from_matrix(mat: PartitionMatrix) -> TypeGraph:
    """Type view of a matrix: diagonal 0/1 -> red/blue vertex, entries -> edge colors."""
    return TypeGraph._from_rows(mat.rows)


def matrix_from_type(tau: TypeGraph) -> PartitionMatrix:
    """Exact inverse of type_from_matrix: the type's rows are the matrix."""
    return PartitionMatrix._from_rows(tau.rows)


def coloring_matrix(k: int) -> PartitionMatrix:
    """k x k matrix with 0 diagonal and * elsewhere (k-coloring problem)."""
    if k < 1:
        raise ValueError("k must be positive")
    rows = [[ZERO if i == j else STAR for j in range(k)] for i in range(k)]
    return PartitionMatrix.from_rows(rows)


# role indices inside the six-vertex pattern
R1, R2, R3, B1, B2, B3 = range(6)


def rho_obstruction_family() -> TypeGraph:
    """Six-vertex friendly type whose planted copies force arbitrarily long
    path gadgets: three red and three blue vertices, blue edges r1r3, r2r3,
    b1b2, green edges r1b1, r1b3, r2b2, r3b2, red edges elsewhere."""
    return type_from_edges(
        (RED, RED, RED, BLUE, BLUE, BLUE),
        {
            (R1, R3): BLUE,
            (R2, R3): BLUE,
            (B1, B2): BLUE,
            (R1, B1): GREEN,
            (R1, B3): GREEN,
            (R2, B2): GREEN,
            (R3, B2): GREEN,
        },
        default=RED,
    )


def rho_three_coloring() -> TypeGraph:
    """Three red vertices with green edges: embeddability = 3-colorability."""
    return type_from_matrix(coloring_matrix(3))


# pattern token -> builder: 'thm1' the family pattern, 'thm3' 3-coloring
PATTERNS = {"thm1": rho_obstruction_family, "thm3": rho_three_coloring}


def pattern_by_token(token: str) -> TypeGraph:
    """The pattern type named by a token of PATTERNS."""
    if token not in PATTERNS:
        raise ValueError(f"unknown pattern token {token!r}")
    return PATTERNS[token]()


def is_friendly(mat: PartitionMatrix) -> bool:
    """False iff some 2x2 principal submatrix is [[0,*],[*,0]] or [[1,*],[*,1]]."""
    return _no_two_within_class(mat.rows)


def type_is_friendly(tau: TypeGraph) -> bool:
    """No green edge between two red vertices or between two blue vertices."""
    return _no_two_within_class(tau.rows)


def _byte_form(values: Sequence[int]) -> bytes:
    try:
        return bytes(values)
    except TypeError:  # validation lets through values such as 2.0, equal to an int
        return bytes(map(int, values))


def _no_two_within_class(rows: Sequence[bytes]) -> bool:
    """rows is a table with 0 or 1 on the diagonal.  True iff no entry 2
    (STAR, GREEN) joins two vertices whose diagonal entries are equal.

    A row at a time: the bitset of the 2s in row i, where the diagonal
    never is one, meets the bitset of the vertices in the class of i.
    """
    classes = bytes(row[i] for i, row in enumerate(rows))
    same = [_row_bits(classes, _EQUALS[c]) for c in (ZERO, ONE)]
    return not any(
        _row_bits(row, _EQUALS[STAR]) & same[row[i]] for i, row in enumerate(rows)
    )


# ---------------------------------------------------------------------------
# neighborhoods and subtypes


def common_neighborhood(tau: TypeGraph, member_set: Iterable[int]) -> frozenset:
    """Vertices outside the set with no red edge to one member and blue edge to another.

    For the empty set every vertex qualifies vacuously.
    """
    members = frozenset(member_set)
    for a in members:
        if not 0 <= a < tau.n:
            raise ValueError(f"vertex {a} outside type")
    return frozenset(
        v
        for v, row in enumerate(tau.rows)
        if v not in members and not {RED, BLUE} <= {row[a] for a in members}
    )


def subtype(tau: TypeGraph, vertex_set: Iterable[int]) -> TypeGraph:
    """Induced type on the given vertices, reindexed in ascending host order."""
    keep = sorted(set(vertex_set))
    for a in keep:
        if not 0 <= a < tau.n:
            raise ValueError(f"vertex {a} outside type")
    return TypeGraph._from_rows(bytes(tau.rows[a][b] for b in keep) for a in keep)


def find_subtype_copy(host: TypeGraph, pattern: TypeGraph) -> SubtypeCopy | None:
    """Search for an exact color-preserving injective copy of pattern in host.

    Returns the copy with lexicographically least image, or None.  The
    pattern's rows are the relation: every pattern pair asks for its exact
    color.  The host rows leave out each vertex's own diagonal entry, so
    they also make the image injective.
    """
    by_color = [0, 0]
    for h, c in enumerate(host.vertex_colors):
        by_color[c] |= 1 << h
    domains = [by_color[c] for c in pattern.vertex_colors]
    rows = [
        [_row_bits(row, table) & ~(1 << t) for table in _EQUALS]
        for t, row in enumerate(host.rows)
    ]
    image = next(iter(ListSearch(domains, pattern.rows, rows)), None)
    return None if image is None else SubtypeCopy(pattern, host, image)


# ---------------------------------------------------------------------------
# list assignment search


class ListSearch:
    """Complete search for list assignments, shared by every decision
    procedure (embeddings, exact subtype copies, edge-homomorphisms).

    Variable v may take the targets in the bitset domains[v].  When variable
    u takes target t, every other variable v is restricted to the bitset
    rows[t][relation[u][v]] (forward checking); relation[u][u] is never
    read.  Iterating yields every complete assignment as a tuple in search
    order: variables are taken in index order, or by fewest remaining
    targets (ties to the lower index) when most_constrained is set, and each
    variable's targets ascend.  With index order the output is therefore
    lexicographic.

    nodes counts tried values and depth the most variables assigned when a
    variable was picked.  Past node_limit tried values the iteration stops
    and limit_hit is set.  The search keeps an explicit stack, so its depth
    is bounded by memory rather than by the interpreter's recursion limit.
    """

    def __init__(
        self,
        domains: Sequence[int],
        relation: Sequence[Sequence[int]],
        rows,
        most_constrained: bool = False,
        node_limit: int | None = None,
    ) -> None:
        self.domains = list(domains)
        self.relation = relation
        self.rows = rows
        self.most_constrained = most_constrained
        self.node_limit = node_limit
        self.nodes = 0
        self.depth = 0
        self.limit_hit = False

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        n = len(self.domains)
        relation, rows, limit = self.relation, self.rows, self.node_limit
        assignment = [-1] * n
        doms, free = self.domains, list(range(n))
        stack: list[list] = []  # [variable, untried targets, domains, other free variables]
        while True:
            depth = len(stack)
            if depth == n:
                yield tuple(assignment)
            else:
                self.depth = max(self.depth, depth)
                if self.most_constrained:
                    u = min(free, key=lambda v: doms[v].bit_count())
                else:
                    u = free[0]
                stack.append([u, doms[u], doms, [v for v in free if v != u]])
            while stack:
                frame = stack[-1]
                u, values, doms, free = frame
                if not values:
                    stack.pop()
                    continue
                low = values & -values
                frame[1] = values ^ low
                self.nodes += 1
                if limit is not None and self.nodes > limit:
                    self.limit_hit = True
                    return
                t = low.bit_length() - 1
                row, rel = rows[t], relation[u]
                child = doms[:]
                for v in free:
                    child[v] &= row[rel[v]]
                    if not child[v]:
                        break
                else:
                    assignment[u] = t
                    doms = child
                    break
            else:
                return


# ---------------------------------------------------------------------------
# embeddings and homomorphisms


def is_embedding(g: SimpleGraph, tau: TypeGraph, psi: Sequence[int]) -> bool:
    """Does psi embed g into tau?

    No edge uv may land on a red entry rows[psi[u]][psi[v]] and no non-edge
    on a blue one: edges go to one blue vertex or across a blue/green edge,
    non-edges to one red vertex or across a red/green edge.

    Pairs are walked from the highest-numbered vertex down.  Callers that
    enumerate maps vary the last entries fastest, so a map that fails
    usually fails on its first few pairs.
    """
    if len(psi) != g.n:
        raise ValueError(f"map has {len(psi)} entries, graph has {g.n} vertices")
    n = len(tau.rows)
    # inline rather than in a helper: a helper call costs
    # brute_force_has_embedding, which calls this once per map, about 10%
    try:
        for t in psi:
            if not 0 <= index(t) < n:
                raise ValueError(f"image vertex {t} outside type")
    except TypeError:  # index(t) of an entry that is no integer (a bool is one)
        raise ValueError(f"image vertex {t!r} is not an integer") from None
    rows, adjacency = tau.rows, g.adjacency
    for u in range(g.n - 1, 0, -1):
        row, nbrs = rows[psi[u]], adjacency[u]
        for v in range(u - 1, -1, -1):
            if row[psi[v]] == (RED if nbrs >> v & 1 else BLUE):
                return False
    return True


# ---------------------------------------------------------------------------
# matrix block structure


@dataclass(frozen=True)
class BlockRowReport:
    """Equality structure of the diagonal-0 (A) and diagonal-1 (B) row blocks."""

    a_rows_distinct: bool
    b_rows_distinct: bool
    no_three_rows_equal_a: bool
    no_three_rows_equal_b: bool


def block_row_distinctness(mat: PartitionMatrix) -> BlockRowReport:
    """Compare full matrix rows within the diagonal-0 and diagonal-1 blocks."""

    def stats(rows: list[bytes]) -> tuple[bool, bool]:
        mult = max(Counter(rows).values(), default=0)
        return mult <= 1, mult <= 2

    a_rows = [row for i, row in enumerate(mat.rows) if row[i] == ZERO]
    b_rows = [row for i, row in enumerate(mat.rows) if row[i] == ONE]
    a2, a3 = stats(a_rows)
    b2, b3 = stats(b_rows)
    return BlockRowReport(a2, b2, a3, b3)
