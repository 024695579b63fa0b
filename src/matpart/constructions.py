"""Builders for the hardness gadgets on a host type carrying a copy of one
of model's patterns: the path-gadget obstruction graphs with their
explicit embeddings and finite unsatisfiability check, and the polynomial
reduction graph with its extension embedding.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Sequence

from .model import (
    BLUE,
    SimpleGraph,
    SubtypeCopy,
    TypeGraph,
    common_neighborhood,
    is_embedding,
    pattern_by_token,
    rho_obstruction_family,
)
from .randtypes import RandomSpec, choose_plant_positions, plant_subtype, sample_type

MAX_PATH_LENGTH = 12  # restricted placement check walks 4^m assignments


@dataclass(frozen=True)
class ObstructionInstance:
    """Path-gadget graph built on a host type with a planted/found pattern.

    sigma is the common neighborhood N(r1,r2) ∩ N(b1,b2) of the copy's
    host vertices, as sorted host indices.  Graph vertices are the primed
    sigma vertices (ascending), then x_1..x_m, then y_1..y_m.
    """

    tau: TypeGraph
    rho_copy: SubtypeCopy
    m: int
    sigma: tuple[int, ...]
    graph: SimpleGraph
    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        if self.graph.n != len(self.sigma) + 2 * self.m:
            raise ValueError("graph order must be |sigma| + 2m")

    def prime_index(self, host_vertex: int) -> int:
        return self.sigma.index(host_vertex)

    def x_index(self, i: int) -> int:
        if not 1 <= i <= self.m:
            raise ValueError(f"i must be in 1..{self.m}")
        return len(self.sigma) + (i - 1)

    def y_index(self, i: int) -> int:
        if not 1 <= i <= self.m:
            raise ValueError(f"i must be in 1..{self.m}")
        return len(self.sigma) + self.m + (i - 1)


def obstruction_graph(
    tau: TypeGraph, rho_copy: SubtypeCopy, m: int
) -> ObstructionInstance:
    """Build the order-|sigma|+2m gadget graph for a copy of the six-vertex
    pattern: primed blue-edge graph on sigma, a clique on the y's, the
    alternating x/y path, anchor edges x1-b3' and ym-r3', and x/y spokes
    into sigma wherever the copy's r1/r2 (b1/b2) see a blue edge."""
    if m < 1:
        raise ValueError("m must be positive")
    if m > MAX_PATH_LENGTH:
        raise ValueError(f"m is capped at {MAX_PATH_LENGTH}")
    if rho_copy.host != tau:
        raise ValueError("copy host does not match the given type")
    if rho_copy.pattern != rho_obstruction_family():
        raise ValueError("copy pattern is not the six-vertex family pattern")
    r1, r2, r3, b1, b2, b3 = rho_copy.image
    sigma = tuple(
        sorted(
            common_neighborhood(tau, (r1, r2)) & common_neighborhood(tau, (b1, b2))
        )
    )
    if r3 not in sigma or b3 not in sigma:
        raise ValueError("pattern vertices r3 and b3 must lie in sigma")
    s = len(sigma)
    prime = {v: k for k, v in enumerate(sigma)}
    x = [s + i for i in range(m)]
    y = [s + m + i for i in range(m)]

    edges = _prime_edges(tau, sigma, 0)
    edges.extend((y[i], y[j]) for i in range(m) for j in range(i + 1, m))
    for i in range(m):
        edges.append((x[i], y[i]))
        if i + 1 < m:
            edges.append((y[i], x[i + 1]))
    edges.append((x[0], prime[b3]))
    edges.append((y[m - 1], prime[r3]))
    for v in sigma:
        row = tau.rows[v]
        if row[r1] == BLUE or row[r2] == BLUE:
            edges.extend((xi, prime[v]) for xi in x)
        if row[b1] == BLUE or row[b2] == BLUE:
            edges.extend((yi, prime[v]) for yi in y)
    graph = SimpleGraph.from_edges(s + 2 * m, edges)
    labels = (
        tuple(f"prime {v}" for v in sigma)
        + tuple(f"x {i}" for i in range(1, m + 1))
        + tuple(f"y {i}" for i in range(1, m + 1))
    )
    return ObstructionInstance(tau, rho_copy, m, sigma, graph, labels)


def _prime_edges(tau: TypeGraph, sigma: Sequence[int], offset: int) -> list[tuple[int, int]]:
    """The primed blue-edge graph on sigma, the prime of sigma[k] numbered
    offset + k: two primes are joined iff their sigma vertices form a blue
    edge of tau.  Pairs come in lexicographic order."""
    edges = []
    for k, v in enumerate(sigma):
        row = tau.rows[v]
        edges.extend(
            (offset + k, offset + l) for l in range(k + 1, len(sigma)) if row[sigma[l]] == BLUE
        )
    return edges


def broken_path_embedding(instance: ObstructionInstance, i: int) -> tuple[int, ...]:
    """Embedding of the gadget graph with x_i removed.

    Primed vertices return to their sigma originals; path vertices before
    the break ride r1/b1, those after ride r2/b2, and y_i lands on b2.  The
    map is aligned with graph.delete_vertex(x_index(i)).
    """
    if not 1 <= i <= instance.m:
        raise ValueError(f"i must be in 1..{instance.m}")
    r1, r2, _, b1, b2, _ = instance.rho_copy.image
    s = len(instance.sigma)
    images: list[int] = list(instance.sigma)
    for j in range(1, instance.m + 1):  # x block
        if j != i:
            images.append(r1 if j < i else r2)
    for j in range(1, instance.m + 1):  # y block
        if j < i:
            images.append(b1)
        else:
            images.append(b2)
    return tuple(images)


def restricted_placement_unsat(instance: ObstructionInstance) -> bool:
    """True iff no embedding of the full gadget graph exists that fixes
    every primed vertex on its original and keeps x's on {r1, r2} and y's
    on {b1, b2}; decided by walking all 4^m restricted placements."""
    r1, r2, _, b1, b2, _ = instance.rho_copy.image
    base = list(instance.sigma)
    m = instance.m
    for xs in product((r1, r2), repeat=m):
        for ys in product((b1, b2), repeat=m):
            psi = base + list(xs) + list(ys)
            if is_embedding(instance.graph, instance.tau, psi):
                return False
    return True


def plant_pattern(
    tau: TypeGraph, token: str, seed: int
) -> tuple[TypeGraph, SubtypeCopy]:
    """Plant the pattern named by a PATTERNS token at seeded positions."""
    pattern = pattern_by_token(token)
    position = choose_plant_positions(tau, pattern, seed)
    planted = plant_subtype(tau, pattern, position)
    return planted, SubtypeCopy(pattern, planted, position)


def build_planted_obstruction(n: int, m: int, seed: int) -> ObstructionInstance:
    """Sample a friendly type, plant the family pattern at seeded positions,
    and build the gadget instance."""
    tau, copy = plant_pattern(sample_type(RandomSpec(n, "friendly", seed)), "thm1", seed)
    return obstruction_graph(tau, copy, m)


# ---------------------------------------------------------------------------
# polynomial reduction


@dataclass(frozen=True)
class ReductionInstance:
    """Input graph extended by primed vertices for sigma = N(copy image).

    Output vertices 0..|V(G)|-1 are the originals; |V(G)|+k is the prime of
    sigma[k].
    """

    input_graph: SimpleGraph
    tau: TypeGraph
    rho_copy: SubtypeCopy
    sigma: tuple[int, ...]
    output_graph: SimpleGraph
    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        if self.output_graph.n != self.input_graph.n + len(self.sigma):
            raise ValueError("output order must be |V(G)| + |sigma|")


def reduction_graph(
    g: SimpleGraph, tau: TypeGraph, rho_copy: SubtypeCopy
) -> ReductionInstance:
    """Attach a primed copy of sigma = N(copy image) to g: a prime is joined
    to every original vertex iff its sigma vertex sees a blue edge into the
    copy, and primes are joined iff their sigma vertices form a blue edge."""
    if rho_copy.host != tau:
        raise ValueError("copy host does not match the given type")
    sigma = tuple(sorted(common_neighborhood(tau, rho_copy.image)))
    edges = list(g.edges)
    for k, v in enumerate(sigma):
        row = tau.rows[v]
        if any(row[h] == BLUE for h in rho_copy.image):
            edges.extend((u, g.n + k) for u in range(g.n))
    edges.extend(_prime_edges(tau, sigma, g.n))
    out = SimpleGraph.from_edges(g.n + len(sigma), edges)
    labels = tuple(f"original {u}" for u in range(g.n)) + tuple(
        f"prime {v}" for v in sigma
    )
    return ReductionInstance(g, tau, rho_copy, sigma, out, labels)


def extend_embedding(
    psi: Sequence[int], instance: ReductionInstance
) -> tuple[int, ...]:
    """Turn an embedding of the input graph into the copy's pattern into an
    embedding of the output graph into the host: originals go through the
    copy's image, primes return to their sigma vertices."""
    pattern = instance.rho_copy.pattern
    if not is_embedding(instance.input_graph, pattern, psi):
        raise ValueError("psi is not an embedding of the input graph into the pattern")
    through = tuple(instance.rho_copy.image[t] for t in psi)
    return through + instance.sigma
