"""Graph constructions that lift a 3-XOR system into a GI-hard graph.

Three graphs per formula:
  * the bipartite incidence graph (clauses left, variables right),
  * the core lift: 2 vertices per variable, 4 per clause,
  * the full lift: core plus a 3-vertex order gadget between each pair
    of consecutive variables, which pins the variable order and kills
    all automorphisms except those induced by satisfying assignments.

Vertex numbering is frozen (see VertexScheme) so exports are
byte-identical across runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Iterable, List, Optional, Sequence, Tuple

from .formula import XorFormula

# Tag order for the 4 vertices of a clause gadget. Tag bits say which of
# the clause's variables (in ascending order) are negated relative to
# the clause's base literal pattern.
CLAUSE_TAGS: Tuple[Tuple[int, int, int], ...] = ((0, 0, 0), (0, 1, 1), (1, 1, 0), (1, 0, 1))


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph on vertices 0..vertex_count-1."""

    vertex_count: int
    edges: FrozenSet[Tuple[int, int]]
    colors: Optional[Tuple[int, ...]] = None

    def __post_init__(self):
        if self.vertex_count < 0:
            raise ValueError(f"vertex count must be >= 0, got {self.vertex_count}")
        for u, v in self.edges:
            if not (0 <= u < v < self.vertex_count):
                raise ValueError(f"bad edge ({u}, {v}) for {self.vertex_count} vertices")
        if self.colors is not None and len(self.colors) != self.vertex_count:
            raise ValueError("colors must cover every vertex")

    @classmethod
    def from_edges(
        cls,
        vertex_count: int,
        edges: Iterable[Tuple[int, int]],
        colors: Optional[Sequence[int]] = None,
    ) -> "Graph":
        norm = frozenset((u, v) if u < v else (v, u) for u, v in edges)
        return cls(vertex_count, norm, None if colors is None else tuple(colors))

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def degrees(self) -> List[int]:
        deg = [0] * self.vertex_count
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return deg


@dataclass(frozen=True)
class VertexScheme:
    """Frozen vertex ids for the lifted graphs of an (n, m) formula.

    variable j (1-based): X_j^0 -> 2(j-1), X_j^1 -> 2(j-1)+1
    clause c (1-based, canonical clause order), tag t in CLAUSE_TAGS:
        2n + 4(c-1) + tag_index
    order gadget i in 1..n-1: i_l -> 2n+4m+3(i-1), i_r -> +1, i_s -> +2

    The vertex and edge counts of both lifts are defined here only.
    """

    n: int
    m: int

    def var_vertex(self, j: int, bit: int) -> int:
        return 2 * (j - 1) + bit

    def clause_vertex(self, c: int, tag_index: int) -> int:
        return 2 * self.n + 4 * (c - 1) + tag_index

    def gadget_left(self, i: int) -> int:
        return 2 * self.n + 4 * self.m + 3 * (i - 1)

    def gadget_right(self, i: int) -> int:
        return self.gadget_left(i) + 1

    def gadget_stub(self, i: int) -> int:
        return self.gadget_left(i) + 2

    @property
    def core_vertex_count(self) -> int:
        return 2 * self.n + 4 * self.m

    @property
    def core_edge_count(self) -> int:
        return 12 * self.m + self.n

    @property
    def full_vertex_count(self) -> int:
        return self.core_vertex_count + 3 * (self.n - 1)

    @property
    def full_edge_count(self) -> int:
        return self.core_edge_count + 6 * (self.n - 1)


def incidence_graph(f: XorFormula) -> Graph:
    """Bipartite clause/variable incidence graph, colored by side.

    Variable j is vertex j-1 (color 0); clause c is vertex n+c-1 (color 1).
    """
    if not f.is_homogeneous:
        raise ValueError("incidence graph is defined for homogeneous formulas")
    n = f.n
    edges = frozenset((v - 1, n + c) for c, cl in enumerate(f.clauses) for v in cl.vars)
    g = Graph(n + f.m, edges, tuple([0] * n + [1] * f.m))
    assert g.edge_count == 3 * f.m  # every clause vertex has degree 3
    return g


def _clause_literal_patterns(rhs: int) -> List[Tuple[int, int, int]]:
    """Negation pattern of each of the 4 gadget vertices of a clause.

    Bit k is 1 when the clause's k-th variable (ascending order) appears
    negated at that vertex. The base vertex carries the clause itself;
    for rhs 1 the smallest variable is the negated one.
    """
    base = (1, 0, 0) if rhs else (0, 0, 0)
    return [tuple(b ^ t for b, t in zip(base, tag)) for tag in CLAUSE_TAGS]


def _core_edges(f: XorFormula, scheme: VertexScheme) -> set:
    """The core lift's edges, each as (smaller, larger) endpoint: every
    variable vertex lies below every clause vertex."""
    edges = set()
    for j in range(1, f.n + 1):
        edges.add((scheme.var_vertex(j, 0), scheme.var_vertex(j, 1)))
    for c, cl in enumerate(f.clauses, start=1):
        for tag_index, pattern in enumerate(_clause_literal_patterns(cl.rhs)):
            cv = scheme.clause_vertex(c, tag_index)
            for k, var in enumerate(cl.vars):
                edges.add((scheme.var_vertex(var, 1 - pattern[k]), cv))
    return edges


def build_core(f: XorFormula) -> Graph:
    """The lift without order gadgets (sizes in VertexScheme.core_*_count).

    Each clause becomes 4 vertices (the clause and the 3 equivalent
    clauses from negating exactly two literals). A clause vertex is
    adjacent to X^1 where it holds the positive literal and to X^0 where
    it holds the negated one; every X^0-X^1 pair is joined by an edge.
    """
    scheme = VertexScheme(f.n, f.m)
    g = Graph(scheme.core_vertex_count, frozenset(_core_edges(f, scheme)))
    assert g.edge_count == scheme.core_edge_count
    return g


def build_full(f: XorFormula) -> Graph:
    """Core lift plus order gadgets (sizes in VertexScheme.full_*_count).

    Gadget i contributes vertices i_l, i_r, i_s and the six edges
    (i_l,i_r), (i_r,i_s), (i_l,X_i^0), (i_l,X_i^1), (i_r,X_{i+1}^0),
    (i_r,X_{i+1}^1).
    """
    if f.n < 2:
        raise ValueError("order gadgets need at least 2 variables")
    scheme = VertexScheme(f.n, f.m)
    edges = _core_edges(f, scheme)
    # Gadget vertices lie above every variable vertex.
    for i in range(1, f.n):
        il, ir, s = scheme.gadget_left(i), scheme.gadget_right(i), scheme.gadget_stub(i)
        edges.add((il, ir))
        edges.add((ir, s))
        edges.add((scheme.var_vertex(i, 0), il))
        edges.add((scheme.var_vertex(i, 1), il))
        edges.add((scheme.var_vertex(i + 1, 0), ir))
        edges.add((scheme.var_vertex(i + 1, 1), ir))
    g = Graph(scheme.full_vertex_count, frozenset(edges))
    assert g.edge_count == scheme.full_edge_count
    return g


def is_automorphism(g: Graph, perm: Sequence[int]) -> bool:
    """Edge- and color-preserving check, done edge by edge."""
    if sorted(perm) != list(range(g.vertex_count)):
        return False
    if g.colors is not None and any(g.colors[perm[v]] != g.colors[v] for v in range(g.vertex_count)):
        return False
    for u, v in g.edges:
        pu, pv = perm[u], perm[v]
        if ((pu, pv) if pu < pv else (pv, pu)) not in g.edges:
            return False
    return True
