"""Graph constructions that lift a 3-XOR system into a GI-hard graph.

Three graphs per formula:
  * the bipartite incidence graph (clauses left, variables right),
  * the core lift: 2 vertices per variable, 4 per clause,
  * the full lift: core plus a 3-vertex order gadget between each pair
    of consecutive variables, which pins the variable order and kills
    all automorphisms except those induced by satisfying assignments.

A Graph holds its edges as one canonical int64 (E, 2) array: each row
(u, v) has u < v, and the rows are sorted and distinct. The lifts
compute their rows in numpy straight from the clause triples, and the
exporters and importers of pipeline.py read and write that array.

Vertex numbering is frozen (see VertexScheme) so exports are
byte-identical across runs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import FrozenSet, Optional, Sequence, Tuple, Union

import numpy as np

from .formula import XorFormula

# Tag order for the 4 vertices of a clause gadget. Tag bits say which of
# the clause's variables (in ascending order) are negated relative to
# the clause's base literal pattern.
CLAUSE_TAGS: Tuple[Tuple[int, int, int], ...] = ((0, 0, 0), (0, 1, 1), (1, 1, 0), (1, 0, 1))

# _LITERAL_PATTERNS[rhs, tag_index, k] is 1 when the clause's k-th
# variable (ascending order) appears negated at that gadget vertex. The
# base vertex carries the clause itself; for rhs 1 the smallest variable
# is the negated one.
_LITERAL_PATTERNS = np.array([(0, 0, 0), (1, 0, 0)])[:, None, :] ^ np.array(CLAUSE_TAGS)[None, :, :]

# Sorting rows by the key u * vertex_count + v stays exact in int64.
_MAX_VERTICES = 1 << 31

# A vertex id, or a numpy array of them.
_Ids = Union[int, np.ndarray]


@dataclass(frozen=True, eq=False)
class Graph:
    """Undirected simple graph on vertices 0..vertex_count-1.

    The constructor takes edge_array as an (E, 2) integer array or as
    any iterable of (u, v) pairs, in any order and orientation, and keeps
    it canonical and read-only: int64 rows (u, v) with u < v, sorted,
    without duplicates. A reversed or repeated row is the same edge; a
    row that is not a pair, a vertex id that is not an integer (floats,
    bools and strings included) or does not fit 64 bits, a self-loop or
    a vertex out of range is a ValueError. colors, any sequence, is
    stored as a tuple.
    """

    vertex_count: int
    edge_array: np.ndarray
    colors: Optional[Tuple[int, ...]] = None

    def __post_init__(self):
        n = self.vertex_count
        if n < 0:
            raise ValueError(f"vertex count must be >= 0, got {n}")
        if n > _MAX_VERTICES:
            raise ValueError(f"vertex count must be at most 2^31, got {n}")
        ends = self.edge_array
        if not isinstance(ends, np.ndarray):
            ends = np.array(list(ends) or np.empty((0, 2), dtype=np.int64))
        if ends.size and ends.dtype.kind not in "iu":
            raise ValueError(f"edge array must hold 64-bit integers, got dtype {ends.dtype}")
        ends = np.asarray(ends, dtype=np.int64)
        if ends.ndim != 2 or ends.shape[1] != 2:
            raise ValueError(f"edge array must have shape (E, 2), got {ends.shape}")
        lo, hi = np.minimum(ends[:, 0], ends[:, 1]), np.maximum(ends[:, 0], ends[:, 1])
        bad = (lo < 0) | (hi >= n) | (lo == hi)
        if bad.any():
            i = int(bad.argmax())
            raise ValueError(f"bad edge ({lo[i]}, {hi[i]}) for {n} vertices")
        key = lo * n + hi
        key.sort()
        distinct = np.ones(len(key), dtype=bool)
        np.not_equal(key[1:], key[:-1], out=distinct[1:])
        key = key[distinct]
        rows = np.empty((len(key), 2), dtype=np.int64)
        np.divmod(key, n, out=(rows[:, 0], rows[:, 1]))
        rows.flags.writeable = False
        object.__setattr__(self, "edge_array", rows)
        if self.colors is not None:
            object.__setattr__(self, "colors", tuple(self.colors))
            if len(self.colors) != n:
                raise ValueError("colors must cover every vertex")

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return (self.vertex_count == other.vertex_count and self.colors == other.colors
                and np.array_equal(self.edge_array, other.edge_array))

    def __hash__(self):
        return hash((self.vertex_count, self.edge_array.tobytes(), self.colors))

    @property
    def edge_count(self) -> int:
        return len(self.edge_array)

    @cached_property
    def edges(self) -> FrozenSet[Tuple[int, int]]:
        """The edges as (u, v) tuples with u < v, built on first read."""
        return frozenset(map(tuple, self.edge_array.tolist()))


@dataclass(frozen=True)
class VertexScheme:
    """Frozen vertex ids for the lifted graphs of an (n, m) formula.

    variable j (1-based): X_j^0 -> 2(j-1), X_j^1 -> 2(j-1)+1
    clause c (1-based, canonical clause order), tag t in CLAUSE_TAGS:
        2n + 4(c-1) + tag_index
    order gadget i in 1..n-1: i_l -> 2n+4m+3(i-1), i_r -> +1, i_s -> +2

    The id methods take ints or numpy arrays of them alike. The vertex
    and edge counts of both lifts are defined here only.
    """

    n: int
    m: int

    def var_vertex(self, j: _Ids, bit: _Ids) -> _Ids:
        return 2 * (j - 1) + bit

    def clause_vertex(self, c: _Ids, tag_index: _Ids) -> _Ids:
        return 2 * self.n + 4 * (c - 1) + tag_index

    def gadget_left(self, i: _Ids) -> _Ids:
        return 2 * self.n + 4 * self.m + 3 * (i - 1)

    def gadget_right(self, i: _Ids) -> _Ids:
        return self.gadget_left(i) + 1

    def gadget_stub(self, i: _Ids) -> _Ids:
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


def _clause_arrays(f: XorFormula) -> Tuple[np.ndarray, np.ndarray]:
    """The clauses' variables as (m, 3) rows and their right-hand sides."""
    triples = np.fromiter(itertools.chain.from_iterable(cl.vars for cl in f.clauses),
                          dtype=np.int64, count=3 * f.m).reshape(-1, 3)
    rhs = np.fromiter((cl.rhs for cl in f.clauses), dtype=np.int64, count=f.m)
    return triples, rhs


def incidence_graph(f: XorFormula) -> Graph:
    """Bipartite clause/variable incidence graph, colored by side.

    Variable j is vertex j-1 (color 0); clause c is vertex n+c-1 (color 1).
    """
    if not f.is_homogeneous:
        raise ValueError("incidence graph is defined for homogeneous formulas")
    n = f.n
    triples, _ = _clause_arrays(f)
    ends = np.empty((f.m, 3, 2), dtype=np.int64)
    ends[..., 0] = triples - 1
    ends[..., 1] = np.arange(n, n + f.m)[:, None]
    g = Graph(n + f.m, ends.reshape(-1, 2), [0] * n + [1] * f.m)
    if g.edge_count != 3 * f.m:  # every clause vertex has degree 3
        raise AssertionError(f"incidence graph has {g.edge_count} edges, not 3m = {3 * f.m}")
    return g


def _core_ends(f: XorFormula, scheme: VertexScheme) -> np.ndarray:
    """The core lift's edges as rows in no particular order: each
    X^0-X^1 pair, then each clause vertex with its 3 variable vertices."""
    triples, rhs = _clause_arrays(f)
    pairs = scheme.var_vertex(np.arange(1, f.n + 1)[:, None], np.arange(2))
    clause_rows = np.empty((f.m, 4, 3, 2), dtype=np.int64)
    clause_rows[..., 0] = scheme.var_vertex(triples[:, None, :], 1 - _LITERAL_PATTERNS[rhs])
    clause_rows[..., 1] = scheme.clause_vertex(np.arange(1, f.m + 1)[:, None, None],
                                               np.arange(4)[:, None])
    return np.concatenate((pairs, clause_rows.reshape(-1, 2)))


def build_core(f: XorFormula) -> Graph:
    """The lift without order gadgets (sizes in VertexScheme.core_*_count).

    Each clause becomes 4 vertices (the clause and the 3 equivalent
    clauses from negating exactly two literals). A clause vertex is
    adjacent to X^1 where it holds the positive literal and to X^0 where
    it holds the negated one; every X^0-X^1 pair is joined by an edge.
    """
    scheme = VertexScheme(f.n, f.m)
    g = Graph(scheme.core_vertex_count, _core_ends(f, scheme))
    if g.edge_count != scheme.core_edge_count:
        raise AssertionError(f"core lift has {g.edge_count} edges, not {scheme.core_edge_count}")
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
    # Row k of gadget i, in this order: (i_l,i_r), (i_l,X_i^0), (i_l,X_i^1),
    # (i_r,i_s), (i_r,X_{i+1}^0), (i_r,X_{i+1}^1).
    i, bits = np.arange(1, f.n)[:, None], np.arange(2)
    ir = scheme.gadget_right(i)
    gadget_rows = np.empty((f.n - 1, 6, 2), dtype=np.int64)
    gadget_rows[:, :3, 0] = scheme.gadget_left(i)
    gadget_rows[:, 3:, 0] = ir
    gadget_rows[:, :, 1] = np.concatenate((ir, scheme.var_vertex(i, bits), scheme.gadget_stub(i),
                                           scheme.var_vertex(i + 1, bits)), axis=1)
    ends = np.concatenate((_core_ends(f, scheme), gadget_rows.reshape(-1, 2)))
    g = Graph(scheme.full_vertex_count, ends)
    if g.edge_count != scheme.full_edge_count:
        raise AssertionError(f"full lift has {g.edge_count} edges, not {scheme.full_edge_count}")
    return g


def is_automorphism(g: Graph, perm: Sequence[int]) -> bool:
    """Edge- and color-preserving check, done edge by edge on the set view
    g.edges: a non-automorphism usually fails on one of its first edges,
    sooner than a whole-array comparison of the permuted rows finishes."""
    if sorted(perm) != list(range(g.vertex_count)):
        return False
    if g.colors is not None and any(g.colors[perm[v]] != g.colors[v] for v in range(g.vertex_count)):
        return False
    edges = g.edges
    for u, v in edges:
        pu, pv = perm[u], perm[v]
        if ((pu, pv) if pu < pv else (pv, pu)) not in edges:
            return False
    return True
