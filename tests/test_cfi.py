"""Lifted-graph constructions: counts, gadget wiring, induced symmetry,
and the equitable partition that hides each variable's pair from
colour refinement."""

import itertools
import math
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from xorcfi import cfi
from xorcfi.cfi import (
    Graph,
    VertexScheme,
    build_core,
    build_full,
    incidence_graph,
    is_automorphism,
)
from xorcfi.formula import make_formula, to_matrix
from xorcfi.gf2 import rank
from xorcfi.pipeline import to_dimacs_graph, to_dre
from xorcfi.sampler import SampleConfig, sample_homogeneous

from oracles import (
    COMPLETE,
    assignment_automorphism,
    color_refine,
    degrees,
    dimacs_graph_text,
    dre_text,
    incidence_edge_set,
    lift_edge_set,
    same_cell,
    satisfies,
)

SINGLE = make_formula(3, [((1, 2, 3), 0)])


def neighbors(g, v):
    return {b if a == v else a for a, b in g.edges if v in (a, b)}


# -- incidence graph -------------------------------------------------------


def test_incidence_single_clause_is_star():
    g = incidence_graph(SINGLE)
    assert g.vertex_count == 4
    assert neighbors(g, 3) == {0, 1, 2}
    assert g.colors == (0, 0, 0, 1)


def test_incidence_clause_vertices_have_degree_3():
    f = sample_homogeneous(SampleConfig(n=9, m=15, seed=3))
    g = incidence_graph(f)
    deg = degrees(g)
    assert all(deg[f.n + c] == 3 for c in range(f.m))


def test_incidence_complete_triples_variable_degrees():
    g = incidence_graph(COMPLETE)
    deg = degrees(g)
    assert all(deg[j] == 3 for j in range(4))


# -- core lift -------------------------------------------------------------


def test_core_counts_single_clause():
    g = build_core(SINGLE)
    assert g.vertex_count == 2 * 3 + 4 * 1 == 10
    assert g.edge_count == 12 * 1 + 3 == 15


def test_core_gadget_wiring():
    g = build_core(SINGLE)
    s = VertexScheme(3, 1)
    x1, y1, z1 = s.var_vertex(1, 1), s.var_vertex(2, 1), s.var_vertex(3, 1)
    x0, y0 = s.var_vertex(1, 0), s.var_vertex(2, 0)
    assert neighbors(g, s.clause_vertex(1, 0)) == {x1, y1, z1}
    assert neighbors(g, s.clause_vertex(1, 2)) == {x0, y0, z1}


def test_core_rhs1_negates_smallest_variable():
    f = make_formula(3, [((1, 2, 3), 1)])
    g = build_core(f)
    s = VertexScheme(3, 1)
    assert neighbors(g, s.clause_vertex(1, 0)) == {
        s.var_vertex(1, 0), s.var_vertex(2, 1), s.var_vertex(3, 1)
    }


def test_variable_pair_edges_present():
    g = build_core(COMPLETE)
    s = VertexScheme(4, 4)
    for j in range(1, 5):
        assert (s.var_vertex(j, 0), s.var_vertex(j, 1)) in g.edges


# -- full lift -------------------------------------------------------------


def test_full_counts_complete_triples():
    g = build_full(COMPLETE)
    assert g.vertex_count == 33
    assert g.edge_count == 70


def test_full_gadget_edges():
    g = build_full(COMPLETE)
    s = VertexScheme(4, 4)
    for i in range(1, 4):
        il, ir, st_ = s.gadget_left(i), s.gadget_right(i), s.gadget_stub(i)
        assert {(il, ir), (ir, st_)} <= g.edges
        assert {(s.var_vertex(i, 0), il), (s.var_vertex(i, 1), il)} <= g.edges
        assert {(s.var_vertex(i + 1, 0), ir), (s.var_vertex(i + 1, 1), ir)} <= g.edges


def test_degree_classification():
    f = sample_homogeneous(SampleConfig(n=10, m=20, seed=5))
    g = build_full(f)
    s = VertexScheme(f.n, f.m)
    deg = degrees(g)
    for c in range(1, f.m + 1):
        for t in range(4):
            assert deg[s.clause_vertex(c, t)] == 3
    for i in range(1, f.n):
        assert deg[s.gadget_stub(i)] == 1
    occ = {j: 0 for j in range(1, f.n + 1)}
    for cl in f.clauses:
        for v in cl.vars:
            occ[v] += 1
    for j, count in occ.items():
        if count >= 2:
            assert deg[s.var_vertex(j, 0)] >= 4
            assert deg[s.var_vertex(j, 1)] >= 4


def test_count_formulas_over_random_configs():
    import random

    rnd = random.Random(99)
    for _ in range(20):
        n = rnd.randint(3, 20)
        m = rnd.randint(1, min(3 * n, (n * (n - 1) * (n - 2)) // 6))
        f = sample_homogeneous(SampleConfig(n=n, m=m, seed=rnd.randint(0, 10**6)))
        full = build_full(f)
        core = build_core(f)
        assert core.vertex_count == 2 * n + 4 * m
        assert core.edge_count == 12 * m + n
        assert full.vertex_count == 4 * m + 2 * n + 3 * (n - 1)
        assert full.edge_count == 12 * m + n + 6 * (n - 1)


def test_lifts_raise_on_a_size_off_their_count_formula(monkeypatch):
    # validate relies on these checks; python -O must keep them.
    for name in ("core_edge_count", "full_edge_count"):
        monkeypatch.setattr(VertexScheme, name, property(lambda scheme: -1))
    for build in (build_core, build_full):
        with pytest.raises(AssertionError, match=r"lift has \d+ edges, not -1"):
            build(SINGLE)
    code = (
        "from xorcfi import cfi\n"
        "from xorcfi.formula import make_formula\n"
        "cfi.VertexScheme.core_edge_count = cfi.VertexScheme.full_edge_count = property(lambda s: -1)\n"
        "print(__debug__)\n"
        "for build in (cfi.build_core, cfi.build_full):\n"
        "    try:\n"
        "        build(make_formula(3, [((1, 2, 3), 0)]))\n"
        "    except AssertionError as exc:\n"
        "        print(exc)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(cfi.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.splitlines() == [
        "False", "core lift has 15 edges, not -1", "full lift has 27 edges, not -1"]


def test_core_is_induced_subgraph_of_full():
    f = sample_homogeneous(SampleConfig(n=8, m=12, seed=21))
    core = build_core(f)
    full = build_full(f)
    cutoff = core.vertex_count
    induced = {e for e in full.edges if e[0] < cutoff and e[1] < cutoff}
    assert induced == set(core.edges)


def test_full_requires_two_variables():
    f = make_formula(3, [((1, 2, 3), 0)])
    build_full(f)
    with pytest.raises(ValueError):
        build_full(make_formula(1, []))


# -- the array lifts and exporters against the set-based oracles -----------


def assert_lifts_match_oracles(f):
    """Each lift's rows are the sorted oracle edge set, and its dre and
    DIMACS text equal the oracle exporters' byte for byte."""
    scheme = VertexScheme(f.n, f.m)
    lifts = [(build_core(f), lift_edge_set(f, "core"), scheme.core_vertex_count)]
    if f.n >= 2:
        lifts.append((build_full(f), lift_edge_set(f, "full"), scheme.full_vertex_count))
    if f.is_homogeneous:
        lifts.append((incidence_graph(f), incidence_edge_set(f), f.n + f.m))
    for g, want, vertex_count in lifts:
        assert g.vertex_count == vertex_count
        assert g.edge_array.tolist() == [list(e) for e in sorted(want)]
        assert g.edges == want
        assert to_dre(g) == dre_text(g)
        assert to_dimacs_graph(g) == dimacs_graph_text(g)


def oracle_corpus():
    """Seeded formulas at every n = 3..60: a homogeneous sample, a
    make_formula system with random right-hand sides, and one without
    clauses at a few n."""
    rnd = random.Random(20261019)
    for n in range(3, 61):
        m = rnd.randint(1, min(2 * n, math.comb(n, 3)))
        yield sample_homogeneous(SampleConfig(n=n, m=m, seed=rnd.randrange(1 << 32)))
        triples = rnd.sample(list(itertools.combinations(range(1, n + 1), 3)), m) if n <= 20 else [
            tuple(rnd.sample(range(1, n + 1), 3)) for _ in range(m)]
        yield make_formula(n, [(t, rnd.randint(0, 1)) for t in dict.fromkeys(
            tuple(sorted(t)) for t in triples)])
        if n % 20 == 3:
            yield make_formula(n, [])


def test_array_lifts_match_set_oracles_on_seeded_formulas():
    kinds = Counter()
    for f in oracle_corpus():
        assert_lifts_match_oracles(f)
        kinds[f.is_homogeneous] += 1
    assert kinds[True] >= 58 and kinds[False] >= 50


@st.composite
def xor_formulas(draw):
    n = draw(st.integers(3, 60))
    homogeneous = draw(st.booleans())
    clauses = draw(st.dictionaries(
        st.frozensets(st.integers(1, n), min_size=3, max_size=3),
        st.just(0) if homogeneous else st.integers(0, 1),
        max_size=2 * n))
    return make_formula(n, list(clauses.items()))


@settings(max_examples=60, deadline=None)
@given(xor_formulas())
def test_array_lifts_match_set_oracles_on_random_formulas(f):
    assert_lifts_match_oracles(f)


def test_array_lifts_match_set_oracles_on_the_scale_formula():
    """The scale regime's accepted formula: n=1000, m=2000, full gadget."""
    f = sample_homogeneous(SampleConfig(n=1000, ratio=2, seed=1868515624530699897))
    assert f.m == 2000
    assert_lifts_match_oracles(f)


# -- colour refinement never splits a variable's pair ----------------------
#
# In either lift of any formula, the partition into the X^0/X^1 pairs, each
# clause's 4 vertices and the single gadget vertices is equitable: a clause
# vertex meets one vertex of each of its 3 pairs, X^0 and X^1 each meet 2 of
# the 4 vertices of every clause on their variable, and a gadget vertex
# meets both vertices of a pair. Colour refinement returns the coarsest
# equitable partition, so it never splits a pair.


def pair_clause_gadget_cells(scheme, vertex_count):
    """A cell label per vertex: its pair, its clause, or itself (gadgets)."""
    labels = list(range(vertex_count))
    for j in range(1, scheme.n + 1):
        labels[scheme.var_vertex(j, 1)] = scheme.var_vertex(j, 0)
    for c in range(1, scheme.m + 1):
        for t in range(1, 4):
            labels[scheme.clause_vertex(c, t)] = scheme.clause_vertex(c, 0)
    return labels


def is_equitable(g, labels):
    """Whether the vertices of each cell have equally many neighbours in every cell."""
    counts = [Counter() for _ in range(g.vertex_count)]
    for u, v in g.edges:
        counts[u][labels[v]] += 1
        counts[v][labels[u]] += 1
    profile = {}
    return all(profile.setdefault(labels[x], counts[x]) == counts[x] for x in range(g.vertex_count))


def theorem_corpus(formulas=500):
    """Seeded formulas at n = 3..40, half homogeneous samples and half
    make_formula systems with random right-hand sides."""
    rnd = random.Random(20261018)
    for i in range(formulas):
        n = rnd.randint(3, 40)
        m = rnd.randint(1, min(2 * n, math.comb(n, 3)))
        if i % 2:
            yield sample_homogeneous(SampleConfig(n=n, m=m, seed=rnd.getrandbits(32)))
        else:
            rhs = {tuple(sorted(rnd.sample(range(1, n + 1), 3))): rnd.randint(0, 1)
                   for _ in range(m)}
            yield make_formula(n, rhs.items())


def test_refinement_keeps_every_pair_together_in_both_lifts():
    lifts = 0
    for f in theorem_corpus():
        scheme = VertexScheme(f.n, f.m)
        for build in (build_core, build_full):
            g = build(f)
            lifts += 1
            where = f"{build.__name__} of n={f.n} m={f.m}"
            assert is_equitable(g, pair_clause_gadget_cells(scheme, g.vertex_count)), where
            part = color_refine(g)
            assert all(same_cell(part, scheme.var_vertex(j, 0), scheme.var_vertex(j, 1))
                       for j in range(1, f.n + 1)), where
    assert lifts >= 1000


# -- assignment-induced automorphisms --------------------------------------


def test_every_satisfying_assignment_gives_automorphism():
    f = make_formula(5, [((1, 2, 3), 0), ((2, 3, 4), 0), ((3, 4, 5), 0)])
    g = build_full(f)
    sols = [
        bits for bits in itertools.product((0, 1), repeat=f.n) if satisfies(f, bits)
    ]
    assert len(sols) == 2 ** (f.n - rank(to_matrix(f), f.n))
    perms = set()
    for bits in sols:
        perm = assignment_automorphism(f, bits)
        assert is_automorphism(g, perm)
        perms.add(tuple(perm))
    assert len(perms) == len(sols)


def test_zero_assignment_gives_identity():
    perm = assignment_automorphism(COMPLETE, (0, 0, 0, 0))
    assert perm == list(range(33))


def test_unsatisfying_assignment_rejected():
    with pytest.raises(ValueError):
        assignment_automorphism(COMPLETE, (1, 0, 0, 0))


def test_graph_validation():
    # A flat or wrong-width list raises like the same rows as an array.
    for rows in ([(0, 3)], [0, 1, 1, 2], [(0, 1, 2), (0, 1, 2)]):
        with pytest.raises(ValueError):
            Graph(3, rows)
    for rows in ([[1, 1]], [[0, 3]], [[-1, 2]], [0, 1, 2], [[0, 1, 2]]):
        with pytest.raises(ValueError):
            Graph(3, np.array(rows))
    # Vertex ids must be integers: no float is truncated, no bool or digit
    # string read as a number, and an id past 64 bits is a ValueError too.
    for rows in ([(0, 1.9)], np.array([[0.5, 1.0]]), [(True, False)], np.array([[True, False]]),
                 [("0", "2")], [(0, 2**64)], [(0, 2**63)], [(-2**64, 1)]):
        with pytest.raises(ValueError):
            Graph(3, rows)
    assert Graph(3, np.array([[2, 0]], dtype=np.uint8)).edge_array.tolist() == [[0, 2]]
    # The constructor keeps its rows canonical: reversed and repeated rows
    # merge, and the rows are sorted.
    g = Graph(3, np.array([[2, 1], [1, 0], [0, 1], [1, 2]]))
    assert g.edge_array.tolist() == [[0, 1], [1, 2]]
    # Pairs, the same pairs from a generator and the (E, 2) array give one
    # canonical graph; so do [] and an empty array.
    pairs = [(2, 1), (0, 1)]
    assert g == Graph(3, pairs) == Graph(3, (p for p in pairs)) == Graph(3, np.array(pairs))
    assert Graph(3, []) == Graph(3, np.empty((0, 2), dtype=np.int64))
    assert Graph(3, []).edge_array.shape == (0, 2)
    # Any colour sequence is stored as a tuple, so the graph stays hashable.
    colored = Graph(3, pairs, colors=[0, 1, 0])
    assert colored.colors == (0, 1, 0) and hash(colored) == hash(Graph(3, pairs, (0, 1, 0)))
    with pytest.raises(ValueError):
        Graph(2, [(0, 1)], colors=[0])
