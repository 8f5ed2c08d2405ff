"""Refinement, IR search, k-WL and the pebble-game checker, all against
brute-force oracles on small inputs."""

import itertools
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import xorcfi
from xorcfi import canon
from xorcfi.bench import run_internal
from xorcfi.canon import (
    CELL_FIRST_LARGEST,
    CELL_FIRST_SMALLEST,
    STATUS_COMPLETE,
    STATUS_TIMEOUT,
    BudgetExceededError,
    ir_automorphisms,
    local_consistency,
)
from xorcfi.cfi import Graph, build_core, build_full, incidence_graph
from xorcfi.formula import import_xor_dimacs, make_formula, pin, to_matrix
from xorcfi.gf2 import rank
from xorcfi.pipeline import PipelineConfig
from xorcfi.sampler import SampleConfig, sample_homogeneous

from oracles import (
    COMPLETE,
    TWO_CLAUSE,
    Partition,
    brute_force_automorphisms,
    cells,
    color_refine,
    enumerating_local_consistency,
    first_accepted,
    group_order,
    heap_xor_closure,
    individualize,
    orbits_from_generators,
    refines,
    row_span_local_consistency,
    same_cell,
    wl_indistinguishable,
    wl_k,
)


def cycle(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def path(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def complete(n):
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def matching(k):
    return Graph(2 * k, [(2 * i, 2 * i + 1) for i in range(k)])


def random_graph(rnd, n, p=0.5, colored=False):
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rnd.random() < p]
    colors = [rnd.randint(0, 1) for _ in range(n)] if colored else None
    return Graph(n, edges, colors)


# -- Partition -------------------------------------------------------------


def test_partition_canonical_order():
    p = Partition.from_labels([5, 3, 5, 9, 3])
    assert p.cell_of == (0, 1, 0, 2, 1)
    assert cells(p) == [[0, 2], [1, 4], [3]]


def test_partition_rejects_noncanonical():
    with pytest.raises(ValueError):
        Partition((1, 0))


def test_partition_refines():
    fine = Partition.from_labels([0, 1, 2, 1])
    coarse = Partition.from_labels([0, 1, 0, 1])
    assert refines(fine, coarse)
    assert not refines(coarse, fine)


# -- color refinement ------------------------------------------------------


def test_refine_cycle_single_cell():
    assert len(cells(color_refine(cycle(6)))) == 1


def test_refine_path3_endpoints_together():
    p = color_refine(path(3))
    assert cells(p) == [[0, 2], [1]]


def test_refine_output_is_stable():
    rnd = random.Random(1)
    for _ in range(20):
        g = random_graph(rnd, rnd.randint(2, 9))
        p = color_refine(g)
        assert color_refine(g, p) == p


def test_refine_refines_input():
    rnd = random.Random(2)
    for _ in range(20):
        n = rnd.randint(2, 9)
        g = random_graph(rnd, n)
        initial = Partition.from_labels([rnd.randint(0, 2) for _ in range(n)])
        assert refines(color_refine(g, initial), initial)


def test_refine_coarser_than_orbits():
    rnd = random.Random(3)
    for _ in range(25):
        g = random_graph(rnd, rnd.randint(2, 8))
        _, orbits = brute_force_automorphisms(g)
        assert refines(orbits, color_refine(g))


def test_refine_respects_initial_colors():
    g = cycle(4)
    p = color_refine(g, Partition.from_labels([0, 0, 0, 1]))
    assert not same_cell(p, 0, 3)


def reference_refine(colors, csr):
    """The unique-over-rows refinement that canon._refine replaced."""
    v = csr.v
    if v == 0:
        return colors
    _, inv = np.unique(colors, return_inverse=True)
    colors = inv.reshape(-1).astype(np.int64)
    ncolors = int(colors.max()) + 1
    mat = np.empty((v, csr.max_deg + 1), dtype=np.int64)
    while ncolors < v:
        ncol = colors[csr.nbrs]
        order = np.lexsort((ncol, csr.row_of))
        mat.fill(-1)
        mat[:, 0] = colors
        mat[csr.row_of, csr.pos + 1] = ncol[order]
        _, inv = np.unique(mat, axis=0, return_inverse=True)
        inv = inv.reshape(-1).astype(np.int64)
        new_n = int(inv.max()) + 1
        if new_n == ncolors:
            return inv
        colors = inv
        ncolors = new_n
    return colors


def refinement_corpus():
    rnd = random.Random(2024)
    for i in range(200):
        yield random_graph(rnd, rnd.randint(1, 24), p=rnd.random(), colored=(i % 3 == 0))
    for _ in range(40):
        n = rnd.randint(4, 12)
        m = rnd.randint(n // 2, min(2 * n, math.comb(n, 3)))
        f = sample_homogeneous(SampleConfig(n=n, m=m, seed=rnd.randint(0, 10**6)))
        yield incidence_graph(f)
        yield build_core(f)
        yield build_full(f)


def test_csr_rows_hold_each_vertex_neighbours():
    for g in refinement_corpus():
        csr = canon._Csr(g)
        nbrs = [[] for _ in range(g.vertex_count)]
        for u, w in g.edges:
            nbrs[u].append(w)
            nbrs[w].append(u)
        assert csr.max_deg == max(map(len, nbrs), default=0)
        for x, want in enumerate(nbrs):
            lo, hi = csr.indptr[x], csr.indptr[x + 1]
            assert sorted(csr.nbrs[lo:hi].tolist()) == sorted(want)
            assert csr.row_of[lo:hi].tolist() == [x] * len(want)
            assert csr.pos[lo:hi].tolist() == list(range(len(want)))


def dense(colors):
    """The ids np.unique gives colors: 0..k-1 in the order of the values."""
    return np.unique(colors, return_inverse=True)[1].reshape(-1).astype(np.int64)


def check_refine(g, colorings):
    # _refine takes dense colourings only; the reference densifies its own
    # input, so it runs on the raw colouring.
    csr = canon._Csr(g)
    for colors in colorings:
        got = canon._refine(dense(colors), csr)
        assert np.array_equal(got, reference_refine(colors.copy(), csr))


def test_refine_matches_unique_reference():
    rnd = random.Random(7)
    graphs = 0
    for g in refinement_corpus():
        graphs += 1
        v = g.vertex_count
        start = canon._initial_colors(g)
        colorings = [start, np.array([rnd.randint(0, 3) for _ in range(v)], dtype=np.int64)]
        if v:
            # Individualize one vertex of the stable coloring, as the search does.
            child = reference_refine(start, canon._Csr(g)) * 2 + 1
            child[rnd.randrange(v)] -= 1
            colorings.append(child)
        check_refine(g, colorings)
    assert graphs >= 300


def ends_apart(v):
    """A dense colouring with v - 1 colours. On path(v) the two ends share
    colour 0, so only their neighbours' entries, 2 and v - 1, rank them;
    v - 1 is the largest entry a round can write."""
    colors = np.arange(v, dtype=np.int64)
    colors[v - 1] = 0
    return colors


def one_shared(rnd, v):
    """A random dense colouring with v - 1 colours."""
    return np.array(rnd.sample(range(v - 1), v - 1) + [rnd.randrange(v - 1)], dtype=np.int64)


def test_refine_matches_reference_across_entry_widths():
    # Entries take one byte up to v = 255 and two from v = 256; a round
    # writes entries up to v - 1, so v = 257 is the first size whose
    # entries need the second byte.
    rnd = random.Random(29)
    for v in (255, 256, 257):
        chords = [(u, w) for u in range(v) for w in range(u + 2, v) if rnd.random() < 2 / v]
        for g in (path(v), Graph(v, [(i, i + 1) for i in range(v - 1)] + chords)):
            spread = np.array([rnd.randrange(v) for _ in range(v)], dtype=np.int64)
            check_refine(g, [canon._initial_colors(g), ends_apart(v), one_shared(rnd, v), spread])


def test_refine_matches_reference_past_two_byte_entries():
    # Disjoint paths and cycles of a few lengths keep the degree at most
    # 2 and the rounds few, so the reference stays cheap at v > 65 536.
    edges, v = [], 0
    while v < 65_600:
        length = 3 + v % 7
        edges += [(v + i, v + i + 1) for i in range(length - 1)]
        if v % 3:
            edges.append((v, v + length - 1))
        v += length
    g = Graph(v, edges)
    rnd = random.Random(31)
    spread = np.array([rnd.randrange(v) for _ in range(v)], dtype=np.int64)
    check_refine(g, [canon._initial_colors(g), one_shared(rnd, v), spread])


def test_refine_ranks_a_row_before_its_extensions():
    # Hub k is joined to k leaves. Every hub has colour 1 and every leaf
    # colour 0, so the hubs' rows are 1 followed by k zeros: each is a
    # proper prefix of the next, and only the padding orders them.
    hubs, edges = 6, []
    v = hubs
    for k in range(1, hubs + 1):
        edges += [(k - 1, v + j) for j in range(k)]
        v += k
    colors = np.array([1] * hubs + [0] * (v - hubs), dtype=np.int64)
    g = Graph(v, edges, colors.tolist())
    check_refine(g, [colors, 1 - colors])
    hub_ids = canon._refine(colors, canon._Csr(g))[:hubs]
    assert np.all(np.diff(hub_ids) > 0)


def nul_heavy_rows(rng, dtype, rows, width):
    """Random rows of one entry type whose entries come from a small set,
    so that rows share prefixes and repeat. About half the entries are 0,
    which puts NUL bytes inside and at the end of rows, and the set holds
    entries whose leading byte is 0x80 or more."""
    top = int(np.iinfo(dtype).max)
    lead = 1 << (8 * dtype.itemsize - 1)
    palette = np.array([1, 0x7F, 0x80, 0xFF, lead - 1, lead, top, *rng.integers(1, top, 5)],
                       dtype=np.uint64)
    mat = rng.choice(palette, size=(rows, width)).astype(dtype)
    mat[rng.random((rows, width)) < 0.5] = 0
    return mat


@pytest.mark.parametrize("entry", ["u1", ">u2", ">u4"])
def test_byte_string_rows_rank_as_void_rows_and_lexsort(entry):
    # _refine ranks rows through the S view of _Csr, which numpy compares
    # with trailing NULs stripped; the ranks and the mask of adjacent
    # distinct rows must be those of the full rows.
    dtype = np.dtype(entry)
    rng = np.random.default_rng(2014)
    for _ in range(60):
        rows, width = int(rng.integers(1, 200)), int(rng.integers(1, 7))
        mat = nul_heavy_rows(rng, dtype, rows, width)
        size = width * dtype.itemsize
        strings = mat.view(np.dtype(("S", size))).reshape(-1)
        voids = mat.view(np.dtype((np.void, size))).reshape(-1)
        order = strings.argsort(kind="stable")
        assert np.array_equal(order, voids.argsort(kind="stable"))
        assert np.array_equal(order, np.lexsort(mat.T[::-1]))
        ranked, ranked_voids, ranked_mat = strings[order], voids[order], mat[order]
        step = ranked[1:] != ranked[:-1]
        assert np.array_equal(step, ranked_voids[1:] != ranked_voids[:-1])
        assert np.array_equal(step, np.any(ranked_mat[1:] != ranked_mat[:-1], axis=1))


def test_csr_rows_are_byte_strings_at_every_entry_width():
    for v in (3, 256, 257):
        csr = canon._Csr(path(v))
        entry = np.min_scalar_type(v).itemsize
        assert csr.rows.dtype == np.dtype(("S", (csr.max_deg + 1) * entry))
        assert csr.rows.shape == (v,) and np.shares_memory(csr.rows, csr.mat)


def test_individualized_is_the_dense_form_of_the_odd_even_split():
    rnd = random.Random(11)
    checked = 0
    for g in refinement_corpus():
        csr = canon._Csr(g)
        stable = canon._refine(canon._initial_colors(g), csr)
        shared = np.flatnonzero(np.bincount(stable)[stable] > 1).tolist()
        for w in rnd.sample(shared, min(3, len(shared))):
            split = stable * 2 + 1
            split[w] -= 1
            assert np.array_equal(canon._individualized(stable, w), dense(split))
            checked += 1
    assert checked >= 300


def test_orbits_from_generators_match_orbit_closure():
    rnd = random.Random(13)
    for _ in range(300):
        n = rnd.randint(1, 30)
        gens = []
        for _ in range(rnd.randint(0, 3)):
            perm = list(range(n))
            moved = rnd.sample(range(n), rnd.randint(0, n))
            for x, y in zip(moved, rnd.sample(moved, len(moved))):
                perm[x] = y
            gens.append(tuple(perm))
        want = Partition.from_labels(min(canon._orbit_closure({x}, gens, [])) for x in range(n))
        assert orbits_from_generators(n, gens) == want


# -- individualization -----------------------------------------------------


def test_individualize_discrete_is_noop():
    g = path(3)
    p = Partition.from_labels([0, 1, 2])
    assert individualize(g, p, 1) == p


def test_individualize_cycle_distance_classes():
    g = cycle(6)
    p = individualize(g, color_refine(g), 0)
    assert sorted(len(c) for c in cells(p)) == [1, 1, 2, 2]
    assert same_cell(p, 1, 5) and same_cell(p, 2, 4)


def test_individualize_refines_input():
    g = cycle(8)
    base = color_refine(g)
    assert refines(individualize(g, base, 3), base)


# -- IR automorphism search ------------------------------------------------


def test_k4_symmetric_group():
    rep = ir_automorphisms(complete(4))
    assert rep.group_size == 24
    assert len(cells(orbits_from_generators(4, rep.generators))) == 1
    assert rep.status == STATUS_COMPLETE


def test_path3_reflection():
    rep = ir_automorphisms(path(3))
    assert rep.group_size == 2
    assert cells(orbits_from_generators(3, rep.generators)) == [[0, 2], [1]]


def test_ir_matches_brute_force_on_200_random_graphs():
    rnd = random.Random(12345)
    for i in range(200):
        g = random_graph(rnd, rnd.randint(2, 8), colored=(i % 5 == 0))
        a = ir_automorphisms(g)
        b, b_orbits = brute_force_automorphisms(g)
        assert a.status == STATUS_COMPLETE
        assert a.group_size == b.group_size
        assert orbits_from_generators(g.vertex_count, a.generators) == b_orbits
        for perm in a.generators:
            assert sorted(perm) == list(range(g.vertex_count))


def test_ir_group_size_formula_on_lifted_graphs():
    rnd = random.Random(9)
    for _ in range(25):
        n = rnd.randint(4, 8)
        m = rnd.randint(n, min(2 * n, math.comb(n, 3)))
        f = sample_homogeneous(SampleConfig(n=n, m=m, seed=rnd.randint(0, 10**6)))
        rep = ir_automorphisms(build_full(f))
        assert rep.group_size == 2 ** (n - rank(to_matrix(f), n))


def test_ir_node_count_deterministic():
    g = build_full(make_formula(5, [((1, 2, 3), 0), ((2, 3, 4), 0), ((3, 4, 5), 0)]))
    counts = {ir_automorphisms(g).search_nodes for _ in range(3)}
    assert len(counts) == 1


def test_ir_cell_strategy_changes_search():
    f = sample_homogeneous(SampleConfig(n=8, m=10, seed=31))
    g = build_full(f)
    small = ir_automorphisms(g)
    large = ir_automorphisms(g, cell_strategy=CELL_FIRST_LARGEST)
    assert small.group_size == large.group_size


def test_ir_rejects_an_unknown_cell_strategy_before_any_search():
    # The coloured path refines to discrete at the root, so its search
    # never picks a target cell; the empty graph never refines at all.
    discrete = Graph(3, [(0, 1), (1, 2)], colors=[0, 1, 2])
    for g in (discrete, path(3), Graph(0, [])):
        with pytest.raises(ValueError, match="unknown cell strategy 'bogus'"):
            ir_automorphisms(g, cell_strategy="bogus")
        with pytest.raises(ValueError, match="unknown cell strategy 'bogus'"):
            run_internal(g, cell_strategy="bogus")


def test_ir_timeout_flagged():
    f = sample_homogeneous(SampleConfig(n=12, m=12, seed=8))
    g = build_full(f)
    rep = ir_automorphisms(g, max_nodes=2)
    assert rep.status == STATUS_TIMEOUT
    assert rep.search_nodes <= 3


# First five accepted core lifts at n=15 and n=20 under A7's frozen batch
# protocol, with node counts for (first-smallest, first-largest).
GOLDEN_CORE_NODES = {
    15: [(2, 31, 21), (4, 31, 21), (8, 15, 21), (9, 7, 5), (10, 31, 21)],
    20: [(0, 255, 21), (26, 255, 21), (38, 63, 21), (56, 127, 21), (58, 31, 21)],
}

# Full lifts with |Aut| = 4: (seed, first-smallest nodes, first-largest nodes).
GOLDEN_FULL_NODES = [(0, 10, 14), (1, 10, 8), (2, 17, 26), (3, 19, 10), (4, 11, 8), (5, 10, 8)]


def test_ir_node_counts_match_golden_core_lifts():
    for n, expected in GOLDEN_CORE_NODES.items():
        cfg = PipelineConfig(n=n, m=n, seed=5000, trials=400, gadget_mode="core",
                             gauss_threshold=1.0)
        got = [(o.trial, ir_automorphisms(o.graph).search_nodes,
                ir_automorphisms(o.graph, cell_strategy=CELL_FIRST_LARGEST).search_nodes)
               for o in first_accepted(cfg, len(expected))]
        assert got == expected, n


def test_ir_node_counts_match_golden_full_lifts():
    for seed, small, large in GOLDEN_FULL_NODES:
        g = build_full(sample_homogeneous(SampleConfig(n=8, m=6, seed=seed)))
        rep = ir_automorphisms(g)
        assert (rep.search_nodes, rep.group_size) == (small, 4)
        assert ir_automorphisms(g, cell_strategy=CELL_FIRST_LARGEST).search_nodes == large


def symmetric_corpus():
    for n in range(3, 9):
        yield cycle(n), 2 * n
        yield complete(n), math.factorial(n)
    yield matching(5), 2**5 * math.factorial(5)
    rnd = random.Random(31)
    for _ in range(12):
        n = rnd.randint(5, 9)
        m = rnd.randint(n // 2, n)
        f = sample_homogeneous(SampleConfig(n=n, m=m, seed=rnd.randint(0, 10**6)))
        yield build_full(f), 2 ** (n - rank(to_matrix(f), n))
        yield build_core(f), None
        yield incidence_graph(f), None


def test_ir_group_size_matches_generator_closure():
    nontrivial = 0
    for g, exact in symmetric_corpus():
        rep = ir_automorphisms(g)
        assert rep.status == STATUS_COMPLETE
        assert rep.group_size == group_order(g.vertex_count, rep.generators)
        if exact is not None:
            assert rep.group_size == exact
        nontrivial += rep.group_size > 1
    assert nontrivial >= 20


def budget_graphs():
    return {"complete(6)": complete(6), "matching(4)": matching(4),
            "full_lift": build_full(sample_homogeneous(SampleConfig(n=8, m=6, seed=2)))}


def test_ir_timeout_group_size_is_lower_bound():
    for g in budget_graphs().values():
        full = ir_automorphisms(g)
        assert full.status == STATUS_COMPLETE
        for cap in range(1, full.search_nodes):
            rep = ir_automorphisms(g, max_nodes=cap)
            assert rep.status == STATUS_TIMEOUT
            assert 1 <= rep.group_size <= full.group_size
            assert rep.first_path_depth <= full.first_path_depth


# Each budgeted search of a budget_graphs() graph, for max_nodes = 1, 2, ...
# up to one below its full node count: (search_nodes, first_path_depth,
# refine_rounds, group_size, len(generators)), every one a TIMEOUT.
GOLDEN_BUDGETED = {
    "complete(6)": [
        (2, 1, 2, 1, 0), (3, 2, 3, 1, 0), (4, 3, 4, 1, 0), (5, 4, 5, 1, 0),
        (6, 5, 5, 1, 0), (7, 5, 5, 1, 0), (8, 5, 6, 2, 1), (9, 5, 6, 2, 1),
        (10, 5, 7, 6, 2), (11, 5, 8, 6, 2), (12, 5, 8, 6, 2), (13, 5, 9, 24, 3),
        (14, 5, 10, 24, 3), (15, 5, 11, 24, 3), (16, 5, 11, 24, 3), (17, 5, 12, 120, 4),
        (18, 5, 13, 120, 4), (19, 5, 14, 120, 4), (20, 5, 15, 120, 4), (21, 5, 15, 120, 4),
    ],
    "matching(4)": [
        (2, 1, 3, 1, 0), (3, 2, 5, 1, 0), (4, 3, 7, 1, 0), (5, 4, 7, 1, 0),
        (6, 4, 7, 1, 0), (7, 4, 9, 2, 1), (8, 4, 9, 2, 1), (9, 4, 11, 4, 2),
        (10, 4, 11, 4, 2), (11, 4, 13, 8, 3), (12, 4, 15, 8, 3), (13, 4, 15, 8, 3),
        (14, 4, 17, 16, 4), (15, 4, 19, 16, 4), (16, 4, 19, 16, 4), (17, 4, 21, 48, 5),
        (18, 4, 23, 48, 5), (19, 4, 25, 48, 5), (20, 4, 25, 48, 5), (21, 4, 27, 96, 6),
        (22, 4, 29, 96, 6), (23, 4, 31, 96, 6), (24, 4, 31, 96, 6),
    ],
    "full_lift": [
        (2, 1, 7, 1, 0), (3, 2, 9, 1, 0), (4, 3, 12, 1, 0), (5, 4, 17, 1, 0),
        (6, 4, 22, 1, 0), (7, 4, 25, 2, 1), (8, 4, 30, 2, 1), (9, 4, 32, 2, 1),
        (10, 4, 35, 2, 1), (11, 4, 40, 2, 1), (12, 4, 43, 2, 1), (13, 4, 48, 2, 1),
        (14, 4, 49, 2, 1), (15, 4, 51, 2, 1), (16, 4, 54, 2, 1), (17, 4, 59, 2, 1),
    ],
}


def test_ir_budgeted_searches_match_golden():
    for name, g in budget_graphs().items():
        got = []
        for cap in range(1, ir_automorphisms(g).search_nodes):
            rep = ir_automorphisms(g, max_nodes=cap)
            got.append((rep.status, rep.search_nodes, rep.first_path_depth, rep.refine_rounds,
                        rep.group_size, len(rep.generators)))
        assert got == [(STATUS_TIMEOUT,) + row for row in GOLDEN_BUDGETED[name]], name


def test_ir_leaves_never_propose_the_identity_or_a_repeat(monkeypatch):
    proposed = []
    real = canon.is_automorphism

    def spy(g, perm):
        proposed.append(perm)
        return real(g, perm)

    monkeypatch.setattr(canon, "is_automorphism", spy)
    rnd = random.Random(12345)  # the graphs of test_ir_matches_brute_force_on_200_random_graphs
    graphs = [random_graph(rnd, rnd.randint(2, 8), colored=(i % 5 == 0)) for i in range(200)]
    graphs += [g for g, _ in symmetric_corpus()]
    graphs += [f(n) for n in range(2, 10) for f in (cycle, path, complete, matching)]
    graphs += [build_full(sample_homogeneous(SampleConfig(n=8, m=6, seed=seed)))
               for seed, _, _ in GOLDEN_FULL_NODES]
    # Asymmetric lifts: no automorphism cuts their search short, so every
    # leaf off the leftmost path proposes a candidate.
    for n, expected in GOLDEN_CORE_NODES.items():
        cfg = PipelineConfig(n=n, m=n, seed=5000, trials=400, gadget_mode="core",
                             gauss_threshold=1.0)
        graphs += [o.graph for o in first_accepted(cfg, len(expected))]
    total = 0
    for g in graphs:
        for strategy in (CELL_FIRST_SMALLEST, CELL_FIRST_LARGEST):
            proposed.clear()
            ir_automorphisms(g, cell_strategy=strategy)
            assert tuple(range(g.vertex_count)) not in proposed
            assert len(set(proposed)) == len(proposed)
            total += len(proposed)
    assert total > 1000


def test_ir_search_deeper_than_recursion_limit():
    g = matching(60)
    depth = 0
    frame = sys._getframe()
    while frame is not None:
        depth += 1
        frame = frame.f_back
    saved = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 40)
    try:
        rep = ir_automorphisms(g)
        limit_during_search = sys.getrecursionlimit()
    finally:
        sys.setrecursionlimit(saved)
    assert limit_during_search == depth + 40
    assert rep.first_path_depth == 60 > 40
    assert rep.search_nodes == 3720
    assert rep.group_size == 2**60 * math.factorial(60)


def test_ir_report_observability():
    # path(3): two rounds split the ends from the middle; individualizing
    # an end makes the coloring discrete, so the first path has one level.
    rep = ir_automorphisms(path(3))
    assert (rep.search_nodes, rep.first_path_depth, rep.refine_rounds) == (3, 1, 2)
    # K4: each inner node costs one round that splits nothing; the first
    # path individualizes three vertices before the coloring is discrete.
    rep = ir_automorphisms(complete(4))
    assert (rep.search_nodes, rep.first_path_depth, rep.refine_rounds) == (10, 3, 6)
    assert brute_force_automorphisms(path(3))[0].refine_rounds == 0


def test_ir_search_does_not_import_sympy():
    code = (
        "import sys\n"
        "import xorcfi.cli, xorcfi.bench\n"
        "from xorcfi.canon import ir_automorphisms\n"
        "from xorcfi.cfi import Graph\n"
        "g = Graph(5, [(i, (i + 1) % 5) for i in range(5)])\n"
        "assert ir_automorphisms(g).group_size == 10\n"
        "print('sympy' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(xorcfi.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"


def test_brute_force_guard():
    with pytest.raises(ValueError):
        brute_force_automorphisms(complete(11))


# -- k-WL ------------------------------------------------------------------


def test_wl2_cycle_distance_classes():
    g = cycle(6)
    part = wl_k(g, 2)
    # Pairs of C6 classify exactly by distance 0..3.
    def dist(u, v):
        d = abs(u - v)
        return min(d, 6 - d)

    cell_by_dist = {}
    for u in range(6):
        for v in range(6):
            idx = u * 6 + v
            d = dist(u, v)
            if d in cell_by_dist:
                assert part.cell_of[idx] == cell_by_dist[d], (u, v)
            else:
                cell_by_dist[d] = part.cell_of[idx]
    assert len(cells(part)) == 4


def test_wl2_separates_what_refinement_separates():
    g = path(4)
    base = color_refine(g)
    for u in range(4):
        for v in range(4):
            if not same_cell(base, u, v):
                assert not wl_indistinguishable(g, u, v, 2)


def test_pair_orbits_refine_wl2():
    rnd = random.Random(17)
    for _ in range(15):
        n = rnd.randint(2, 6)
        g = random_graph(rnd, n)
        part = wl_k(g, 2)
        auts, _ = brute_force_automorphisms(g)
        # Pair orbits come from applying every group element to every pair.
        perms = [
            p for p in itertools.permutations(range(n))
            if all(((min(p[a], p[b]), max(p[a], p[b])) in g.edges) == ((a, b) in g.edges)
                   for a in range(n) for b in range(a + 1, n))
        ]
        labels = {}
        for u in range(n):
            for v in range(n):
                orbit = min((p[u], p[v]) for p in perms)
                labels[(u, v)] = orbit
        orbit_part = Partition.from_labels(
            [labels[(u, v)] for u in range(n) for v in range(n)]
        )
        assert refines(orbit_part, part)
        assert auts.group_size == len(perms)


def test_wl_indistinguishable_basics():
    g = path(3)
    assert wl_indistinguishable(g, 1, 1, 2)
    assert not wl_indistinguishable(g, 0, 1, 1)
    assert not wl_indistinguishable(g, 0, 1, 2)
    assert wl_indistinguishable(g, 0, 2, 1)
    assert wl_indistinguishable(g, 0, 2, 2)


def test_wl_k_validation_and_budget():
    g = cycle(5)
    with pytest.raises(ValueError):
        wl_k(g, 1)
    with pytest.raises(BudgetExceededError):
        wl_k(g, 3, max_tuples=100)


# -- local consistency -----------------------------------------------------


def test_satisfiable_system_consistent_at_every_k():
    p = pin(TWO_CLAUSE, 2, 1)  # kernel vector (0,1,1,1) is a witness
    for k in range(1, 7):
        assert local_consistency(p, k)


def test_pinned_unique_system_fails_at_k_equals_n():
    for i in range(1, 5):
        assert not local_consistency(pin(COMPLETE, i, 1), 4)


def test_pinned_unique_system_at_small_k_matches_oracle():
    p = pin(COMPLETE, 1, 1)
    for k in (1, 2, 3):
        assert local_consistency(p, k) == enumerating_local_consistency(p, k)


def test_checker_matches_game_tree_oracle():
    rnd = random.Random(5)
    for trial in range(60):
        n = rnd.randint(3, 5)
        m = rnd.randint(1, min(2 * n, math.comb(n, 3)))
        f = sample_homogeneous(SampleConfig(n=n, m=m, seed=600 + trial))
        k = rnd.randint(1, 6)
        obj = pin(f, rnd.randint(1, n), rnd.randint(0, 1)) if rnd.random() < 0.5 else f
        assert local_consistency(obj, k) == enumerating_local_consistency(obj, k)


def test_consistency_antitone_in_k():
    rnd = random.Random(6)
    for trial in range(20):
        n = rnd.randint(4, 6)
        m = rnd.randint(n, min(2 * n, math.comb(n, 3)))
        f = sample_homogeneous(SampleConfig(n=n, m=m, seed=700 + trial))
        i = rnd.randint(1, n)
        p = pin(f, i, 1)
        results = [local_consistency(p, k) for k in range(1, n + 1)]
        # Once false, false for every larger k.
        assert results == sorted(results, reverse=True)


def test_xor_closure_checker_matches_enumerating_checker():
    # Seed 2208 is A4's and the benchmark's; at n=12 only k <= 2 is
    # consistent, so the n=20 pins supply the consistent cases at k=3.
    def outcomes(f, ks):
        seen = []
        for i in range(1, f.n + 1):
            for k in ks:
                p = pin(f, i, 1)
                got = local_consistency(p, k)
                assert got == enumerating_local_consistency(p, k), (f.n, i, k)
                seen.append(got)
        return seen

    small = []
    for trial in range(3):
        small += outcomes(sample_homogeneous(SampleConfig(n=12, ratio=2.0, seed=2208), trial),
                          range(1, 7))
    assert True in small and False in small
    large = outcomes(sample_homogeneous(SampleConfig(n=20, ratio=2.0, seed=2208)), [3])
    assert True in large and False in large


def test_xor_closure_checker_matches_row_span_checker():
    # Every pin of the first accepted formula at n=20 and n=30, where the
    # enumerating oracle is too slow. Some pins stay 3-consistent and
    # none 4-consistent, so both outcomes are compared.
    consistent = {}
    for n, ratio in ((20, 2.0), (30, 1.5)):
        cfg = PipelineConfig(n=n, ratio=ratio, seed=2208, gauss_threshold=1)
        f = import_xor_dimacs(first_accepted(cfg, 1)[0].formula_text)
        for k in (3, 4):
            outcomes = []
            for i in range(1, n + 1):
                p = pin(f, i, 1)
                outcomes.append(local_consistency(p, k))
                assert outcomes[-1] == row_span_local_consistency(p, k), (n, i, k)
            consistent[n, k] = outcomes.count(True)
    assert consistent == {(20, 3): 2, (20, 4): 0, (30, 3): 11, (30, 4): 0}


def closure_corpus(cases, seed):
    """Seeded pinned and unpinned systems at n 3..12 and k 1..6, up to
    A4's n=12, k=6. One consistent pin at n=16, k=8 took the heap oracle
    34 s, so the corpus stops short of that."""
    rnd = random.Random(seed)
    for case in range(cases):
        n = rnd.randint(3, 12)
        m = rnd.randint(1, min(2 * n, math.comb(n, 3)))
        f = sample_homogeneous(SampleConfig(n=n, m=m, seed=9000 + case))
        k = rnd.randint(1, 6)
        yield (pin(f, rnd.randint(1, n), rnd.randint(0, 1)) if rnd.random() < 0.75 else f), k


def test_batched_closure_matches_heap_closure_on_seeded_corpus():
    outcomes = []
    for obj, k in closure_corpus(400, 25):
        outcomes.append(local_consistency(obj, k, max_states=10**9))
        assert outcomes[-1] == heap_xor_closure(obj, k), (obj, k)
    assert outcomes.count(True) == 341 and outcomes.count(False) == 59


@pytest.mark.parametrize("n", [62, 63, 64, 65, 127, 128, 129])
def test_batched_closure_matches_heap_closure_across_word_edges(n):
    # A row of n variables is n // 64 + 1 words with the right-hand side
    # at bit n, so these n put the rhs bit last in a word, first in the
    # next, or inside one. Pinned variables sit on either side of the
    # edge between the first two words.
    outcomes = []
    for ratio in (2.0, 3.0):
        f = sample_homogeneous(SampleConfig(n=n, ratio=ratio, seed=n))
        for i in sorted({1, 63, 64, 65, n // 2, n} & set(range(1, n + 1))):
            p = pin(f, i, 1)
            outcomes.append(local_consistency(p, 3, max_states=10**9))
            assert outcomes[-1] == heap_xor_closure(p, 3), (ratio, i)
    assert True in outcomes and False in outcomes


def test_closure_verdicts_do_not_depend_on_the_pair_chunk(monkeypatch):
    cases = list(closure_corpus(100, 26))
    f = sample_homogeneous(SampleConfig(n=65, ratio=2.0, seed=65))
    cases += [(pin(f, i, 1), 3) for i in (1, 63, 64, 65)]
    expected = [local_consistency(obj, k, max_states=10**9) for obj, k in cases]
    assert True in expected and False in expected
    # One batch row per chunk, so new rows found in one chunk are looked
    # up by the next.
    monkeypatch.setattr(canon, "_PAIR_CHUNK", 1)
    assert [local_consistency(obj, k, max_states=10**9) for obj, k in cases] == expected


def test_consistency_budget_refusal():
    f = sample_homogeneous(SampleConfig(n=12, m=24, seed=5))
    with pytest.raises(BudgetExceededError):
        local_consistency(f, 6, max_states=1000)
    with pytest.raises(ValueError):
        local_consistency(f, 0)


def test_enumerating_oracle_refuses_keys_beyond_int64():
    # A state's key vmask << n | amask takes 2n bits.
    p = pin(sample_homogeneous(SampleConfig(n=31, m=31, seed=5)), 1, 1)
    assert enumerating_local_consistency(p, 1) == local_consistency(p, 1)
    with pytest.raises(ValueError, match="int64"):
        enumerating_local_consistency(sample_homogeneous(SampleConfig(n=32, m=32, seed=5)), 1)
