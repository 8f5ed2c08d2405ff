"""GF(2) linear algebra against exhaustive enumeration oracles."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from xorcfi import gf2
from xorcfi.formula import has_full_rank, is_uniquely_satisfiable, pin, to_matrix
from xorcfi.gf2 import rank
from xorcfi.sampler import SampleConfig, sample_homogeneous

from oracles import column_major_rref, kernel_basis, mat_vec, matrix_from_rows, reduced_system


# -- oracles ---------------------------------------------------------------


def brute_kernel(rows, cols):
    """All x in {0,1}^cols with every row-parity zero."""
    out = []
    for x in range(1 << cols):
        if all((r & x).bit_count() % 2 == 0 for r in rows):
            out.append(x)
    return out


def brute_solutions(rows, cols):
    """All x in {0,1}^cols on which each row's parity is its bit cols."""
    out = []
    for x in range(1 << cols):
        if all((r & x).bit_count() % 2 == (r >> cols) & 1 for r in rows):
            out.append(x)
    return out


def with_rhs(rows, cols, b):
    """The rows with bit i of b as the right-hand side of row i."""
    mask = (1 << cols) - 1
    return [(r & mask) | ((b >> i) & 1) << cols for i, r in enumerate(rows)]


def reference_rref(row_bits, cols):
    """Row-major Gauss-Jordan, the pivot being the first remaining row
    with the column's bit; the reducer gf2 used before its column-major
    elimination. Returns (reduced rows, pivot columns)."""
    work = list(row_bits)
    pivots = []
    r = 0
    for c in range(cols):
        pivot = None
        for i in range(r, len(work)):
            if (work[i] >> c) & 1:
                pivot = i
                break
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        for i in range(len(work)):
            if i != r and ((work[i] >> c) & 1):
                work[i] ^= work[r]
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    return work, pivots


def public_results(rows, cols, bs):
    """The rank of the rows, then of the rows with each b as their
    right-hand side, which rank drops."""
    return [rank(rows, cols)] + [rank(with_rhs(rows, cols, b), cols) for b in bs]


def reference_results(rows, cols, bs):
    """public_results with the row-major reference reducer in place."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gf2, "_pivots", lambda rows, cols: reference_rref(rows, cols)[1])
        return public_results(rows, cols, bs)


def assert_matches_reference(rows, cols, bs):
    """Same public results as the reference, and the same pivot columns
    as both oracles, with and without each right-hand side."""
    assert public_results(rows, cols, bs) == reference_results(rows, cols, bs)
    for system in [rows] + [with_rhs(rows, cols, b) for b in bs]:
        pivots = gf2._pivots(system, cols)
        assert pivots == column_major_rref(system, cols)[1] == reference_rref(system, cols)[1]


def consistent_and_random_rhs(rows, cols, rng):
    """b = rows x for a random x (consistent), and a uniformly random b."""
    x = rng.getrandbits(cols) if cols else 0
    return [mat_vec(rows, x), rng.getrandbits(len(rows)) if rows else 0]


def random_matrix(rng, shape):
    """Random (rows, cols) of the named shape (see test_reducer_matches_reference_on_random_matrices)."""
    rows, cols = rng.randint(0, 14), rng.randint(1, 14)
    if shape == "empty":
        rows = 0
    elif shape == "no_cols":
        cols = 0
    elif shape == "tall":
        cols = rng.randint(1, 6)
        rows = rng.randint(cols + 1, 16)
    elif shape == "wide":
        rows = rng.randint(1, 6)
        cols = rng.randint(rows + 1, 16)
    bits = [rng.getrandbits(cols) if cols else 0 for _ in range(rows)]
    if shape == "zero_rows" and rows:
        for i in rng.sample(range(rows), rng.randint(1, rows)):
            bits[i] = 0
    elif shape == "duplicate_rows" and rows >= 2:
        for _ in range(rng.randint(1, rows)):
            bits[rng.randrange(rows)] = bits[rng.randrange(rows)]
    elif shape == "rank_deficient" and rows:
        basis = [rng.getrandbits(cols) for _ in range(rng.randint(0, min(rows, cols) - 1))]
        bits = [0] * rows
        for i in range(rows):
            for v in basis:
                if rng.getrandbits(1):
                    bits[i] ^= v
    return bits, cols


def matrices(max_rows=6, max_cols=8):
    """(rows, cols) with every row below bit cols."""
    return st.integers(1, max_cols).flatmap(
        lambda cols: st.tuples(
            st.lists(st.integers(0, (1 << cols) - 1), min_size=0, max_size=max_rows),
            st.just(cols)))


def systems(max_rows=5, max_cols=6):
    """(rows, cols) with a right-hand side at bit cols of each row."""
    return st.integers(1, max_cols).flatmap(
        lambda cols: st.tuples(
            st.lists(st.integers(0, (1 << (cols + 1)) - 1), min_size=0, max_size=max_rows),
            st.just(cols)))


# -- frozen examples -------------------------------------------------------

COMPLETE_TRIPLES = matrix_from_rows(
    [[1, 1, 1, 0], [1, 1, 0, 1], [1, 0, 1, 1], [0, 1, 1, 1]]
)
DEPENDENT_ROWS = matrix_from_rows([[1, 1, 1, 0], [1, 1, 0, 1], [0, 0, 1, 1]])


def test_rank_identity():
    assert rank([0b001, 0b010, 0b100], 3) == 3


def test_rank_empty_matrix():
    assert rank([], 5) == 0


def test_rank_complete_triples():
    # Oracle: only the zero vector solves Hx = 0 over all 16 assignments.
    assert brute_kernel(COMPLETE_TRIPLES, 4) == [0]
    assert rank(COMPLETE_TRIPLES, 4) == 4


def test_rank_dependent_rows():
    # Row 3 = row 1 + row 2; the brute-force kernel has 2^(4-2) elements.
    assert len(brute_kernel(DEPENDENT_ROWS, 4)) == 4
    assert rank(DEPENDENT_ROWS, 4) == 2


def test_kernel_identity_empty():
    assert kernel_basis([0b0001, 0b0010, 0b0100, 0b1000], 4) == []


def test_kernel_complete_triples_empty():
    assert kernel_basis(COMPLETE_TRIPLES, 4) == []


def test_kernel_dependent_rows():
    basis = kernel_basis(DEPENDENT_ROWS, 4)
    assert len(basis) == 2
    for v in basis:
        assert mat_vec(DEPENDENT_ROWS, v) == 0
    # The basis spans exactly the brute-force kernel.
    spanned = set()
    for c0, c1 in itertools.product((0, 1), repeat=2):
        spanned.add((c0 * basis[0]) ^ (c1 * basis[1]))
    assert spanned == set(brute_kernel(DEPENDENT_ROWS, 4))


# -- properties ------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(matrices())
def test_rank_plus_nullity(m):
    rows, cols = m
    assert rank(rows, cols) == cols - len(kernel_basis(rows, cols))


@settings(max_examples=150, deadline=None)
@given(matrices())
def test_kernel_vectors_annihilate(m):
    rows, cols = m
    basis = kernel_basis(rows, cols)
    for v in basis:
        assert mat_vec(rows, v) == 0
    assert len(set(basis)) == len(basis)
    assert (1 << len(basis)) == len(brute_kernel(rows, cols))


@settings(max_examples=100, deadline=None)
@given(matrices(), st.randoms(use_true_random=False))
def test_rank_invariant_under_row_ops(m, rnd):
    rows, cols = m
    shuffled = list(rows)
    rnd.shuffle(shuffled)
    assert rank(shuffled, cols) == rank(rows, cols)
    if len(shuffled) >= 2:
        i, j = rnd.sample(range(len(shuffled)), 2)
        shuffled[i] ^= shuffled[j]
        assert rank(shuffled, cols) == rank(rows, cols)


@settings(max_examples=100, deadline=None)
@given(systems())
def test_reduced_system_preserves_solutions(m):
    rows, cols = m
    reduced = reduced_system(rows, cols)
    original = brute_solutions(rows, cols)
    if reduced is None:
        assert original == []
        return
    assert all(r and r >> cols <= 1 for r in reduced)
    assert brute_solutions(reduced, cols) == original


def test_rank_ignores_carried_bits():
    rng = random.Random(13)
    for n in (5, 12, 30, 200):
        for ratio in (0.5, 1.0, 2.0):
            rows = list(to_matrix(sample_homogeneous(SampleConfig(n=n, ratio=ratio, seed=n))))
            carried = [r | rng.getrandbits(3) << n for r in rows]
            assert any(r >> n for r in carried)
            assert rank(carried, n) == rank(rows, n)


# -- the column-major reducer against the row-major reference ---------------

SHAPES = ("empty", "no_cols", "tall", "wide", "zero_rows", "duplicate_rows", "rank_deficient", "any")


def test_reducer_matches_reference_on_random_matrices():
    rng = random.Random(20261018)
    deficient = inconsistent = 0
    for k in range(560):
        rows, cols = random_matrix(rng, SHAPES[k % len(SHAPES)])
        bs = consistent_and_random_rhs(rows, cols, rng)
        assert reduced_system(with_rhs(rows, cols, bs[0]), cols) is not None
        inconsistent += reduced_system(with_rhs(rows, cols, bs[1]), cols) is None
        deficient += rank(rows, cols) < min(len(rows), cols)
        assert_matches_reference(rows, cols, bs)
    # Neither side of either split is empty.
    assert 0 < deficient < 560 and 0 < inconsistent < 560


@pytest.mark.parametrize("n", [5, 12, 30, 64, 200])
def test_reducer_matches_reference_on_sampled_formulas(n):
    rng = random.Random(n)
    for ratio in (0.5, 1.0, 2.0):
        for seed in range(3 if n < 200 else 1):
            f = sample_homogeneous(SampleConfig(n=n, ratio=ratio, seed=seed))
            rows = list(to_matrix(f))
            assert_matches_reference(rows, n, [0] + consistent_and_random_rhs(rows, n, rng))
            pinned = [r & ~(1 << n) for r in to_matrix(pin(f, rng.randint(1, n), 1))]
            assert_matches_reference(pinned, n, [1 << (len(pinned) - 1)])


def test_reducer_matches_reference_at_n1000():
    f = sample_homogeneous(SampleConfig(n=1000, m=2000, seed=1))
    assert is_uniquely_satisfiable(f)
    rows = list(to_matrix(f))
    bs = consistent_and_random_rhs(rows, 1000, random.Random(1000))
    expected = reference_results(rows, 1000, bs)
    assert expected == [1000] * 3
    assert public_results(rows, 1000, bs) == expected


# -- deferred blocks against the one-pivot-at-a-time reducers --------------

BLOCKS = (1, 2, 3, 5, gf2._BLOCK)
GROUPS = (1, 2, 3, 4, 5)
N1000_SEEDS = (1868515624530699897, 3, 11, 2024)


def coefficient_rows(rng, rows, cols, rank_bound=None):
    """rows random rows below bit cols, spanning at most rank_bound
    dimensions when one is given."""
    if rank_bound is None:
        return [rng.getrandbits(cols) if cols else 0 for _ in range(rows)]
    basis = [rng.getrandbits(cols) for _ in range(rank_bound)]
    out = []
    for _ in range(rows):
        row = 0
        for v in basis:
            if rng.getrandbits(1):
                row ^= v
        out.append(row)
    return out


def block_boundary_matrices(rng, block):
    """(name, rows, cols) with cols at 0 and at block - 1, block, block + 1
    and 2 block + 1, in tall, square, wide, rank-deficient and empty shapes,
    and in short shapes: fewer than block or than 2 block rows over more
    columns, so that the rows can run out inside the first or second block."""
    for cols in sorted({0, max(block - 1, 0), block, block + 1, 2 * block + 1}):
        yield "empty", [], cols
        yield "tall", coefficient_rows(rng, cols + rng.randint(1, 4), cols), cols
        yield "square", coefficient_rows(rng, cols, cols), cols
        if cols >= 2:
            yield "wide", coefficient_rows(rng, rng.randint(1, cols - 1), cols), cols
            yield "rank_deficient", coefficient_rows(
                rng, cols + 2, cols, rng.randint(0, cols - 1)), cols
        if cols > block >= 2:
            for short in {rng.randint(1, block - 1), block + rng.randint(1, block - 1)}:
                yield "short", coefficient_rows(rng, short, cols), cols


def runs_out_mid_block(rows, cols, block):
    """Whether every row is a pivot row before the last column of a block,
    so that the elimination stops inside that block."""
    pivots = column_major_rref(rows, cols)[1]
    return bool(rows) and len(pivots) == len(rows) and pivots[-1] % block != block - 1


def assert_blocked_matches(rows, cols, consistent=False):
    """_pivots equals the pivots of the column-major oracle and of the
    row-major reference. On a consistent system, where the bits at cols
    are a function of the matrix, the two oracles agree in full."""
    work, pivots = column_major_rref(rows, cols)
    ref_work, ref_pivots = reference_rref(rows, cols)
    assert gf2._pivots(rows, cols) == pivots == ref_pivots
    if consistent:
        assert work == ref_work


@pytest.mark.parametrize("block", BLOCKS)
def test_blocked_reducer_matches_oracles_across_block_boundaries(monkeypatch, block):
    monkeypatch.setattr(gf2, "_BLOCK", block)
    for group in GROUPS:
        monkeypatch.setattr(gf2, "_GROUP", group)
        rng = random.Random(100 * block + group)
        inconsistent = early_exits = 0
        for _ in range(4):
            for shape, rows, cols in block_boundary_matrices(rng, block):
                if shape == "short":
                    early_exits += runs_out_mid_block(rows, cols, block)
                assert_blocked_matches(rows, cols, consistent=True)
                x = rng.getrandbits(cols) if cols else 0
                consistent_rhs, random_rhs = mat_vec(rows, x), rng.getrandbits(len(rows))
                assert_blocked_matches(with_rhs(rows, cols, consistent_rhs), cols, consistent=True)
                system = with_rhs(rows, cols, random_rhs)
                inconsistent += reduced_system(system, cols) is None
                assert_blocked_matches(system, cols)
                # Bits above the rhs, which _pivots drops: three random ones,
                # and an identity block, one bit per input row.
                carried = [r | rng.getrandbits(3) << (cols + 1) for r in system]
                assert_blocked_matches(carried, cols)
                tagged = [r | 1 << (cols + i) for i, r in enumerate(rows)]
                assert_blocked_matches(tagged, cols)
        assert inconsistent > 0
        # A one-column block cannot stop before its last column.
        assert early_exits > 0 or block == 1


@pytest.mark.parametrize("seed", N1000_SEEDS)
def test_full_rank_at_n1000_matches_the_column_major_oracle(seed):
    f = sample_homogeneous(SampleConfig(n=1000, m=2000, seed=seed))
    triples = [cl.vars for cl in f.clauses]
    rows = list(to_matrix(f))
    oracle_rank = len(column_major_rref(rows, 1000)[1])
    assert has_full_rank(1000, triples) == (oracle_rank == 1000)
    system = with_rhs(rows, 1000, random.Random(seed).getrandbits(len(rows)))
    assert gf2._pivots(system, 1000) == column_major_rref(system, 1000)[1]
