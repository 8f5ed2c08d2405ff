"""GF(2) linear algebra against exhaustive enumeration oracles."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from xorcfi import gf2
from xorcfi.formula import is_uniquely_satisfiable, pin, to_matrix
from xorcfi.gf2 import Gf2Matrix, Gf2Vector, kernel_basis, rank, reduced_system
from xorcfi.sampler import SampleConfig, sample_homogeneous

from oracles import mat_vec, matrix_from_rows, solve


# -- oracles ---------------------------------------------------------------


def brute_kernel(row_bits, cols):
    """All x in {0,1}^cols with every row-parity zero."""
    out = []
    for x in range(1 << cols):
        if all((r & x).bit_count() % 2 == 0 for r in row_bits):
            out.append(x)
    return out


def brute_solutions(row_bits, cols, b_bits):
    out = []
    for x in range(1 << cols):
        if all((r & x).bit_count() % 2 == ((b_bits >> i) & 1) for i, r in enumerate(row_bits)):
            out.append(x)
    return out


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


def public_results(m, bs):
    """rank, kernel basis, and reduced_system and solve for each b."""
    systems = [(reduced_system(m, b), solve(m, b)) for b in bs]
    return (rank(m), [v.bits for v in kernel_basis(m)],
            [(red, None if x is None else x.bits) for red, x in systems])


def reference_results(m, bs):
    """public_results with the row-major reference reducer in place."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gf2, "_rref", reference_rref)
        return public_results(m, bs)


def assert_matches_reference(m, bs):
    """Same public results as the reference, and the same reduced rows:
    RREF is unique, so only the order of the zero rows may differ."""
    assert public_results(m, bs) == reference_results(m, bs)
    rows, pivots = gf2._rref(m.row_bits, m.cols)
    ref_rows, ref_pivots = reference_rref(m.row_bits, m.cols)
    r = len(ref_pivots)
    assert pivots == ref_pivots
    assert rows[:r] == ref_rows[:r]
    assert rows[r:] == [0] * (m.rows - r) == ref_rows[r:]


def consistent_and_random_rhs(m, rng):
    """b = m x for a random x (consistent), and a uniformly random b."""
    x = Gf2Vector(m.cols, rng.getrandbits(m.cols) if m.cols else 0)
    return [mat_vec(m, x), Gf2Vector(m.rows, rng.getrandbits(m.rows) if m.rows else 0)]


def random_matrix(rng, shape):
    """A random matrix of the named shape (see test_reducer_matches_reference_on_random_matrices)."""
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
    return Gf2Matrix(rows, cols, tuple(bits))


def matrices(max_rows=6, max_cols=8):
    return st.integers(1, max_cols).flatmap(
        lambda cols: st.lists(st.integers(0, (1 << cols) - 1), min_size=0, max_size=max_rows).map(
            lambda rows: Gf2Matrix(len(rows), cols, tuple(rows))
        )
    )


# -- frozen examples -------------------------------------------------------

COMPLETE_TRIPLES = matrix_from_rows(
    [[1, 1, 1, 0], [1, 1, 0, 1], [1, 0, 1, 1], [0, 1, 1, 1]]
)
DEPENDENT_ROWS = matrix_from_rows([[1, 1, 1, 0], [1, 1, 0, 1], [0, 0, 1, 1]], cols=4)


def test_rank_identity():
    assert rank(Gf2Matrix(3, 3, (0b001, 0b010, 0b100))) == 3


def test_rank_empty_matrix():
    assert rank(Gf2Matrix(0, 5, ())) == 0


def test_rank_complete_triples():
    # Oracle: only the zero vector solves Hx = 0 over all 16 assignments.
    assert brute_kernel(COMPLETE_TRIPLES.row_bits, 4) == [0]
    assert rank(COMPLETE_TRIPLES) == 4


def test_rank_dependent_rows():
    # Row 3 = row 1 + row 2; the brute-force kernel has 2^(4-2) elements.
    assert len(brute_kernel(DEPENDENT_ROWS.row_bits, 4)) == 4
    assert rank(DEPENDENT_ROWS) == 2


def test_kernel_identity_empty():
    assert kernel_basis(Gf2Matrix(4, 4, (0b0001, 0b0010, 0b0100, 0b1000))) == []


def test_kernel_complete_triples_empty():
    assert kernel_basis(COMPLETE_TRIPLES) == []


def test_kernel_dependent_rows():
    basis = kernel_basis(DEPENDENT_ROWS)
    assert len(basis) == 2
    for v in basis:
        assert mat_vec(DEPENDENT_ROWS, v).bits == 0
    # The basis spans exactly the brute-force kernel.
    spanned = set()
    for c0, c1 in itertools.product((0, 1), repeat=2):
        spanned.add((c0 * basis[0].bits) ^ (c1 * basis[1].bits))
    assert spanned == set(brute_kernel(DEPENDENT_ROWS.row_bits, 4))


def test_solve_identity():
    x = solve(Gf2Matrix(3, 3, (0b001, 0b010, 0b100)), Gf2Vector(3, 0b101))
    assert x == Gf2Vector(3, 0b101)


def test_solve_homogeneous_is_zero():
    x = solve(DEPENDENT_ROWS, Gf2Vector(3, 0))
    assert x == Gf2Vector(4, 0)


def test_solve_complete_triples_unique():
    b = Gf2Vector(4, 0b0001)
    sols = brute_solutions(COMPLETE_TRIPLES.row_bits, 4, b.bits)
    assert len(sols) == 1
    x = solve(COMPLETE_TRIPLES, b)
    assert x.bits == sols[0]
    assert mat_vec(COMPLETE_TRIPLES, x).bits == b.bits


def test_solve_dimension_mismatch():
    with pytest.raises(ValueError):
        solve(COMPLETE_TRIPLES, Gf2Vector(3, 0))
    with pytest.raises(ValueError):
        mat_vec(COMPLETE_TRIPLES, Gf2Vector(5, 0))


def test_padding_bits_rejected():
    with pytest.raises(ValueError):
        Gf2Vector(2, 0b100)
    with pytest.raises(ValueError):
        Gf2Matrix(1, 2, (0b111,))


# -- properties ------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(matrices())
def test_rank_plus_nullity(m):
    assert rank(m) == m.cols - len(kernel_basis(m))


@settings(max_examples=150, deadline=None)
@given(matrices())
def test_kernel_vectors_annihilate(m):
    basis = kernel_basis(m)
    for v in basis:
        assert mat_vec(m, v).bits == 0
    assert len({v.bits for v in basis}) == len(basis)
    assert (1 << len(basis)) == len(brute_kernel(m.row_bits, m.cols))


@settings(max_examples=150, deadline=None)
@given(matrices(), st.integers(0, 2**6 - 1))
def test_solve_matches_brute_force(m, raw_b):
    b = Gf2Vector(m.rows, raw_b & ((1 << m.rows) - 1))
    sols = brute_solutions(m.row_bits, m.cols, b.bits)
    x = solve(m, b)
    if not sols:
        assert x is None
    else:
        assert x is not None and x.bits in sols


@settings(max_examples=100, deadline=None)
@given(matrices(), st.randoms(use_true_random=False))
def test_rank_invariant_under_row_ops(m, rnd):
    rows = list(m.row_bits)
    rnd.shuffle(rows)
    assert rank(Gf2Matrix(m.rows, m.cols, tuple(rows))) == rank(m)
    if len(rows) >= 2:
        i, j = rnd.sample(range(len(rows)), 2)
        rows[i] ^= rows[j]
        assert rank(Gf2Matrix(m.rows, m.cols, tuple(rows))) == rank(m)


@settings(max_examples=100, deadline=None)
@given(matrices(max_rows=5, max_cols=6), st.integers(0, 31))
def test_reduced_system_preserves_solutions(m, raw_b):
    b = Gf2Vector(m.rows, raw_b & ((1 << m.rows) - 1))
    reduced = reduced_system(m, b)
    original = brute_solutions(m.row_bits, m.cols, b.bits)
    if reduced is None:
        assert original == []
        return
    red_rows = [r for r, _ in reduced]
    red_b = 0
    for i, (_, rhs) in enumerate(reduced):
        red_b |= rhs << i
    assert brute_solutions(red_rows, m.cols, red_b) == original


# -- the column-major reducer against the row-major reference ---------------

SHAPES = ("empty", "no_cols", "tall", "wide", "zero_rows", "duplicate_rows", "rank_deficient", "any")


def test_reducer_matches_reference_on_random_matrices():
    rng = random.Random(20261018)
    deficient = inconsistent = 0
    for k in range(560):
        m = random_matrix(rng, SHAPES[k % len(SHAPES)])
        bs = consistent_and_random_rhs(m, rng)
        assert reduced_system(m, bs[0]) is not None
        inconsistent += reduced_system(m, bs[1]) is None
        deficient += rank(m) < min(m.rows, m.cols)
        assert_matches_reference(m, bs)
    # Neither side of either split is empty.
    assert 0 < deficient < 560 and 0 < inconsistent < 560


@pytest.mark.parametrize("n", [5, 12, 30, 64, 200])
def test_reducer_matches_reference_on_sampled_formulas(n):
    rng = random.Random(n)
    for ratio in (0.5, 1.0, 2.0):
        for seed in range(3 if n < 200 else 1):
            f = sample_homogeneous(SampleConfig(n=n, ratio=ratio, seed=seed))
            h, b = to_matrix(f)
            assert_matches_reference(h, [b] + consistent_and_random_rhs(h, rng))
            ph, pb = to_matrix(pin(f, rng.randint(1, n), 1))
            assert_matches_reference(ph, [pb])


def test_reducer_matches_reference_at_n1000():
    f = sample_homogeneous(SampleConfig(n=1000, m=2000, seed=1))
    assert is_uniquely_satisfiable(f)
    h, _ = to_matrix(f)
    bs = consistent_and_random_rhs(h, random.Random(1000))
    expected = reference_results(h, bs)
    assert expected[0] == 1000 and expected[2][1] == (None, None)
    assert public_results(h, bs) == expected
