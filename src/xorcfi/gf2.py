"""Dense linear algebra over GF(2) with bit-packed rows.

A matrix row is a single Python int: bit j holds the entry in column j,
so a row XOR is one arbitrary-precision xor. All reductions go through
one Gauss-Jordan elimination that works column-major: the rows are
transposed once into one int per column (bit i = row i), the pivot of
a column is the lowest set bit among the rows not yet used as pivots,
and clearing it elsewhere is one xor into each later column the pivot
row touches. The reduced row echelon form of a matrix is unique, so
the pivot choice cannot change any result. kernel_basis() sets one
free variable to 1 and the others to 0, so its basis is canonical, and
reduced_system() returns the reduced augmented system that the Gauss
presolve of xorsat propagates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple


@dataclass(frozen=True)
class Gf2Vector:
    """A length-n bit vector packed into one int (bit j = coordinate j)."""

    n: int
    bits: int

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("vector length must be >= 0")
        if self.bits < 0 or self.bits >> self.n:
            raise ValueError("padding bits beyond length must be zero")

    def __getitem__(self, j: int) -> int:
        if not 0 <= j < self.n:
            raise IndexError(j)
        return (self.bits >> j) & 1


@dataclass(frozen=True)
class Gf2Matrix:
    """rows x cols matrix over GF(2); row_bits[i] packs row i."""

    rows: int
    cols: int
    row_bits: Tuple[int, ...]

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError("matrix dimensions must be >= 0")
        if len(self.row_bits) != self.rows:
            raise ValueError("row_bits length must equal rows")
        for r in self.row_bits:
            if r < 0 or r >> self.cols:
                raise ValueError("padding bits beyond cols must be zero")


def _rref(row_bits: Iterable[int], cols: int) -> Tuple[List[int], List[int]]:
    """Reduced row echelon form; returns (reduced rows, pivot columns).

    Pivots are sought in columns 0..cols-1 only; bits at cols and above
    (the rhs of an augmented system) are carried along by every row
    operation. The rows come back as the pivot rows in pivot order,
    then the others in input order, which are zero below bit cols.

    The work is column-major: column j is one int whose bit i is row i.
    The pivot of column c is its lowest row not yet used as a pivot,
    and clearing c in the other rows is one xor into each later column
    that the pivot row touches.
    """
    rows = list(row_bits)
    width = max(cols, max(rows, default=0).bit_length())
    col = [0] * width
    for i, row in enumerate(rows):
        bit = 1 << i
        while row:
            low = row & -row
            col[low.bit_length() - 1] |= bit
            row ^= low
    free = (1 << len(rows)) - 1
    pivots: List[int] = []
    order: List[int] = []  # pivot row indices, then the remaining rows
    for c in range(cols):
        cand = col[c] & free
        if not cand:
            continue
        p = cand & -cand
        others = col[c] ^ p
        if others:
            for j in range(c + 1, width):
                if col[j] & p:
                    col[j] ^= others
        col[c] = 0  # a unit column; its one bit goes back in below
        free ^= p
        pivots.append(c)
        order.append(p.bit_length() - 1)
        if not free:
            break
    work = [0] * len(rows)
    for i, c in zip(order, pivots):
        work[i] = 1 << c
    for j, x in enumerate(col):
        bit = 1 << j
        while x:
            low = x & -x
            work[low.bit_length() - 1] |= bit
            x ^= low
    while free:
        low = free & -free
        order.append(low.bit_length() - 1)
        free ^= low
    return [work[i] for i in order], pivots


def rank(m: Gf2Matrix) -> int:
    """Rank of m over GF(2); m itself is never mutated."""
    _, pivots = _rref(m.row_bits, m.cols)
    return len(pivots)


def kernel_basis(m: Gf2Matrix) -> List[Gf2Vector]:
    """Canonical basis of the null space {x : m x = 0}.

    One basis vector per free column, in ascending free-column order;
    the free coordinate is set to 1 and pivot coordinates are read off
    the reduced echelon form.
    """
    work, pivots = _rref(m.row_bits, m.cols)
    pivot_set = set(pivots)
    basis = []
    for free in range(m.cols):
        if free in pivot_set:
            continue
        bits = 1 << free
        for idx, pc in enumerate(pivots):
            if (work[idx] >> free) & 1:
                bits |= 1 << pc
        basis.append(Gf2Vector(m.cols, bits))
    return basis


def reduced_system(m: Gf2Matrix, b: Gf2Vector) -> Optional[List[Tuple[int, int]]]:
    """RREF of the augmented system [m | b] as (row_bits, rhs) pairs.

    Returns None when the system is inconsistent; zero rows are dropped,
    so a full-rank system reduces to unit rows.
    """
    if b.n != m.rows:
        raise ValueError(f"dimension mismatch: matrix has {m.rows} rows, vector length {b.n}")
    aug = [m.row_bits[i] | (((b.bits >> i) & 1) << m.cols) for i in range(m.rows)]
    work, pivots = _rref(aug, m.cols)
    col_mask = (1 << m.cols) - 1
    out = []
    for row in work:
        coeffs = row & col_mask
        rhs = (row >> m.cols) & 1
        if coeffs == 0:
            if rhs:
                return None
            continue
        out.append((coeffs, rhs))
    return out
