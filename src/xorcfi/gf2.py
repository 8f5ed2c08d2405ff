"""Linear algebra over GF(2) on parity rows packed into Python ints.

A row over n variables is one int: bit j holds the coefficient of
variable j+1 and bit n the right-hand side, so the row 1 << n reads
0 = 1 and a row XOR is one arbitrary-precision xor. formula.to_matrix
produces rows in this form and every consumer takes them unchanged.

All reductions go through one Gauss-Jordan elimination that works
column-major: the rows are transposed once into one int per column
(bit i = row i), the pivot of a column is the lowest set bit among the
rows not yet used as pivots, and clearing it elsewhere is one xor into
each later column the pivot row touches. The reduced row echelon form
of a matrix is unique, so the pivot choice cannot change any result.
rank() counts the pivots; reduced_system() returns the reduced system
that the Gauss presolve of xorsat propagates.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple


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


def rank(rows: Iterable[int], cols: int) -> int:
    """Rank over GF(2) of the coefficients below bit cols; the bits at
    cols and above (a right-hand side) are ignored."""
    return len(_rref(rows, cols)[1])


def reduced_system(rows: Iterable[int], cols: int) -> Optional[List[int]]:
    """The nonzero rows of the reduced row echelon form, right-hand side
    at bit cols; None when the system is inconsistent (0 = 1 among them).

    A full-rank consistent system reduces to unit rows.
    """
    work, _ = _rref(rows, cols)
    out = [row for row in work if row]
    return None if 1 << cols in out else out
