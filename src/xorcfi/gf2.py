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

Pivot rows are sparse, so most later columns miss any one pivot bit.
The elimination therefore defers its updates a block of _BLOCK pivot
columns at a time, as blocked (M4RI-style) GF(2) elimination does: the
columns inside the block are updated at once, because the next pivot
is read from them, and each later column is tested once against the
OR of the block's pivot bits. A column that misses it is untouched by
the whole block; a column that hits replays the block's xors in pivot
order, exactly the xors the one-pivot-at-a-time loop would make.

rank() counts the pivots; reduced_system() returns the reduced system
that the Gauss presolve of xorsat propagates.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple


# Pivot columns per deferred block; measured fastest at 16-32 on n=1000,
# m=2000 systems, while 64 is slower.
_BLOCK = 32


def _rref(row_bits: Iterable[int], cols: int) -> Tuple[List[int], List[int]]:
    """Reduced row echelon form; returns (reduced rows, pivot columns).

    Pivots are sought in columns 0..cols-1 only; bits at cols and above
    (the rhs of an augmented system) are carried along by every row
    operation. The rows come back as the pivot rows in pivot order,
    then the others in input order, which are zero below bit cols.

    The work is column-major: column j is one int whose bit i is row i.
    The pivot of column c is its lowest row not yet used as a pivot, p,
    and clearing c in the other rows, others = col[c] ^ p, is one xor of
    others into each later column that holds p.

    Those xors are deferred past the end of a block of _BLOCK pivot
    columns. Inside the block they are made at once; after it, each
    later column x (those at cols and above included) is tested once
    against P, the OR of the block's pivot bits p. Only the bits p of x
    decide whether an xor hits x, and they change only when one does,
    so an x that misses P is untouched by the block; an x that hits
    replays `if x & p: x ^= others` for the block's pivots in order,
    which is the eager loop's sequence of xors on x.
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
    for start in range(0, cols, _BLOCK):
        stop = min(start + _BLOCK, cols)
        ops: List[Tuple[int, int]] = []  # (p, others) where others is nonzero
        hit = 0  # P: the OR of those p; a pivot with no others xors nothing
        for c in range(start, stop):
            cand = col[c] & free
            if not cand:
                continue
            p = cand & -cand
            others = col[c] ^ p
            if others:
                for j in range(c + 1, stop):
                    if col[j] & p:
                        col[j] ^= others
                ops.append((p, others))
                hit |= p
            col[c] = 0  # a unit column; its one bit goes back in below
            free ^= p
            pivots.append(c)
            order.append(p.bit_length() - 1)
            if not free:
                break
        if hit:
            for j in range(stop, width):
                x = col[j]
                if x & hit:
                    for p, others in ops:
                        if x & p:
                            x ^= others
                    col[j] = x
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
