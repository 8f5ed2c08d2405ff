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

Pivot rows are sparse, so most columns miss any one pivot bit. The
elimination therefore works a block of _BLOCK pivot columns at a time
and brings a column up to date only when it is read, as blocked
(M4RI-style) GF(2) elimination does. One helper, _replay, applies the
block's pivots so far to a column in pivot order: each full group of
_GROUP pivots at once, through a memo that maps the column's bits at
the group's pivot rows to the xor the group makes there (the Method of
Four Russians; Albrecht, Bard & Hart, ACM TOMS 2010), then the newer
pivots one by one. A column of the block is replayed just before its
pivot search, and after the block every column from the first one the
block did not visit is replayed once: from the block's end, or from the
column after the last pivot when the rows run out inside the block. A
column that misses the OR of the block's pivot bits is untouched by the
whole block and skips the replay.

The replay is exact. A group's xors on a column depend only on the
column's bits at the group's pivot rows, and inside the group those
bits change only by the group's own xors, so the memoised xor for one
value of those bits is what the pivots make one at a time. Groups and
tail run in pivot order, and a pivot never touches an earlier column,
so every column receives the one-pivot-at-a-time loop's xors.

rank() counts the pivots; reduced_system() returns the reduced system
that the Gauss presolve of xorsat propagates.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple


# Pivot columns per deferred block; measured fastest at 16-32 on n=1000,
# m=2000 systems, while 64 is slower.
_BLOCK = 32
# Pivots replayed through one memo table.
_GROUP = 4

_Op = Tuple[int, int]  # (p, others): xor others into a column that holds p
_Group = Tuple[int, List[_Op], Dict[int, int]]  # (mask, ops, memo)


def _replay(x: int, groups: List[_Group], tail: List[_Op]) -> int:
    """Column x after a block's pivots so far, in pivot order: first the
    full groups, each a (mask, ops, memo) with ops its (p, others) pairs
    and mask the OR of their p, then the newer pairs in tail.

    An op xors others into x when x holds p. Inside a group the bits of
    x at mask change only by others & mask, so the group's xor on x is a
    function of x & mask alone: memo holds it per value met, computed
    by running the group's ops on that value.
    """
    for mask, ops, memo in groups:
        key = x & mask
        if key:
            delta = memo.get(key)
            if delta is None:
                y = key
                for p, others in ops:
                    if y & p:
                        y ^= others
                delta = memo[key] = y ^ key
            x ^= delta
    for p, others in tail:
        if x & p:
            x ^= others
    return x


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

    Those xors are deferred within a block of _BLOCK pivot columns and
    made by _replay, in pivot order, whenever a column is read: column c
    of the block just before its pivot search (a column the block has
    not reached yet is never read, and a pivot never touches an earlier
    column), and after the block every column from the first one the
    block did not visit, those at cols and above included. That is the
    block's end, or c + 1 when the rows run out at column c. Pivots go
    to _replay in groups of _GROUP, and a group's memoised xor for a
    given x & mask is the xor its ops make one by one, so each column
    receives exactly the eager loop's sequence of xors. A column that
    misses hit, the OR of the block's pivot bits p, is untouched.
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
        groups: List[_Group] = []
        tail: List[_Op] = []  # the newest ops, not yet in a full group
        hit = 0  # the OR of every op's p; a pivot with no others has no op
        grouped = 0  # the OR of the p in groups, so hit ^ grouped is the tail's
        for c in range(start, min(start + _BLOCK, cols)):
            x = col[c]
            if x & hit:
                x = _replay(x, groups, tail)
            cand = x & free
            if not cand:
                col[c] = x
                continue
            p = cand & -cand
            others = x ^ p
            if others:
                tail.append((p, others))
                hit |= p
                if len(tail) == _GROUP:
                    groups.append((hit ^ grouped, tail, {}))
                    grouped, tail = hit, []
            col[c] = 0  # a unit column; its one bit goes back in below
            free ^= p
            pivots.append(c)
            order.append(p.bit_length() - 1)
            if not free:
                break
        if hit:
            for j in range(c + 1, width):
                x = col[j]
                if x & hit:
                    col[j] = _replay(x, groups, tail)
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
