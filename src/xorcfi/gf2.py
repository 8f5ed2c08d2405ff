"""The rank over GF(2) of parity rows packed into Python ints.

A row over n variables is one int: bit j holds the coefficient of
variable j+1, so a row XOR is one arbitrary-precision xor.
formula.to_matrix produces rows in this form. rank(rows, cols) reads
the bits below cols only; bits at cols and above, such as a
right-hand side at bit n, are dropped.

The rank is the pivot count of one Gauss-Jordan elimination that works
column-major: the rows are transposed once into one int per column
(bit i = row i), the pivot of a column is the lowest set bit among the
rows not yet used as pivots, and clearing it elsewhere is one xor into
each later column the pivot row touches. The pivot columns of a matrix
are those of its unique reduced row echelon form, so the pivot choice
cannot change them.

Pivot rows are sparse, so most columns miss any one pivot bit. The
elimination therefore works a block of _BLOCK pivot columns at a time
and brings a column up to date only when it is read, as blocked
(M4RI-style) GF(2) elimination does. One helper, _replay, applies the
block's pivots so far to a column in pivot order: each full group of
_GROUP pivots at once, through a memo that maps the column's bits at
the group's pivot rows to the xor the group makes there (the Method of
Four Russians; Albrecht, Bard & Hart, ACM TOMS 2010), then the newer
pivots one by one. A column of the block is replayed just before its
pivot search, and after the block every later column is replayed once.
A column that misses the OR of the block's pivot bits is untouched by
the whole block and skips the replay. The elimination stops as soon as
every row is a pivot row.

The replay is exact. A group's xors on a column depend only on the
column's bits at the group's pivot rows, and inside the group those
bits change only by the group's own xors, so the memoised xor for one
value of those bits is what the pivots make one at a time. Groups and
tail run in pivot order, and a pivot never touches an earlier column,
so every column receives the one-pivot-at-a-time loop's xors.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple


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


def _pivots(row_bits: Iterable[int], cols: int) -> List[int]:
    """The pivot columns of the reduced row echelon form, in order.

    Only columns 0..cols-1 are built: each row is masked below bit
    cols, so its bits at cols and above (a right-hand side) are dropped.
    Column j is one int whose bit i is row i. The pivot of column c is
    its lowest row not yet used as a pivot, p, and clearing c in the
    other rows, others = col[c] ^ p, is one xor of others into each
    later column that holds p.

    Those xors are deferred within a block of _BLOCK pivot columns and
    made by _replay, in pivot order, whenever a column is read: column c
    of the block just before its pivot search (a pivot never touches an
    earlier column), and after the block every column from the block's
    end up to cols. A column that misses hit, the OR of the block's
    pivot bits p, is untouched. The search returns as soon as every row
    is a pivot row.
    """
    col = [0] * cols
    mask = (1 << cols) - 1
    free = 0
    for i, row in enumerate(row_bits):
        bit = 1 << i
        free |= bit
        row &= mask
        while row:
            low = row & -row
            col[low.bit_length() - 1] |= bit
            row ^= low
    pivots: List[int] = []
    for start in range(0, cols, _BLOCK):
        groups: List[_Group] = []
        tail: List[_Op] = []  # the newest ops, not yet in a full group
        hit = 0  # the OR of every op's p; a pivot with no others has no op
        grouped = 0  # the OR of the p in groups, so hit ^ grouped is the tail's
        end = min(start + _BLOCK, cols)
        for c in range(start, end):
            x = col[c]
            if x & hit:
                x = _replay(x, groups, tail)
            cand = x & free
            if not cand:
                continue
            p = cand & -cand
            others = x ^ p
            if others:
                tail.append((p, others))
                hit |= p
                if len(tail) == _GROUP:
                    groups.append((hit ^ grouped, tail, {}))
                    grouped, tail = hit, []
            free ^= p
            pivots.append(c)
            if not free:
                return pivots
        if hit:
            for j in range(end, cols):
                x = col[j]
                if x & hit:
                    col[j] = _replay(x, groups, tail)
    return pivots


def rank(rows: Iterable[int], cols: int) -> int:
    """Rank over GF(2) of the coefficients below bit cols; the bits at
    cols and above (a right-hand side) are ignored."""
    return len(_pivots(rows, cols))
