"""Refinement and symmetry machinery.

Color refinement runs vectorized: each round sorts every vertex's
neighbor colors and ranks the rows (own color, sorted neighbor colors)
lexicographically. The rows are held as big-endian unsigned integers
viewed as one NUL-padded byte string (numpy's S type) per vertex, so a
single argsort of the byte strings ranks them in lexicographic order;
rows of one length compare as S scalars exactly as in full, whether or
not numpy strips their trailing NULs (see _Csr and _refine).
Cell ids produced this way depend only on the refinement history, never
on vertex numbering, which is what the individualization-refinement
search needs to match up cells across branches.

The IR automorphism search follows the classic scheme: the leftmost
root-to-leaf path fixes a reference labeling, every other leaf proposes
the permutation onto it, verified automorphisms prune target cells by
orbits, and subtrees off the leftmost path unwind as soon as they
produce one automorphism. Each search node is a generator that yields
its children one at a time and is sent back whether each child's subtree
found an automorphism; a loop drives a stack of these suspended nodes,
so the search keeps its recursive shape without Python recursion. There
is deliberately no node-invariant pruning and no component factoring:
wrong branches pay for their whole subtree, so the node count directly
reflects how long refinement keeps branches looking alike. The group
order is the orbit product along the leftmost path (McKay & Piperno,
Practical Graph Isomorphism II, 2014).

k-local consistency of a formula is the width-bounded xor closure of
its parity rows, run in numpy batches. Each row is packed into
n // 64 + 1 uint64 words with its right-hand side at bit n. A step
takes every pending row of the least width and tests it against all
derived rows at once: a pair passes when the supports share a variable
and together touch at most k. The xors of passing pairs that were not
seen before, looked up in one sorted array of row keys, become pending
rows; the closure stops at the first 0 = 1 (see local_consistency).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from .cfi import Graph, is_automorphism
from .formula import PinnedSystem, XorFormula, to_matrix

CELL_FIRST_SMALLEST = "first-smallest"
CELL_FIRST_LARGEST = "first-largest"

STATUS_COMPLETE = "COMPLETE"
STATUS_TIMEOUT = "TIMEOUT"


class BudgetExceededError(RuntimeError):
    """Raised when an exact computation refuses to start or continue."""


@dataclass
class AutReport:
    generators: List[Tuple[int, ...]]
    group_size: int
    search_nodes: int
    status: str
    first_path_depth: int = 0
    refine_rounds: int = 0


# ---------------------------------------------------------------------------
# Vectorized refinement core.


class _Csr:
    """Adjacency rows of g, read from its edge array with each edge listed
    from both ends, and the buffer in which _refine ranks them. _refine
    sorts each row, so the order of neighbours within a row is free.

    mat holds one row per vertex: its own color, then its sorted neighbor
    colors plus one, then zeros up to max_deg + 1 entries. Its dtype is
    the smallest unsigned type that holds v, big-endian, so rows views
    each row as one S byte string of width * itemsize bytes, whose
    unsigned bytewise order is the lexicographic order of its entries.
    Zero entries make NUL bytes inside and at the end of a row; _refine
    says why ranking the rows as S strings is exact all the same. Every
    round writes the same cells, so the zero padding, written once here,
    stays in place.
    """

    def __init__(self, g: Graph):
        self.v = g.vertex_count
        ends = g.edge_array
        src = np.concatenate((ends[:, 0], ends[:, 1]))
        order = np.argsort(src, kind="stable")
        self.nbrs = np.concatenate((ends[:, 1], ends[:, 0]))[order]
        self.row_of = src[order]
        deg = np.bincount(src, minlength=self.v)
        self.indptr = np.zeros(self.v + 1, dtype=np.int64)
        np.cumsum(deg, out=self.indptr[1:])
        self.pos = np.arange(len(self.nbrs), dtype=np.int64) - self.indptr[self.row_of]
        self.max_deg = int(deg.max()) if self.v else 0
        self.rounds = 0
        width = self.max_deg + 1
        # Rows are contiguous in CSR order and colors are below v, so
        # sorting row*v + color sorts each row's neighbor colors in place,
        # whatever the number of colors.
        self.base = self.row_of * self.v
        # Where each neighbor entry goes in mat.reshape(-1): its row, one
        # column past its position.
        self.cells = self.row_of * width + self.pos + 1
        dtype = np.min_scalar_type(self.v).newbyteorder(">")
        self.mat = np.zeros((self.v, width), dtype=dtype)
        self.rows = self.mat.view(np.dtype(("S", width * dtype.itemsize))).reshape(-1)


def _refine(colors: np.ndarray, csr: _Csr) -> np.ndarray:
    """Coarsest stable refinement; returns dense ids in invariant order.

    colors must be dense: int64 ids 0..k-1, each held by some vertex, as
    _initial_colors and the search's child colourings are. A round gives
    each vertex the row (own color, sorted neighbor colors, -1 padding)
    and the id of that row's rank among the distinct rows, exactly the
    ids of np.unique(rows, axis=0, return_inverse=True).

    The rows are ranked as csr.rows, one argsort of byte strings. Entries
    are unsigned and big-endian, so two rows compare byte by byte as
    their entries compare in order. Neighbor entries are shifted up by
    one, so the zero padding sorts below every real entry, as -1 did,
    and a row that is a proper prefix of another still sorts first.

    numpy orders S strings by unsigned bytes and may strip trailing NULs
    before it compares them; that changes neither order nor equality
    here. Every row has the same length, and NUL is the least byte. At
    the first byte where two rows differ, the larger byte is not NUL, so
    stripping keeps it; the other row either keeps its byte there or
    ends before it, and both ways it still sorts first. Rows with equal
    bytes strip alike. So the argsort and the != below give the ranks of
    the full rows (tested against void rows and np.lexsort with numpy
    2.4.6).
    """
    v = csr.v
    if v == 0:
        return colors
    ncolors = int(colors.max()) + 1
    while ncolors < v:
        csr.rounds += 1
        key = colors[csr.nbrs] + csr.base
        key.sort()
        key -= csr.base
        key += 1
        csr.mat[:, 0] = colors
        csr.mat.reshape(-1)[csr.cells] = key
        order = csr.rows.argsort(kind="stable")
        ranked = csr.rows[order]
        step = np.empty(v, dtype=np.int64)
        step[0] = 0
        step[1:] = ranked[1:] != ranked[:-1]
        step.cumsum(out=step)
        new_n = int(step[-1]) + 1
        colors = np.empty(v, dtype=np.int64)
        colors[order] = step
        if new_n == ncolors:
            break
        ncolors = new_n
    return colors


def _initial_colors(g: Graph) -> np.ndarray:
    """g's vertex colors as dense ids in the order of the color values."""
    if g.colors is not None:
        _, inv = np.unique(np.asarray(g.colors, dtype=np.int64), return_inverse=True)
        return inv.reshape(-1).astype(np.int64)
    return np.zeros(g.vertex_count, dtype=np.int64)


def color_refine(g: Graph) -> np.ndarray:
    """Coarsest stable refinement of g's vertex colors (1-WL), as dense
    cell ids in invariant order.

    Vertices stay together only when they agree, cell by cell, on their
    neighbor counts. The IR search calls _refine directly; this entry
    point is the benchmark set-up probe's warm-up call.
    """
    return _refine(_initial_colors(g), _Csr(g))


# ---------------------------------------------------------------------------
# Individualization-refinement automorphism search.


def _orbit_closure(seed: Set[int], gens: List[Tuple[int, ...]], prefix: List[int]) -> Set[int]:
    fixers = [p for p in gens if all(p[x] == x for x in prefix)]
    if not fixers:
        return set(seed)
    seen = set(seed)
    frontier = list(seed)
    while frontier:
        x = frontier.pop()
        for p in fixers:
            y = p[x]
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return seen


def _individualized(colors: np.ndarray, w: int) -> np.ndarray:
    """The dense colouring that puts w in a cell of its own, just before
    the rest of its cell: w keeps its cell's id, and the rest of that cell
    and every later cell move up by one. These are the ids that np.unique
    gives the colouring 2c+1 with w at 2c. w's cell must hold another
    vertex."""
    cw = colors[w]
    child = colors + (colors >= cw)
    child[w] = cw
    return child


# Cell strategy -> how it picks among the non-singleton cell sizes. Both
# return the first extreme, so ties go to the cell of the lowest id.
_CELL_PICKS = {CELL_FIRST_SMALLEST: np.argmin, CELL_FIRST_LARGEST: np.argmax}


def _target_cell(colors: np.ndarray, pick) -> np.ndarray:
    sizes = np.bincount(colors)
    nonsingle = np.where(sizes > 1)[0]
    best = nonsingle[pick(sizes[nonsingle])]
    return np.where(colors == best)[0]


def ir_automorphisms(
    g: Graph,
    max_nodes: Optional[int] = None,
    cell_strategy: str = CELL_FIRST_SMALLEST,
) -> AutReport:
    """Automorphism generators and exact group size via IR search.

    The report carries no orbit partition; the orbits are those of the
    group the generators generate.

    search_nodes counts backtrack-tree nodes and is the hardness
    statistic; it is deterministic for a fixed input and strategy.
    max_nodes, when set, bounds the node count; there is no time limit.
    On exhaustion the report is flagged TIMEOUT with search_nodes ==
    max_nodes + 1 and carries whatever was found, and group_size is then
    a lower bound.
    first_path_depth counts the levels of the leftmost path and
    refine_rounds the refinement rounds of the whole search, the root
    refinement included.
    """
    pick = _CELL_PICKS.get(cell_strategy)
    if pick is None:
        raise ValueError(f"unknown cell strategy {cell_strategy!r}")
    v = g.vertex_count
    if v == 0:
        return AutReport([], 1, 0, STATUS_COMPLETE)
    csr = _Csr(g)
    nodes = 0
    gens: List[Tuple[int, ...]] = []
    first_leaf: Optional[np.ndarray] = None
    left: List[int] = []  # vertex individualized at each level of the leftmost path

    def node(colors: np.ndarray, prefix: List[int], is_left: bool):
        """One search node; it returns whether its subtree found an
        automorphism, and is sent that verdict for each child it yields."""
        nonlocal nodes, first_leaf, left
        if is_left:
            left = prefix
        nodes += 1
        if max_nodes is not None and nodes > max_nodes:
            raise BudgetExceededError
        if int(colors.max()) + 1 == v:
            order = np.argsort(colors)
            if is_left:
                first_leaf = order
                return False
            # Refinement keeps the order of cells and puts the vertex it
            # individualizes first in its cell, so two leaves of one search
            # never order the vertices alike: no candidate is the identity
            # or a generator found before.
            perm = np.empty(v, dtype=np.int64)
            perm[first_leaf] = order
            cand = tuple(perm.tolist())
            if is_automorphism(g, cand):
                gens.append(cand)
                return True
            return False
        cell = _target_cell(colors, pick).tolist()
        covered: Set[int] = set()
        found = False
        for w in cell:
            if w in covered:
                continue
            child_found = yield (_refine(_individualized(colors, w), csr), prefix + [w],
                                 is_left and w == cell[0])
            # Off the leftmost path a subtree unwinds at its first automorphism.
            if child_found and not is_left:
                return True
            found = found or child_found
            covered = _orbit_closure(covered | {w}, gens, prefix)
        return found

    # Depth-first over a stack of suspended nodes, so that deep searches
    # need no Python recursion.
    status = STATUS_COMPLETE
    stack = [node(_refine(_initial_colors(g), csr), [], True)]
    result = None  # what the top node is sent: None to start it, else its child's verdict
    try:
        while stack:
            try:
                stack.append(node(*stack[-1].send(result)))
                result = None
            except StopIteration as stop:
                stack.pop()
                result = stop.value
    except BudgetExceededError:
        status = STATUS_TIMEOUT
    # |Aut| = product over the leftmost path of |orbit of w_i| under the
    # stabilizer of w_0..w_{i-1}. On TIMEOUT the generators found so far
    # give smaller orbits, so the product is a lower bound.
    order = 1
    for i, w in enumerate(left):
        order *= len(_orbit_closure({w}, gens, left[:i]))
    return AutReport(gens, order, nodes, status,
                     first_path_depth=len(left), refine_rounds=csr.rounds)


# ---------------------------------------------------------------------------
# Exact k-local consistency of a formula (existential pebble game).


def _estimated_states(n: int, k: int) -> int:
    return sum(math.comb(n, j) * (1 << j) for j in range(min(k, n) + 1))


# Most row words one pair test of the closure holds at once (batch rows
# times derived rows times words per row); it bounds memory, never the
# verdict.
_PAIR_CHUNK = 1 << 18


def _pack_words(rows: Sequence[int], words: int) -> np.ndarray:
    """Parity rows as a (len(rows), words) uint64 array, bit j of a row
    at bit j % 64 of word j // 64."""
    low = (1 << 64) - 1
    return np.array([[r >> (64 * w) & low for w in range(words)] for r in rows],
                    dtype=np.uint64).reshape(len(rows), words)


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """One sortable scalar per packed row, equal exactly when the rows are."""
    if rows.shape[1] == 1:
        return rows[:, 0]
    return np.ascontiguousarray(rows).view(np.dtype((np.void, rows.shape[1] * 8)))[:, 0]


def local_consistency(
    f: Union[XorFormula, PinnedSystem],
    k: int,
    max_states: int = 2_000_000,
) -> bool:
    """Whether the assignment game on f admits endless consistent play.

    f is affine, so the game is decided by a width-bounded xor closure
    (Atserias, Bulatov & Dawar 2009). Start from the constraint rows on
    at most k variables and xor any two derived rows that share a
    variable and together touch at most k variables; play is endless
    exactly when 0 = 1 is never derived. A row holds its right-hand side
    at bit n, so 0 = 1 is the row 1 << n.

    This is exact. The game's greatest family is closed under the
    Mal'tsev operation x^y^z, so its survivors on each set V of at most
    k variables are the solutions of a span of parity rows on V, and the
    game is lost once some span holds 0 = 1. The spans are the fixpoint
    of restriction and extension, and every xor that builds them joins
    two rows that share a variable inside one V: basis reduction shares
    the lowest bit, and eliminating a variable shares that variable. The
    closure performs each such xor, so it derives every row of every
    span, and each xor it performs stays inside one V, where the spans
    perform it too, so it derives nothing more.

    The closure is a fixpoint, so the order in which pairs meet is free,
    and it runs in numpy batches. A row is n // 64 + 1 uint64 words, its
    right-hand side at bit n. Each step takes every pending row of the
    least width and tests it against every row derived before it at once
    (supports AND to nonzero, OR to at most k bits), in chunks of at most
    _PAIR_CHUNK row words. It xors the pairs that pass and keeps the rows
    not seen before, looked up in one sorted array of row keys. Two
    distinct rows on the same variables xor to 0 = 1, which ends the
    closure, so a refuted pin usually stops before any wide rows meet.
    max_states bounds the size of the assignment game, not this work, so
    that the same calls are refused as by an enumerating checker.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    n = f.n
    keff = min(k, n)
    est = _estimated_states(n, keff)
    if est > max_states:
        raise BudgetExceededError(f"about {est} game states exceed the budget of {max_states}")

    words = n // 64 + 1
    variables = ~_pack_words([1 << n], words)[0]  # every bit but the right-hand side
    todo = _pack_words(to_matrix(f), words)
    todo_wid = np.bitwise_count(todo & variables).sum(axis=1, dtype=np.int64)
    todo, todo_wid = todo[todo_wid <= keff], todo_wid[todo_wid <= keff]
    seen = np.sort(_row_keys(todo))  # a formula's rows are distinct
    done = todo[:0]
    done_sup = todo[:0]
    done_wid = todo_wid[:0]
    while len(todo):
        least = todo_wid == todo_wid.min()
        batch, batch_wid = todo[least], todo_wid[least]
        found = [(todo[~least], todo_wid[~least])]
        base = len(done)
        done = np.concatenate((done, batch))
        done_sup = np.concatenate((done_sup, batch & variables))
        done_wid = np.concatenate((done_wid, batch_wid))
        step = max(1, _PAIR_CHUNK // (len(done) * words))
        for lo in range(0, len(batch), step):
            hi = min(lo + step, len(batch))
            # Batch row p meets the rows derived before it, as if the
            # batch rows had been derived one at a time.
            end = base + hi
            meet = np.bitwise_count(done_sup[base + lo:end, None] & done_sup[None, :end]).sum(
                axis=2, dtype=np.int64)
            width = batch_wid[lo:hi, None] + done_wid[None, :end] - 2 * meet
            earlier = np.arange(end) < np.arange(base + lo, end)[:, None]
            i, j = np.nonzero(earlier & (meet > 0) & (width + meet <= keff))
            if not len(i):
                continue
            width = width[i, j]
            if not width.all():
                return False  # two distinct rows on the same variables
            rows = batch[lo + i] ^ done[j]
            keys, first = np.unique(_row_keys(rows), return_index=True)
            at = np.searchsorted(seen, keys)
            fresh = seen[np.minimum(at, len(seen) - 1)] != keys
            seen = np.insert(seen, at[fresh], keys[fresh])
            found.append((rows[first[fresh]], width[first[fresh]]))
        todo, todo_wid = (np.concatenate(parts) for parts in zip(*found))
    return True
