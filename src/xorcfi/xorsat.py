"""Instrumented DPLL over the nonzero-solution query of an XOR system.

The query is the system's parity rows plus the clause "some variable is
1": satisfiable exactly when a homogeneous system has a nonzero
solution. The solver is deliberately plain: chronological backtracking,
no clause learning, no restarts. Branching picks the variable with the
most occurrences in the shortest active constraints, ties broken by
variable index, and tries value 0 before 1, so runs are deterministic
and the decision count is a machine-independent cost.

The counts are those of that depth-first search, computed without
enumerating its nodes. Which rows turn unit, the last-in, first-out
order of the units and the branch pick depend only on which variables
are assigned, never on their values. So every node at one depth of the tree
has the same variables assigned, and the search runs one propagation
pass per depth. Each value in it is a GF(2) linear form in the
decisions above, a Python int with bit d for decision d. A row whose
variables are all assigned, or a unit whose variable has a value,
yields a relation among the decisions. A node survives the pass when
its decisions meet every relation, and stops at the first one they
violate. The live nodes of a depth form a subspace, so the nodes that
stop at each relation are counted from ranks. Only a relation that adds
rank to those before it stops any node, and at most one per decision
does. Decisions, propagations and conflicts are sums of subspace sizes.
A budget cut or a SAT leaf is found by walking the tree in search
order, value 0 before 1, with whole subtrees counted the same way.

The clause acts only on the all-zero path, the one node per depth
where no variable is 1. Every variable there is 0, so no active row is
shorter than the clause, and a clause as short as the shortest rows
ties every free variable: the pick is the rows' pick. The clause queues
a unit only when one variable is left free, and that ends the path at
that depth. So the tree's depth and variable order are those of the
all-zero path. Its pass keeps the clause's length live; its values are
the forms' constant terms (bit 0), which only the clause's unit sets.
At the last depth every other node sees a satisfied clause, and their
pass runs again without it. If no row is active on the all-zero path,
the other nodes at that depth are SAT leaves, and the path, first in
search order, goes on through the clause's picks and ends SAT.

The branch pick reads the all-zero path's assignment bytes through
numpy. Before its first pick the solver lays the XOR rows out as the
columns of one array, padded with the phantom variable 0, which is
never free. Each pick is one gather over it, a row-length sum and one
bincount of the shortest rows' free variables. Propagation keeps no
state per XOR row: each variable lists, per row it occurs in, the row's
other variables, and assigning it reads their forms. A row of 1, 2 or 3
variables reads exactly two, the phantom padding the short ones; only
the rank-deficient rows of a Gauss presolve are longer, and carry their
further variables in the same entry. A run that propagation refutes at
level 0, like every Gauss-side refutation, builds neither the array
nor a relation.

With use_gauss the XOR rows are eliminated up front over GF(2); a
full-rank system turns into unit rows that set every variable to 0 at
level 0, where the clause refutes it with 0 decisions. That is the cost
gap against the plain run, so gauss_ratio reads it off the plain run
alone and never presolves.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .formula import XorFormula, to_matrix
from .gf2 import reduced_system

SAT = "SAT"
UNSAT = "UNSAT"
BUDGET_EXHAUSTED = "BUDGET_EXHAUSTED"

UNASSIGNED = 0xFF  # the value byte of a variable without a value
ONE = 1  # the constant term of a form; bit d >= 1 is decision d

# An XOR row seen from one of its variables: two other variables (the
# phantom 0 where the row has fewer) and the row's further variables.
XorEntry = Tuple[int, int, Tuple[int, ...]]

# A relation that adds rank: its row reduced by those before it, the
# row's highest decision and the propagations of the pass before it.
_Relation = Tuple[int, int, int]


class NonzeroQuery(NamedTuple):
    """The rows of a homogeneous system over variables 1..n as gf2 packs
    them, no bit at n or above, plus the clause "some variable is 1"."""

    n: int
    rows: Tuple[int, ...]


@dataclass
class SolveStats:
    result: str
    decisions: int
    propagations: int
    conflicts: int
    elapsed: float
    model: Optional[Tuple[int, ...]] = None


class _Solver:
    """One-shot DPLL run over one nonzero-solution query, one
    propagation pass per depth of its search tree."""

    def __init__(self, n: int, rows: Sequence[int]):
        """rows are homogeneous rows as gf2 packs them (bit j is variable
        j+1); each is kept as its variables in ascending order.

        form holds each variable's value as a form, None if unassigned,
        and assign the all-zero path's values, UNASSIGNED if none.
        clause_len is the length of the clause "some variable is 1" on
        that path: its unassigned variables while none is 1, else 0."""
        self.n = n
        self.xors: List[Tuple[int, ...]] = []
        for row in rows:
            vs = []
            while row:
                low = row & -row
                vs.append(low.bit_length())
                row ^= low
            self.xors.append(tuple(vs))

        # Index 0 is a phantom variable fixed at 0; numpy reads assign in place.
        self.form: List[Optional[int]] = [None] * (n + 1)
        self.form[0] = 0
        self.assign = bytearray([UNASSIGNED]) * (n + 1)
        self.assign[0] = 0
        self.clause_len = n
        # The entry of a row at each of its variables holds the row's
        # other variables, as (first, second, rest). The phantom 0 pads a
        # row of fewer than 3 variables and gets no entries; only rows of
        # more than 3 have a rest.
        self.occ_xor: List[List[XorEntry]] = [[] for _ in range(n + 1)]
        for vs in self.xors:
            if len(vs) > 3:
                for i, v in enumerate(vs):
                    others = vs[:i] + vs[i + 1:]
                    self.occ_xor[v].append((others[0], others[1], others[2:]))
                continue
            x, y, z = (vs + (0, 0))[:3]
            self.occ_xor[x].append((y, z, ()))
            if y:
                self.occ_xor[y].append((x, z, ()))
            if z:
                self.occ_xor[z].append((x, y, ()))

        self.trail: List[int] = []  # the assigned variables, in order
        # Each relation kept, by its highest decision; and per depth from
        # level 0, the relations kept from its pass and its propagations.
        self.pivots: Dict[int, int] = {}
        self.passes: List[Tuple[List[_Relation], int]] = []

        self.decisions = 0
        self.propagations = 0
        self.conflicts = 0

    # -- propagation ---------------------------------------------------------

    def _propagate(self, pending: List[Tuple[int, int]]
                   ) -> Tuple[int, bool, List[Tuple[int, int]]]:
        """Assign pending (var, form) pairs to fixpoint, last in, first
        out; return the propagations, whether the all-zero path lives and
        the relations found, each with the propagations before it.

        Each assignment first updates the clause's length, then reads the
        forms of the other variables of each XOR row it occurs in. It
        queues the last free entry of each constraint it leaves unit, at
        the form that makes it hold: the clause's lowest unassigned
        variable first, then XOR rows in occurrence order. A relation
        with a constant term is violated on the all-zero path, which
        stops there.
        """
        form, assign, occ_xor, trail = self.form, self.assign, self.occ_xor, self.trail
        clause_len = self.clause_len
        count = 0
        found = []
        queue = list(pending)
        while queue:
            var, value = queue.pop()
            held = form[var]
            if held is not None:
                held ^= value
                if held & ONE:
                    return count, False, found
                if held:
                    found.append((held, count))
                continue
            form[var] = value
            assign[var] = value & ONE
            trail.append(var)
            if clause_len:
                if value & ONE:
                    clause_len = 0
                else:
                    clause_len -= 1
                    if not clause_len:
                        return count, False, found
                    if clause_len == 1:
                        queue.append((assign.index(UNASSIGNED, 1), ONE))
            for a, b, rest in occ_xor[var]:
                if rest:
                    row = (a, b) + rest
                    free = [u for u in row if form[u] is None]
                    if len(free) > 1:
                        continue
                    parity = value
                    for u in row:
                        if form[u] is not None:
                            parity ^= form[u]
                    if free:
                        queue.append((free[0], parity))
                        continue
                else:
                    fa = form[a]
                    fb = form[b]
                    if fa is None:
                        if fb is not None:
                            queue.append((a, value ^ fb))
                        continue
                    if fb is None:
                        queue.append((b, value ^ fa))
                        continue
                    parity = value ^ fa ^ fb
                if parity & ONE:
                    return count, False, found
                if parity:
                    found.append((parity, count))
            count += 1
        self.clause_len = clause_len
        return count, True, found

    def _keep(self, found: List[Tuple[int, int]], depth: int) -> List[_Relation]:
        """The relations of the pass at depth that add rank, in order,
        each reduced by those kept before it. Once the rank is depth,
        only the all-zero node meets them all and the rest add none."""
        pivots = self.pivots
        kept = []
        for row, count in found:
            if len(pivots) == depth:
                break
            while row:
                top = row.bit_length() - 1
                held = pivots.get(top)
                if held is None:
                    pivots[top] = row
                    kept.append((row, top, count))
                    break
                row ^= held
        return kept

    # -- branching -----------------------------------------------------------

    def _row_columns(self) -> np.ndarray:
        """The XOR rows as the columns of a (width, rows) array of their
        variables, padded with the phantom 0."""
        width = max((len(vs) for vs in self.xors), default=0)
        padded = [vs + (0,) * (width - len(vs)) for vs in self.xors]
        return np.array(padded, dtype=np.intp).reshape(len(padded), width).T.copy()

    def _pick_branch_var(self, cols: np.ndarray, values: np.ndarray) -> Optional[int]:
        """Most occurrences among the shortest active constraints.

        cols holds the XOR rows as _row_columns lays them out and values
        views assign. A constraint's length is its count of unassigned
        variables; it is active while that is positive and, for the
        clause, no variable is 1. Each variable scores one per active
        constraint of the least length that it is free in; argmax returns
        the first maximum, so ties go to the lower index.
        """
        free = values[cols] == UNASSIGNED
        length = free.sum(axis=0, dtype=np.int32)  # not a byte: rows run to n variables
        best = int(length.min(where=length > 0, initial=self.n + 1))  # n + 1: none active
        clause = self.clause_len  # 0: inactive
        if 0 < clause < best:
            return self.assign.index(UNASSIGNED, 1)
        if best > self.n:
            return None
        scores = np.bincount(np.compress((free & (length == best)).ravel(), cols),
                             minlength=self.n + 1)
        if clause == best:
            scores += values == UNASSIGNED
        return int(scores.argmax())

    # -- the tree ------------------------------------------------------------

    def _model(self, node: int) -> Tuple[int, ...]:
        """The forms evaluated at node, a vector with bit d for decision d
        and ONE for the constant; unassigned variables read 0."""
        return tuple((f & node).bit_count() & 1 if f is not None else 0 for f in self.form[1:])

    def _attempt(self, node: int, depth: int) -> bool:
        """Count the pass of node at depth, whose parent lives: up to the
        first relation it violates, a conflict, or the whole pass."""
        found, count = self.passes[depth]
        for row, _, at in found:
            if (row & node).bit_count() & 1:
                self.propagations += at
                self.conflicts += 1
                return False
        self.propagations += count
        return True

    def _subtree(self, node: int, depth: int) -> Tuple[int, int, int, bool]:
        """Decisions, propagations and conflicts of the whole subtree
        below the live node at depth, node included, and whether it holds
        a SAT leaf; node is off the all-zero path and depth is not last.

        Among the nodes at a deeper depth under node, those that meet the
        relations kept so far number 2^free: a relation whose highest
        decision lies deeper than node halves them, and one over node's
        own decisions alone keeps all or, if node violates it, none."""
        decisions, propagations, conflicts = 1, 0, 0
        last = len(self.passes) - 1
        free = 0
        for d in range(depth + 1, last + 1):
            found, count = self.passes[d]
            free += 1
            for row, top, at in found:
                if top > depth:
                    free -= 1
                    lost = 1 << free
                elif (row & node).bit_count() & 1:
                    lost = 1 << free
                    return decisions, propagations + at * lost, conflicts + lost, False
                else:
                    continue
                propagations += at * lost
                conflicts += lost
            propagations += count << free
            if d < last:
                decisions += 1 << free
        return decisions, propagations, conflicts, True

    def _walk(self, max_decisions: Optional[int]) -> Tuple[str, Optional[Tuple[int, ...]]]:
        """The search after the all-zero path's last node conflicts: the
        subtrees of that path's value-1 children, deepest first, each
        counted whole unless it holds a SAT leaf or the budget ends in
        it."""
        last = len(self.passes) - 1
        todo = [(ONE | 1 << d, d) for d in range(1, last + 1)]
        while todo:
            node, depth = todo.pop()
            if not self._attempt(node, depth):
                continue
            if depth == last:
                return SAT, self._model(node)
            decisions, propagations, conflicts, sat = self._subtree(node, depth)
            if not sat and (max_decisions is None or self.decisions + decisions <= max_decisions):
                self.decisions += decisions
                self.propagations += propagations
                self.conflicts += conflicts
                continue
            if max_decisions is not None and self.decisions >= max_decisions:
                return BUDGET_EXHAUSTED, None
            self.decisions += 1
            todo += [(node | 1 << depth + 1, depth + 1), (node, depth + 1)]
        return UNSAT, None

    # -- search --------------------------------------------------------------

    def run(self, max_decisions: Optional[int], start: float) -> SolveStats:
        def make_stats(result: str, model=None) -> SolveStats:
            return SolveStats(result, self.decisions, self.propagations, self.conflicts,
                              time.monotonic() - start, model)

        # Level-0 units: the clause over one variable, then the rows of
        # one, which set it to 0. Every row has a variable: formula rows
        # have 3, and reduced_system drops zero rows.
        units = [(1, ONE)] if self.n == 1 else []
        units += [(vs[0], 0) for vs in self.xors if len(vs) == 1]
        count, ok, _ = self._propagate(units)  # values are constants: no relation
        self.propagations += count
        if not ok:
            self.conflicts += 1
            return make_stats(UNSAT)
        self.passes.append(([], count))

        # Down the all-zero path, one pass per depth, until its node
        # conflicts or is a SAT leaf.
        cols = self._row_columns()
        values = np.frombuffer(self.assign, dtype=np.uint8)
        while True:
            var = self._pick_branch_var(cols, values)
            if var is None:
                return make_stats(SAT, self._model(ONE))
            if max_decisions is not None and self.decisions >= max_decisions:
                return make_stats(BUDGET_EXHAUSTED)
            self.decisions += 1
            depth = len(self.passes)
            mark = len(self.trail)
            count, ok, found = self._propagate([(var, 1 << depth)])
            self.propagations += count
            if not ok:
                break
            self.passes.append((self._keep(found, depth), count))

        # The last depth: the other nodes see a satisfied clause. Undo
        # the pass and run it again without the clause.
        self.conflicts += 1
        for v in self.trail[mark:]:
            self.form[v] = None
            self.assign[v] = UNASSIGNED
        del self.trail[mark:]
        self.clause_len = 0
        count, _, found = self._propagate([(var, 1 << depth)])
        self.passes.append((self._keep(found, depth), count))
        return make_stats(*self._walk(max_decisions))


def _verify_model(query: NonzeroQuery, model: Sequence[int]) -> bool:
    """The model is nonzero and has even parity on every row."""
    x = sum(value << j for j, value in enumerate(model))
    return x != 0 and not any((row & x).bit_count() & 1 for row in query.rows)


def solve(query: NonzeroQuery, use_gauss: bool = False,
          max_decisions: Optional[int] = None) -> SolveStats:
    """Decide the nonzero-solution query; stats carry the decision cost.

    A row with a right-hand side (a bit at n or above) is a ValueError.
    With use_gauss the rows are first replaced by their reduced echelon
    form, homogeneous too; DPLL then works on the clause plus the
    reduced rows. max_decisions, when set, stops the search with
    BUDGET_EXHAUSTED before its next decision; elapsed covers the
    elimination.
    """
    start = time.monotonic()
    rows = query.rows
    if any(row >> query.n for row in rows):
        raise ValueError("the nonzero-solution query takes homogeneous rows only")
    if use_gauss:
        rows = reduced_system(rows, query.n)
    stats = _Solver(query.n, rows).run(max_decisions, start)
    if stats.result == SAT and not _verify_model(query, stats.model):
        raise AssertionError("the SAT model fails the query")
    return stats


def nontrivial_query(f: XorFormula) -> NonzeroQuery:
    """The rows of f plus the clause "some variable is 1".

    Satisfiable exactly when the homogeneous f, over at least one
    variable, has a nonzero solution. The pure-CNF expansion, 4 parity
    clauses per row, is a test oracle in tests/oracles.py.
    """
    if not f.is_homogeneous:
        raise ValueError("nonzero-solution query is defined for homogeneous formulas")
    if not f.n:
        raise ValueError("nonzero-solution query needs at least one variable")
    return NonzeroQuery(f.n, to_matrix(f))


@dataclass(frozen=True)
class GaussGap:
    """Decision-cost gap of the plain run over the Gauss-presolved one."""

    ratio: float
    plain: SolveStats


def gauss_ratio(f: XorFormula, max_decisions: Optional[int] = None) -> GaussGap:
    """cost(no gauss) / cost(gauss) on the nonzero-solution query for f.

    Cost is the decision count. On a full-rank f the presolved run
    refutes at level 0 with 0 decisions, so only the plain run is made:
    a refutation after d decisions scores max(d, 1), and a run that
    exhausts its budget scores +inf (the strongest accept signal). A
    satisfiable query has no gap and scores nan.
    """
    plain = solve(nontrivial_query(f), max_decisions=max_decisions)
    if plain.result == BUDGET_EXHAUSTED:
        ratio = float("inf")
    elif plain.result == SAT:
        ratio = float("nan")
    else:
        ratio = float(max(plain.decisions, 1))
    return GaussGap(ratio, plain)
