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
A SAT leaf is found by walking the tree in search order, value 0 before
1: a subtree without one is counted whole the same way, and the walk
descends only along the path to the first. So the run is polynomial in
n, takes no decision budget and always decides.

The clause acts only on the all-zero path, the one node per depth
where no variable is 1. It holds every free variable there, so no
active row is longer than the clause: while a row is active the
clause's scores, one per free variable, leave the rows' pick as it is,
and with none active the pick is its lowest free variable. It queues
a unit only when one variable is left free, and that ends the path at
that depth. So the tree's depth and variable order are those of the
all-zero path. Its pass keeps the clause's length live; its values are
the forms' constant terms (bit 0), which only the clause's unit sets.
At the last depth every other node sees a satisfied clause, and their
pass runs again without it. If no row is active on the all-zero path,
the other nodes at that depth are SAT leaves, and the path, first in
search order, goes on through the clause's picks and ends SAT.

The rows are the formula's variable triples, and solve refuses any
other row. The branch pick reads the all-zero path's assignment bytes
through numpy. Before its first pick the solver lays the triples out
as the columns of one (3, rows) array. Each pick is one gather over
it, a row-length sum and one bincount of the shortest rows' free
variables. Propagation keeps no state per XOR row: each variable
lists, per row it occurs in, the row's other two variables, and
assigning it reads their forms. The only level-0 unit is the clause
over one variable, which never conflicts.

With use_gauss the presolve is a rank check over GF(2): solve takes
only a full-rank system, whose reduced echelon form is the n unit rows,
and returns DPLL's counts on those in closed form. A full-rank system
of triples has n >= 3, so the clause is no unit at level 0. Taken last
in, first out, the unit rows set variables n down to 2 to 0, n - 1
propagations; the clause then queues variable 1 at 1, and its unit row
refutes that before the propagation counts. So the run is UNSAT with 0
decisions, n - 1 propagations and 1 conflict. That is the cost gap
against the plain run, so gauss_ratio reads it off the plain run alone
and never presolves. The search over the longer reduced rows of a
rank-deficient system is a test oracle in tests/oracles.py.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .formula import XorFormula, has_full_rank

SAT = "SAT"
UNSAT = "UNSAT"

UNASSIGNED = 0xFF  # the value byte of a variable without a value
ONE = 1  # the constant term of a form; bit d >= 1 is decision d

# An XOR row seen from one of its variables: its two other variables.
XorEntry = Tuple[int, int]

# A relation that adds rank: its row reduced by those before it, the
# row's highest decision and the propagations of the pass before it.
_Relation = Tuple[int, int, int]


class NonzeroQuery(NamedTuple):
    """The rows of a homogeneous system over variables 1..n, each a
    strictly increasing variable triple, plus the clause "some variable
    is 1"."""

    n: int
    rows: Tuple[Tuple[int, int, int], ...]


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

    def __init__(self, n: int, rows: Sequence[Tuple[int, int, int]]):
        """rows are homogeneous rows as strictly increasing variable
        triples of 1..n.

        form holds each variable's value as a form, None if unassigned,
        and assign the all-zero path's values, UNASSIGNED if none.
        clause_len is the length of the clause "some variable is 1" on
        that path: its unassigned variables while none is 1, else 0."""
        self.n = n
        self.xors = rows

        # Index 0 is an unused slot; numpy reads assign in place.
        self.form: List[Optional[int]] = [None] * (n + 1)
        self.assign = bytearray([UNASSIGNED]) * (n + 1)
        self.clause_len = n
        # The entry of a row at each of its variables holds the row's
        # other two.
        self.occ_xor: List[List[XorEntry]] = [[] for _ in range(n + 1)]
        for x, y, z in rows:
            self.occ_xor[x].append((y, z))
            self.occ_xor[y].append((x, z))
            self.occ_xor[z].append((x, y))

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
            for a, b in occ_xor[var]:
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
        """The XOR rows as the columns of a (3, rows) array of their
        variables."""
        return np.array(self.xors, np.intp).reshape(-1, 3).T.copy()

    def _pick_branch_var(self, cols: np.ndarray, values: np.ndarray) -> Optional[int]:
        """Most occurrences among the shortest active constraints.

        cols holds the XOR rows as _row_columns lays them out and values
        views assign. A constraint's length is its count of unassigned
        variables; it is active while that is positive and, for the
        clause, no variable is 1. Each variable scores one per active
        constraint of the least length that it is free in; argmax returns
        the first maximum, so ties go to the lower index. The clause
        changes the pick only when no row is active (module docstring).
        """
        free = values[cols] == UNASSIGNED
        length = free.sum(axis=0)
        best = int(length.min(where=length > 0, initial=4))  # 4: no row active
        if best == 4:
            return self.assign.index(UNASSIGNED, 1) if self.clause_len else None
        scores = np.bincount(np.compress((free & (length == best)).ravel(), cols),
                             minlength=self.n + 1)
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

    def _walk(self) -> Tuple[str, Optional[Tuple[int, ...]]]:
        """The search after the all-zero path's last node conflicts: the
        subtrees of that path's value-1 children, deepest first, each
        counted whole unless it holds a SAT leaf."""
        last = len(self.passes) - 1
        todo = [(ONE | 1 << d, d) for d in range(1, last + 1)]
        while todo:
            node, depth = todo.pop()
            if not self._attempt(node, depth):
                continue
            if depth == last:
                return SAT, self._model(node)
            decisions, propagations, conflicts, sat = self._subtree(node, depth)
            if not sat:
                self.decisions += decisions
                self.propagations += propagations
                self.conflicts += conflicts
                continue
            self.decisions += 1
            todo += [(node | 1 << depth + 1, depth + 1), (node, depth + 1)]
        return UNSAT, None

    # -- search --------------------------------------------------------------

    def run(self, start: float) -> SolveStats:
        def make_stats(result: str, model=None) -> SolveStats:
            return SolveStats(result, self.decisions, self.propagations, self.conflicts,
                              time.monotonic() - start, model)

        # The one level-0 unit: the clause over one variable, where no
        # triple fits. It keeps no relation and never conflicts.
        count = self._propagate([(1, ONE)])[0] if self.n == 1 else 0
        self.propagations += count
        self.passes.append(([], count))

        # Down the all-zero path, one pass per depth, until its node
        # conflicts or is a SAT leaf.
        cols = self._row_columns()
        values = np.frombuffer(self.assign, dtype=np.uint8)
        while True:
            var = self._pick_branch_var(cols, values)
            if var is None:
                return make_stats(SAT, self._model(ONE))
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
        return make_stats(*self._walk())


def _verify_model(query: NonzeroQuery, model: Sequence[int]) -> bool:
    """The model is nonzero and has even parity on every row."""
    return any(model) and not any(model[a - 1] ^ model[b - 1] ^ model[c - 1]
                                  for a, b, c in query.rows)


def solve(query: NonzeroQuery, use_gauss: bool = False) -> SolveStats:
    """Decide the nonzero-solution query; stats carry the decision cost.

    The query needs at least one variable, and each row must be 3
    strictly increasing variables of 1..n; anything else is a
    ValueError, before any presolve. With use_gauss the rows must have
    rank n over GF(2), or that is a ValueError too; the counts are then
    those of DPLL on the clause plus the n unit rows, the reduced
    echelon form of every full-rank system, in closed form (module
    docstring). elapsed covers the rank check. The run always decides:
    its result is SAT or UNSAT, with the counts of the whole search up
    to its end.
    """
    start = time.monotonic()
    n, rows = query
    if n < 1:
        raise ValueError("the nonzero-solution query needs at least one variable")
    if not all(len(row) == 3 and 0 < row[0] < row[1] < row[2] <= n for row in rows):
        raise ValueError("the DPLL solver takes rows of 3 strictly increasing "
                         "variables of 1..n only")
    if use_gauss:
        if not has_full_rank(n, rows):
            raise ValueError("the Gauss presolve takes full-rank queries only")
        return SolveStats(UNSAT, 0, n - 1, 1, time.monotonic() - start)
    stats = _Solver(n, rows).run(start)
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
    return NonzeroQuery(f.n, tuple(cl.vars for cl in f.clauses))


def gauss_ratio(f: XorFormula) -> float:
    """cost(no gauss) / cost(gauss) on the nonzero-solution query for f.

    Cost is the decision count. On a full-rank f the presolved run
    refutes at level 0 with 0 decisions, so only the plain run is made:
    a refutation after d decisions scores float(max(d, 1)), exact while
    d is below 2^53 and the nearest double above. A satisfiable query
    has no gap and scores nan.
    """
    plain = solve(nontrivial_query(f))
    return float(max(plain.decisions, 1)) if plain.result == UNSAT else float("nan")
