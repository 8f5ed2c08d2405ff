"""Instrumented DPLL over the nonzero-solution query of an XOR system.

The query is the system's parity rows plus the clause "some variable is
1": satisfiable exactly when a homogeneous system has a nonzero
solution. The solver is deliberately plain: chronological backtracking,
no clause learning, no restarts. Branching picks the variable with the
most occurrences in the shortest active constraints, ties broken by
variable index, and tries value 0 before 1, so runs are deterministic
and the decision count is a machine-independent cost.

The rows are homogeneous, so a row holds exactly when its variables
have even parity. Propagation keeps the clause's length and no state
per XOR row. Each variable lists, per row it occurs in, the row's other
variables; assigning the variable reads their values, and a row left
with one of them unassigned queues that one as a unit. Variable 0 is a
phantom fixed at 0, so a row of 1, 2 or 3 variables reads exactly two
values; only the rank-deficient rows of a Gauss presolve are longer,
and carry their further variables in the same entry. Units are taken
last in, first out. A decision saves the assignment bytes alone, and a
backtrack restores them in one step.

The branch pick reads the assignment bytes through numpy. Before its
first pick the solver lays the XOR rows out as the columns of one
array, padded with the phantom 0, which is never free; each pick is one
gather over it, a row-length sum and one bincount of the shortest
rows' free variables, not a Python rescan of every row. The clause
stays out of the array: its length is the count that propagation
keeps. A run that propagation refutes at level 0, like every Gauss-side
refutation, never builds the array.

With use_gauss the XOR rows are eliminated up front over GF(2); a
full-rank system turns into unit rows that set every variable to 0 at
level 0, where the clause refutes it. This is where the cost gap
against the plain run comes from.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .formula import XorFormula, to_matrix
from .gf2 import reduced_system

SAT = "SAT"
UNSAT = "UNSAT"
BUDGET_EXHAUSTED = "BUDGET_EXHAUSTED"

UNASSIGNED = 0xFF  # the value byte of a variable without a value

# An XOR row seen from one of its variables: two other variables (the
# phantom 0 where the row has fewer) and the row's further variables.
XorEntry = Tuple[int, int, Tuple[int, ...]]


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
    """One-shot DPLL instance over one nonzero-solution query."""

    def __init__(self, n: int, rows: Sequence[int]):
        """rows are homogeneous rows as gf2 packs them (bit j is variable
        j+1); each is kept as its variables in ascending order.

        clause_len is the length of the clause "some variable is 1": its
        unassigned variables while none is 1, else 0. No snapshot holds
        it: the search tries 0 before 1, so a backtrack first assigns 1
        and the clause stays satisfied for the rest of the run."""
        self.n = n
        self.xors: List[Tuple[int, ...]] = []
        for row in rows:
            vs = []
            while row:
                low = row & -row
                vs.append(low.bit_length())
                row ^= low
            self.xors.append(tuple(vs))

        # Value of each variable, UNASSIGNED if none; numpy reads it in
        # place. Index 0 is a phantom variable fixed at 0.
        self.assign = bytearray([UNASSIGNED]) * (n + 1)
        self.assign[0] = 0
        self.clause_len = n
        # XOR rows keep no state: the entry of a row at each of its
        # variables holds the row's other variables, as (first, second,
        # rest). The phantom 0 pads a row of fewer than 3 variables and
        # gets no entries; only rows of more than 3 have a rest.
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

        self.decisions = 0
        self.propagations = 0
        self.conflicts = 0

    # -- propagation ---------------------------------------------------------

    def _propagate(self, pending: List[Tuple[int, int]]) -> bool:
        """Assign pending (var, value) pairs to fixpoint; False on conflict.

        Each assignment first updates the clause's length, then reads the
        values of the other variables of each XOR row it occurs in. It
        queues the last free entry of each constraint it leaves unit, at
        the value that makes it hold: the clause's lowest unassigned
        variable first, then XOR rows in occurrence order. On a conflict
        the state is left as it is; the caller restores a snapshot.
        """
        assign, occ_xor = self.assign, self.occ_xor
        clause_len = self.clause_len
        queue = list(pending)
        while queue:
            var, value = queue.pop()
            if assign[var] != UNASSIGNED:
                if assign[var] != value:
                    self.conflicts += 1
                    return False
                continue
            assign[var] = value
            if value:
                clause_len = 0
            elif clause_len:
                clause_len -= 1
                if not clause_len:
                    self.conflicts += 1
                    return False
                if clause_len == 1:
                    queue.append((assign.index(UNASSIGNED, 1), 1))
            for a, b, rest in occ_xor[var]:
                va = assign[a]
                vb = assign[b]
                if rest:
                    row = (a, b) + rest
                    free = [u for u in row if assign[u] == UNASSIGNED]
                    if len(free) > 1:
                        continue
                    parity = (value + sum(assign[u] for u in row if u not in free)) & 1
                    if free:
                        queue.append((free[0], parity))
                    elif parity:
                        self.conflicts += 1
                        return False
                elif va == UNASSIGNED:
                    if vb != UNASSIGNED:
                        queue.append((a, value ^ vb))
                elif vb == UNASSIGNED:
                    queue.append((b, value ^ va))
                elif value ^ va ^ vb:
                    self.conflicts += 1
                    return False
            self.propagations += 1
        self.clause_len = clause_len
        return True

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

    # -- search --------------------------------------------------------------

    def run(self, max_decisions: Optional[int], start: float) -> SolveStats:
        def make_stats(result: str, model=None) -> SolveStats:
            return SolveStats(result, self.decisions, self.propagations, self.conflicts,
                              time.monotonic() - start, model)

        # Level-0 units: the clause over one variable, then the rows of
        # one, which set it to 0. Every row has a variable: formula rows
        # have 3, and reduced_system drops zero rows.
        units = [(1, 1)] if self.n == 1 else []
        units += [(vs[0], 0) for vs in self.xors if len(vs) == 1]
        if not self._propagate(units):
            return make_stats(UNSAT)

        cols = self._row_columns()
        assign = self.assign
        values = np.frombuffer(assign, dtype=np.uint8)
        # Decisions whose value 1 is untried: assign as it was before the
        # decision, and its variable.
        stack: List[Tuple[bytes, int]] = []
        while True:
            var = self._pick_branch_var(cols, values)
            if var is None:
                model = tuple(assign[v] if assign[v] != UNASSIGNED else 0
                              for v in range(1, self.n + 1))
                return make_stats(SAT, model)
            if max_decisions is not None and self.decisions >= max_decisions:
                return make_stats(BUDGET_EXHAUSTED)
            self.decisions += 1
            stack.append((bytes(assign), var))
            ok = self._propagate([(var, 0)])
            while not ok:
                # Back to the most recent decision whose value 1 is untried.
                if not stack:
                    return make_stats(UNSAT)
                saved, bvar = stack.pop()
                assign[:] = saved  # in place: values views this buffer
                ok = self._propagate([(bvar, 1)])


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
    """Decision-cost gap between the plain run and the Gauss-presolved run."""

    ratio: float
    with_gauss: SolveStats
    without_gauss: SolveStats


def gauss_ratio(f: XorFormula, max_decisions: Optional[int] = None) -> GaussGap:
    """cost(no gauss) / cost(gauss) on the nonzero-solution query for f.

    Cost is the decision count; elapsed times ride along in the stats.
    A plain run that exhausts its budget scores +inf (the strongest
    accept signal); when both runs are pure propagation the ratio is 1.
    The caller is expected to hand in a homogeneous, uniquely
    satisfiable f, so both runs refute.
    """
    query = nontrivial_query(f)
    with_gauss = solve(query, use_gauss=True, max_decisions=max_decisions)
    without_gauss = solve(query, use_gauss=False, max_decisions=max_decisions)
    if without_gauss.result == BUDGET_EXHAUSTED:
        ratio = float("inf")
    elif with_gauss.result == BUDGET_EXHAUSTED:
        ratio = float("nan")
    elif without_gauss.decisions == 0 and with_gauss.decisions == 0:
        ratio = 1.0
    else:
        ratio = without_gauss.decisions / max(with_gauss.decisions, 1)
    return GaussGap(ratio, with_gauss, without_gauss)
