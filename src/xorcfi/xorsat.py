"""Instrumented DPLL over CNF-plus-XOR inputs.

The solver is deliberately plain: chronological backtracking, no clause
learning, no restarts. Branching picks the variable with the most
occurrences in the shortest active constraints, ties broken by variable
index, and tries value 0 before 1, so runs are deterministic and the
decision count is a machine-independent cost.

Propagation keeps a count of true and of false literals per clause,
and no state per XOR row. Each variable lists, per row it occurs in,
the row's other variables and its rhs; assigning the variable reads
their values, and a row left with one of them unassigned queues that
one as a unit. Variable 0 is a phantom fixed at 0, so a row of 1, 2 or
3 variables reads exactly two values; only the rank-deficient rows of a
Gauss presolve are longer, and carry their further variables in the
same entry. Units are taken last in, first out. A decision saves the
assignment bytes and the clause counters, and a backtrack restores the
saved copy in one step.

The branch pick reads the assignment bytes through numpy: before its
first pick the solver flattens its clauses and XOR rows into one
incidence of (variable, polarity, constraint) entries, and each pick is
a few bincounts over it, not a Python rescan of every constraint. A run
that propagation refutes at level 0, like every Gauss-side refutation,
never builds the incidence.

With use_gauss the XOR rows are eliminated up front over GF(2); an
inconsistent XOR part refutes immediately and a full-rank part turns
into unit rows that propagate everything at level 0. This is where the
cost gap against the plain run comes from.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import chain
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .formula import CnfFormula, XorFormula, to_matrix
from .gf2 import reduced_system

SAT = "SAT"
UNSAT = "UNSAT"
BUDGET_EXHAUSTED = "BUDGET_EXHAUSTED"

UNASSIGNED = 0xFF  # the value byte of a variable without a value
NO_POLARITY = 2  # the polarity of an XOR row entry, which no value matches

# An XOR row seen from one of its variables: two other variables (the
# phantom 0 where the row has fewer), rhs, and the row's further variables.
XorEntry = Tuple[int, int, int, Tuple[int, ...]]
# Entry variables, entry polarities, entry constraints, assignment view.
Incidence = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


@dataclass
class SolveStats:
    result: str
    decisions: int
    propagations: int
    conflicts: int
    elapsed: float
    model: Optional[Tuple[int, ...]] = None


class _Solver:
    """One-shot DPLL instance over normalized constraints."""

    def __init__(self, n: int, cnf: Sequence[Tuple[int, ...]], rows: Sequence[int]):
        """rows are parity rows as gf2 packs them (bit j is variable j+1,
        bit n the right-hand side); each is kept as (its variables in
        ascending order, rhs)."""
        self.n = n
        self.clauses: List[Tuple[int, ...]] = []
        for cl in cnf:
            lit_set = set(cl)
            if any(-l in lit_set for l in lit_set):
                continue  # tautology
            self.clauses.append(tuple(sorted(lit_set, key=abs)))
        self.xors: List[Tuple[Tuple[int, ...], int]] = []
        for row in rows:
            rhs = row >> n
            coeffs = row ^ rhs << n
            vs = []
            while coeffs:
                low = coeffs & -coeffs
                vs.append(low.bit_length())
                coeffs ^= low
            self.xors.append((tuple(vs), rhs))

        # Value of each variable, UNASSIGNED if none; numpy reads it in
        # place. Index 0 is a phantom variable fixed at 0.
        self.assign = bytearray([UNASSIGNED]) * (n + 1)
        self.assign[0] = 0
        # CNF bookkeeping: count of true / false literals per clause.
        self.n_true = [0] * len(self.clauses)
        self.n_false = [0] * len(self.clauses)

        self.occ_cnf: List[List[Tuple[int, int]]] = [[] for _ in range(n + 1)]
        for idx, cl in enumerate(self.clauses):
            for lit in cl:
                self.occ_cnf[abs(lit)].append((idx, 1 if lit > 0 else 0))
        # XOR rows keep no state: the entry of a row at each of its
        # variables holds the row's other variables and its rhs, as
        # (first, second, rhs, rest). The phantom 0 pads a row of fewer
        # than 3 variables and gets no entries; only rows of more than 3
        # have a rest.
        self.occ_xor: List[List[XorEntry]] = [[] for _ in range(n + 1)]
        for vs, rhs in self.xors:
            if len(vs) > 3:
                for i, v in enumerate(vs):
                    others = vs[:i] + vs[i + 1:]
                    self.occ_xor[v].append((others[0], others[1], rhs, others[2:]))
                continue
            x, y, z = (vs + (0, 0))[:3]
            self.occ_xor[x].append((y, z, rhs, ()))
            if y:
                self.occ_xor[y].append((x, z, rhs, ()))
            if z:
                self.occ_xor[z].append((x, y, rhs, ()))

        self.decisions = 0
        self.propagations = 0
        self.conflicts = 0

    # -- propagation ---------------------------------------------------------

    def _propagate(self, pending: List[Tuple[int, int]]) -> bool:
        """Assign pending (var, value) pairs to fixpoint; False on conflict.

        Each assignment updates the counters of the clauses it occurs in
        and reads the values of the other variables of each XOR row it
        occurs in. It queues the last free entry of each constraint it
        leaves unit: clauses first, then XOR rows, each in occurrence
        order. On a conflict the state is left as it is; the caller
        restores a snapshot.
        """
        assign = self.assign
        clauses, n_true, n_false, occ_cnf = self.clauses, self.n_true, self.n_false, self.occ_cnf
        occ_xor = self.occ_xor
        queue = list(pending)
        while queue:
            var, value = queue.pop()
            if assign[var] != UNASSIGNED:
                if assign[var] != value:
                    self.conflicts += 1
                    return False
                continue
            assign[var] = value
            for idx, pol in occ_cnf[var]:
                if pol == value:
                    n_true[idx] += 1
                    continue
                n_false[idx] += 1
                if n_true[idx]:
                    continue
                cl = clauses[idx]
                free = len(cl) - n_false[idx]
                if free == 0:
                    self.conflicts += 1
                    return False
                if free == 1:
                    for lit in cl:
                        if assign[abs(lit)] == UNASSIGNED:
                            queue.append((abs(lit), 1 if lit > 0 else 0))
                            break
            for a, b, rhs, rest in occ_xor[var]:
                va = assign[a]
                vb = assign[b]
                if rest:
                    row = (a, b) + rest
                    free = [u for u in row if assign[u] == UNASSIGNED]
                    if len(free) > 1:
                        continue
                    parity = (rhs + value + sum(assign[u] for u in row if u not in free)) & 1
                    if free:
                        queue.append((free[0], parity))
                    elif parity:
                        self.conflicts += 1
                        return False
                elif va == UNASSIGNED:
                    if vb != UNASSIGNED:
                        queue.append((a, rhs ^ value ^ vb))
                elif vb == UNASSIGNED:
                    queue.append((b, rhs ^ value ^ va))
                elif rhs ^ value ^ va ^ vb:
                    self.conflicts += 1
                    return False
            self.propagations += 1
        return True

    # -- branching -----------------------------------------------------------

    def _build_incidence(self) -> Incidence:
        """One entry per clause literal and per XOR row variable: its
        variable, its polarity (NO_POLARITY for a row, which no value
        matches) and its constraint, clauses first; plus the view of
        assign."""
        constraints = self.clauses + [vs for vs, _ in self.xors]
        sizes = [len(c) for c in constraints]
        entries = np.array(list(chain.from_iterable(constraints)), dtype=np.intp)
        n_lits = sum(sizes[:len(self.clauses)])
        pol = np.full(entries.size, NO_POLARITY, dtype=np.uint8)
        pol[:n_lits] = entries[:n_lits] > 0
        con = np.repeat(np.arange(len(sizes)), sizes)
        return np.abs(entries), pol, con, np.frombuffer(self.assign, dtype=np.uint8)

    def _pick_branch_var(self, incidence: Incidence) -> Optional[int]:
        """Most occurrences among the shortest active constraints.

        A constraint's length is its count of unassigned entries; it is
        active while that is positive and, for a clause, no literal is
        true. Each variable scores one per unassigned entry in an active
        constraint of the least length; argmax returns the first
        maximum, so ties go to the lower index.
        """
        var, pol, con, assign = incidence
        values = assign[var]
        free = values == UNASSIGNED
        size = len(self.clauses) + len(self.xors)
        length = np.bincount(con[free], minlength=size)
        length[con[values == pol]] = 0  # satisfied clauses are inactive
        active = length[length > 0]
        if not active.size:
            return None
        shortest = free & (length[con] == active.min())
        return int(np.bincount(var[shortest], minlength=self.n + 1).argmax())

    # -- search --------------------------------------------------------------

    def run(self, max_decisions: Optional[int], start: float) -> SolveStats:
        def make_stats(result: str, model=None) -> SolveStats:
            return SolveStats(result, self.decisions, self.propagations, self.conflicts,
                              time.monotonic() - start, model)

        # Level-0 units. No constraint is empty: CnfFormula refuses empty
        # clauses, and every row has a variable, since formula rows have 3
        # and reduced_system drops zero rows and refutes 0 = 1 itself.
        units: List[Tuple[int, int]] = []
        for cl in self.clauses:
            if len(cl) == 1:
                units.append((abs(cl[0]), 1 if cl[0] > 0 else 0))
        for vs, rhs in self.xors:
            if len(vs) == 1:
                units.append((vs[0], rhs))
        if not self._propagate(units):
            return make_stats(UNSAT)

        incidence = self._build_incidence()
        assign, n_true, n_false = self.assign, self.n_true, self.n_false
        # Decisions whose value 1 is untried: (assign, n_true, n_false)
        # as they were before the decision, and its variable.
        stack: List[Tuple[bytes, List[int], List[int], int]] = []
        while True:
            var = self._pick_branch_var(incidence)
            if var is None:
                model = tuple(assign[v] if assign[v] != UNASSIGNED else 0
                              for v in range(1, self.n + 1))
                return make_stats(SAT, model)
            if max_decisions is not None and self.decisions >= max_decisions:
                return make_stats(BUDGET_EXHAUSTED)
            self.decisions += 1
            stack.append((bytes(assign), n_true[:], n_false[:], var))
            ok = self._propagate([(var, 0)])
            while not ok:
                # Back to the most recent decision whose value 1 is untried.
                if not stack:
                    return make_stats(UNSAT)
                saved, saved_true, saved_false, bvar = stack.pop()
                assign[:] = saved  # in place: the incidence views this buffer
                n_true[:] = saved_true
                n_false[:] = saved_false
                ok = self._propagate([(bvar, 1)])


def _verify_model(input: CnfFormula, model: Sequence[int]) -> bool:
    for cl in input.clauses:
        if not any((model[abs(l) - 1] == 1) == (l > 0) for l in cl):
            return False
    for xc in input.xors:
        if not xc.satisfied_by(model):
            return False
    return True


def solve(input: CnfFormula, use_gauss: bool = False, max_decisions: Optional[int] = None) -> SolveStats:
    """Decide the CNF-plus-XOR input; stats carry the decision cost.

    With use_gauss the XOR rows are replaced by their reduced echelon
    form first (refuting outright if inconsistent); DPLL then works on
    the CNF part plus the reduced rows. max_decisions, when set, stops
    the search with BUDGET_EXHAUSTED before its next decision; elapsed
    covers the elimination.
    """
    start = time.monotonic()
    rows = to_matrix(input)
    if use_gauss:
        rows = reduced_system(rows, input.n)
        if rows is None:
            return SolveStats(UNSAT, 0, 0, 1, time.monotonic() - start)
    stats = _Solver(input.n, input.clauses, rows).run(max_decisions, start)
    if stats.result == SAT:
        assert stats.model is not None and _verify_model(input, stats.model)
    return stats


def nontrivial_query(f: XorFormula) -> CnfFormula:
    """The xor rows of f plus the all-variables disjunction clause.

    Satisfiable exactly when the homogeneous f has a nonzero solution;
    this is the native-XOR form of the query. The pure-CNF expansion,
    4 parity clauses per xor row, is a test oracle in tests/oracles.py.
    """
    if not f.is_homogeneous:
        raise ValueError("nonzero-solution query is defined for homogeneous formulas")
    return CnfFormula(f.n, (tuple(range(1, f.n + 1)),), f.clauses)


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
