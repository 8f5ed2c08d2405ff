"""Instrumented DPLL over CNF-plus-XOR inputs.

The solver is deliberately plain: chronological backtracking, no clause
learning, no restarts. Branching picks the variable with the most
occurrences in the shortest active constraints, ties broken by variable
index, and tries value 0 before 1, so runs are deterministic and the
decision count is a machine-independent cost.

Propagation keeps per-constraint counters in Python lists. The branch
pick reads the assignment bytes through numpy: before its first pick
the solver flattens its clauses and XOR rows into one incidence of
(variable, polarity, constraint) entries, and each pick is a few
bincounts over it, not a Python rescan of every constraint. A run that
propagation refutes at level 0, like every Gauss-side refutation,
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

        # Value of each variable, UNASSIGNED if none; numpy reads it in place.
        self.assign = bytearray([UNASSIGNED]) * (n + 1)
        self.trail: List[int] = []
        # CNF bookkeeping: count of true / false literals per clause.
        self.n_true = [0] * len(self.clauses)
        self.n_false = [0] * len(self.clauses)
        # XOR bookkeeping: unassigned count and parity of assigned part.
        self.x_unassigned = [len(vs) for vs, _ in self.xors]
        self.x_acc = [0] * len(self.xors)

        self.occ_cnf: List[List[Tuple[int, int]]] = [[] for _ in range(n + 1)]
        for idx, cl in enumerate(self.clauses):
            for lit in cl:
                self.occ_cnf[abs(lit)].append((idx, 1 if lit > 0 else 0))
        self.occ_xor: List[List[int]] = [[] for _ in range(n + 1)]
        for idx, (vs, _) in enumerate(self.xors):
            for v in vs:
                self.occ_xor[v].append(idx)

        self.decisions = 0
        self.propagations = 0
        self.conflicts = 0

    # -- assignment plumbing -------------------------------------------------

    def _backtrack_to(self, mark: int) -> None:
        """Unassign the trail above mark and restore the counters."""
        assign, trail = self.assign, self.trail
        n_true, n_false, occ_cnf = self.n_true, self.n_false, self.occ_cnf
        x_unassigned, x_acc, occ_xor = self.x_unassigned, self.x_acc, self.occ_xor
        while len(trail) > mark:
            var = trail.pop()
            value = assign[var]
            assign[var] = UNASSIGNED
            for idx, pol in occ_cnf[var]:
                if pol == value:
                    n_true[idx] -= 1
                else:
                    n_false[idx] -= 1
            for idx in occ_xor[var]:
                x_unassigned[idx] += 1
                x_acc[idx] ^= value

    # -- propagation ---------------------------------------------------------

    def _propagate(self, pending: List[Tuple[int, int]]) -> bool:
        """Assign pending (var, value) pairs to fixpoint; False on conflict.

        Each assignment updates the counters of the constraints it occurs
        in and queues the last free entry of each one it leaves unit:
        clauses first, then XOR rows, each in occurrence order.
        """
        assign, trail = self.assign, self.trail
        clauses, n_true, n_false, occ_cnf = self.clauses, self.n_true, self.n_false, self.occ_cnf
        xors, x_unassigned, x_acc, occ_xor = self.xors, self.x_unassigned, self.x_acc, self.occ_xor
        queue = list(pending)
        while queue:
            var, value = queue.pop()
            if assign[var] != UNASSIGNED:
                if assign[var] != value:
                    self.conflicts += 1
                    return False
                continue
            assign[var] = value
            trail.append(var)
            ok = True
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
                    ok = False
                elif free == 1:
                    for lit in cl:
                        if assign[abs(lit)] == UNASSIGNED:
                            queue.append((abs(lit), 1 if lit > 0 else 0))
                            break
            for idx in occ_xor[var]:
                left = x_unassigned[idx] = x_unassigned[idx] - 1
                acc = x_acc[idx] = x_acc[idx] ^ value
                if left == 1:
                    for v in xors[idx][0]:
                        if assign[v] == UNASSIGNED:
                            queue.append((v, xors[idx][1] ^ acc))
                            break
                elif left == 0 and acc != xors[idx][1]:
                    ok = False
            if not ok:
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
        # (trail mark, branch var, values left to try)
        stack: List[Tuple[int, int, List[int]]] = []
        while True:
            var = self._pick_branch_var(incidence)
            if var is None:
                model = tuple(self.assign[v] if self.assign[v] != UNASSIGNED else 0
                              for v in range(1, self.n + 1))
                return make_stats(SAT, model)
            if max_decisions is not None and self.decisions >= max_decisions:
                return make_stats(BUDGET_EXHAUSTED)
            self.decisions += 1
            stack.append((len(self.trail), var, [1]))
            ok = self._propagate([(var, 0)])
            while not ok:
                # Unwind to the most recent decision with an untried value.
                while stack and not stack[-1][2]:
                    mark, _, _ = stack.pop()
                    self._backtrack_to(mark)
                if not stack:
                    return make_stats(UNSAT)
                mark, bvar, left = stack[-1]
                self._backtrack_to(mark)
                value = left.pop()
                ok = self._propagate([(bvar, value)])


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
