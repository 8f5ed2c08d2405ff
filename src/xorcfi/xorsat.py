"""Instrumented DPLL over CNF-plus-XOR inputs.

The solver is deliberately plain: chronological backtracking, no clause
learning, no restarts. Branching picks the variable with the most
occurrences in the shortest active constraints, ties broken by variable
index, and tries value 0 before 1, so runs are deterministic and the
decision count is a machine-independent cost.

With use_gauss the XOR rows are eliminated up front over GF(2); an
inconsistent XOR part refutes immediately and a full-rank part turns
into unit rows that propagate everything at level 0. This is where the
cost gap against the plain run comes from.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .formula import CnfFormula, XorFormula, to_matrix
from .gf2 import reduced_system

SAT = "SAT"
UNSAT = "UNSAT"
BUDGET_EXHAUSTED = "BUDGET_EXHAUSTED"


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

    def __init__(self, n: int, cnf: Sequence[Tuple[int, ...]], xors: Sequence[Tuple[Tuple[int, ...], int]]):
        self.n = n
        self.clauses: List[Tuple[int, ...]] = []
        for cl in cnf:
            lit_set = set(cl)
            if any(-l in lit_set for l in lit_set):
                continue  # tautology
            self.clauses.append(tuple(sorted(lit_set, key=abs)))
        self.xors = [(tuple(vs), rhs & 1) for vs, rhs in xors]

        self.assign: List[Optional[int]] = [None] * (n + 1)
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

    def _set(self, var: int, value: int) -> bool:
        """Assign and update counters; False on immediate conflict."""
        self.assign[var] = value
        self.trail.append(var)
        ok = True
        for idx, pol in self.occ_cnf[var]:
            if pol == value:
                self.n_true[idx] += 1
            else:
                self.n_false[idx] += 1
                if self.n_true[idx] == 0 and self.n_false[idx] == len(self.clauses[idx]):
                    ok = False
        for idx in self.occ_xor[var]:
            self.x_unassigned[idx] -= 1
            self.x_acc[idx] ^= value
            if self.x_unassigned[idx] == 0 and self.x_acc[idx] != self.xors[idx][1]:
                ok = False
        return ok

    def _unset(self, var: int) -> None:
        value = self.assign[var]
        self.assign[var] = None
        for idx, pol in self.occ_cnf[var]:
            if pol == value:
                self.n_true[idx] -= 1
            else:
                self.n_false[idx] -= 1
        for idx in self.occ_xor[var]:
            self.x_unassigned[idx] += 1
            self.x_acc[idx] ^= value

    def _backtrack_to(self, mark: int) -> None:
        while len(self.trail) > mark:
            self._unset(self.trail.pop())

    # -- propagation ---------------------------------------------------------

    def _propagate(self, pending: List[Tuple[int, int]]) -> bool:
        """Assign pending (var, value) pairs to fixpoint; False on conflict."""
        queue = list(pending)
        while queue:
            var, value = queue.pop()
            if self.assign[var] is not None:
                if self.assign[var] != value:
                    self.conflicts += 1
                    return False
                continue
            if not self._set(var, value):
                self.conflicts += 1
                return False
            self.propagations += 1
            for idx, _pol in self.occ_cnf[var]:
                cl = self.clauses[idx]
                if self.n_true[idx] == 0 and self.n_false[idx] == len(cl) - 1:
                    for lit in cl:
                        if self.assign[abs(lit)] is None:
                            queue.append((abs(lit), 1 if lit > 0 else 0))
                            break
            for idx in self.occ_xor[var]:
                if self.x_unassigned[idx] == 1:
                    vs, rhs = self.xors[idx]
                    for v in vs:
                        if self.assign[v] is None:
                            queue.append((v, rhs ^ self.x_acc[idx]))
                            break
        return True

    # -- branching -----------------------------------------------------------

    def _pick_branch_var(self) -> Optional[int]:
        """Most occurrences among the shortest active constraints."""
        best_len = None
        for idx, cl in enumerate(self.clauses):
            if self.n_true[idx] > 0:
                continue
            length = len(cl) - self.n_false[idx]
            if length == 0:
                continue
            if best_len is None or length < best_len:
                best_len = length
        for idx in range(len(self.xors)):
            length = self.x_unassigned[idx]
            if length == 0:
                continue
            if best_len is None or length < best_len:
                best_len = length
        if best_len is None:
            return None
        scores: Dict[int, int] = {}
        for idx, cl in enumerate(self.clauses):
            if self.n_true[idx] > 0 or len(cl) - self.n_false[idx] != best_len:
                continue
            for lit in cl:
                if self.assign[abs(lit)] is None:
                    scores[abs(lit)] = scores.get(abs(lit), 0) + 1
        for idx, (vs, _) in enumerate(self.xors):
            if self.x_unassigned[idx] != best_len:
                continue
            for v in vs:
                if self.assign[v] is None:
                    scores[v] = scores.get(v, 0) + 1
        return min(scores, key=lambda v: (-scores[v], v))

    # -- search --------------------------------------------------------------

    def run(self, max_decisions: Optional[int], start: float) -> SolveStats:
        def make_stats(result: str, model=None) -> SolveStats:
            return SolveStats(result, self.decisions, self.propagations, self.conflicts,
                              time.monotonic() - start, model)

        # Level-0 units.
        units: List[Tuple[int, int]] = []
        for idx, cl in enumerate(self.clauses):
            if len(cl) == 0:
                self.conflicts += 1
                return make_stats(UNSAT)
            if len(cl) == 1:
                units.append((abs(cl[0]), 1 if cl[0] > 0 else 0))
        for vs, rhs in self.xors:
            if len(vs) == 0:
                if rhs:
                    self.conflicts += 1
                    return make_stats(UNSAT)
            elif len(vs) == 1:
                units.append((vs[0], rhs))
        if not self._propagate(units):
            return make_stats(UNSAT)

        # (trail mark, branch var, values left to try)
        stack: List[Tuple[int, int, List[int]]] = []
        while True:
            var = self._pick_branch_var()
            if var is None:
                model = tuple(self.assign[v] if self.assign[v] is not None else 0
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
    xors: List[Tuple[Tuple[int, ...], int]] = [(xc.vars, xc.rhs) for xc in input.xors]
    if use_gauss and xors:
        reduced = reduced_system(*to_matrix(input))
        if reduced is None:
            return SolveStats(UNSAT, 0, 0, 1, time.monotonic() - start)
        xors = []
        for coeffs, rhs in reduced:
            vs = []
            while coeffs:
                low = coeffs & -coeffs
                vs.append(low.bit_length())  # bit j is variable j + 1
                coeffs ^= low
            xors.append((tuple(vs), rhs))
    stats = _Solver(input.n, input.clauses, xors).run(max_decisions, start)
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
