"""Reference implementations that the tests compare the program against.

Each one is exhaustive or written for clarity rather than speed, and is
meant for small inputs only. Tests import them with
``from oracles import ...``: this directory has no ``__init__.py``, so
pytest puts it on ``sys.path``.
"""

import functools
import heapq
import itertools
import math
import time
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from xorcfi import canon, xorsat
from xorcfi.canon import STATUS_COMPLETE, AutReport, BudgetExceededError
from xorcfi.cfi import CLAUSE_TAGS, Graph, VertexScheme, is_automorphism
from xorcfi.formula import (PinnedSystem, XorClause, XorFormula, make_formula, pack_rows,
                             to_matrix)
from xorcfi.pipeline import PipelineConfig, TrialOutcome, trial_outcomes
from xorcfi.sampler import SampleConfig, TrialDraw, _shuffle_prefix_subsets, screen, trial_rng
from xorcfi.xorsat import SAT, UNASSIGNED, UNSAT, SolveStats

# An XOR row seen from one of its variables, as DfsSolver keeps it: two
# other variables (the phantom 0 where the row has fewer) and the row's
# further variables, which only a rank-deficient presolve leaves.
XorEntry = Tuple[int, int, Tuple[int, ...]]


# -- GF(2) -------------------------------------------------------------------


def matrix_from_rows(rows: Iterable[Iterable[int]]) -> List[int]:
    """Packed rows from 0/1 entry lists: entry k of a row is its bit k."""
    return [sum(1 << k for k, e in enumerate(row) if e & 1) for row in rows]


def mat_vec(rows: Iterable[int], x: int) -> int:
    """The parity of each row on x over GF(2), bit i for row i; the bits
    of a row above those of x play no part."""
    bits = 0
    for i, row in enumerate(rows):
        if (row & x).bit_count() & 1:
            bits |= 1 << i
    return bits


def kernel_basis(rows: Iterable[int], cols: int) -> List[int]:
    """Canonical basis of {x below bit cols : every row has even parity
    on x}; the bits of a row at cols and above are ignored.

    One basis vector per free column, in ascending free-column order;
    the free coordinate is set to 1 and pivot coordinates are read off
    the reduced echelon form.
    """
    work, pivots = column_major_rref(rows, cols)
    basis = []
    for free in range(cols):
        if free in pivots:
            continue
        bits = 1 << free
        for row, pc in zip(work, pivots):
            if row >> free & 1:
                bits |= 1 << pc
        basis.append(bits)
    return basis


def column_major_rref(row_bits: Iterable[int], cols: int) -> Tuple[List[int], List[int]]:
    """Reduced row echelon form; returns (reduced rows, pivot columns).

    Pivots are sought in columns 0..cols-1 only; bits at cols and above
    (the rhs of an augmented system) are carried along by every row
    operation. The rows come back as the pivot rows in pivot order,
    then the others in input order, which are zero below bit cols. The
    pivot columns are those gf2._pivots finds with deferred blocks.

    Column j is one int whose bit i is row i. The pivot of column c is
    its lowest row not yet used as a pivot, and clearing c in the other
    rows is one xor into each later column that the pivot row touches,
    at once.
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
    for c in range(cols):
        cand = col[c] & free
        if not cand:
            continue
        p = cand & -cand
        others = col[c] ^ p
        if others:
            for j in range(c + 1, width):
                if col[j] & p:
                    col[j] ^= others
        col[c] = 0  # a unit column; its one bit goes back in below
        free ^= p
        pivots.append(c)
        order.append(p.bit_length() - 1)
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


def reduced_system(rows: Iterable[int], cols: int) -> Optional[List[int]]:
    """The nonzero rows of the reduced row echelon form, right-hand side
    at bit cols; None when the system is inconsistent (0 = 1 among them)."""
    out = [row for row in column_major_rref(rows, cols)[0] if row]
    return None if 1 << cols in out else out


# -- formulas ----------------------------------------------------------------

# All four triples of 4 variables: rank 4, so 0 is the only solution.
COMPLETE = make_formula(4, [((1, 2, 3), 0), ((1, 2, 4), 0), ((1, 3, 4), 0), ((2, 3, 4), 0)])
# Two of them: rank 2, with (0, 1, 1, 1) in the kernel.
TWO_CLAUSE = make_formula(4, [((1, 2, 3), 0), ((1, 2, 4), 0)])


def satisfies(system: Union[XorFormula, PinnedSystem], assignment: Sequence[int]) -> bool:
    """Whether a formula, or a formula plus its pinned unit equation, holds.

    assignment[j] is the value of variable j+1.
    """
    if isinstance(system, PinnedSystem):
        return assignment[system.var - 1] == system.value and satisfies(system.formula, assignment)
    return all(sum(assignment[v - 1] for v in cl.vars) & 1 == cl.rhs for cl in system.clauses)


def brute_solutions(f: XorFormula) -> List[Tuple[int, ...]]:
    """All satisfying assignments of f, each clause's parity evaluated directly."""
    return [bits for bits in itertools.product((0, 1), repeat=f.n)
            if all(sum(bits[v - 1] for v in cl.vars) & 1 == cl.rhs for cl in f.clauses)]


def brute_sat(n: int, clauses: Iterable[Sequence[int]], rows: Iterable[int] = ()) -> bool:
    """Satisfiability over variables 1..n of CNF clauses (signed literals)
    plus parity rows as gf2 packs them, by a vectorized truth table."""
    count = 1 << n
    assignments = np.arange(count, dtype=np.int64)
    ok = np.ones(count, dtype=bool)
    for clause in clauses:
        sat = np.zeros(count, dtype=bool)
        for lit in clause:
            bit = ((assignments >> (abs(lit) - 1)) & 1).astype(bool)
            sat |= bit if lit > 0 else ~bit
        ok &= sat
    for row in rows:
        parity = np.zeros(count, dtype=np.int64)
        for j in range(n):
            if row >> j & 1:
                parity ^= (assignments >> j) & 1
        ok &= parity == row >> n
    return bool(ok.any())


def xor_clause_cnf_expansion(vars: Sequence[int], rhs: int) -> List[Tuple[int, ...]]:
    """The 2^(k-1) CNF clauses forbidding the wrong-parity assignments."""
    out = []
    for pattern in range(1 << len(vars)):
        if pattern.bit_count() & 1 == rhs:
            continue  # this parity satisfies the xor; no clause forbids it
        # Forbid the assignment where var i is True iff pattern bit i is set.
        out.append(tuple(-v if (pattern >> i) & 1 else v for i, v in enumerate(vars)))
    return out


def nontrivial_solution_formula(f: XorFormula) -> Tuple[Tuple[int, ...], ...]:
    """CNF clauses over 1..f.n, satisfiable iff the homogeneous f has a
    nonzero solution.

    Each x + y + z = 0 clause expands to its 4 parity clauses, and one
    final clause is the disjunction of all n variables: 4m + 1 clauses.
    """
    if not f.is_homogeneous:
        raise ValueError("nontrivial-solution encoding is defined for homogeneous formulas")
    clauses: List[Tuple[int, ...]] = []
    for cl in f.clauses:
        clauses.extend(xor_clause_cnf_expansion(cl.vars, 0))
    clauses.append(tuple(range(1, f.n + 1)))
    return tuple(clauses)


def _draw_triple(rng: np.random.Generator, n: int) -> Tuple[int, int, int]:
    while True:
        a = int(rng.integers(1, n + 1))
        b = int(rng.integers(1, n + 1))
        c = int(rng.integers(1, n + 1))
        if a != b and a != c and b != c:
            return tuple(sorted((a, b, c)))


def sample_per_draw(cfg: SampleConfig, trial: int = 0) -> XorFormula:
    """sampler.sample_homogeneous with one rng.integers call per draw and
    the clauses sorted as dataclasses, as it was before it drew in blocks."""
    m = cfg.effective_m
    rng = trial_rng(cfg.seed, trial)
    if m > cfg.max_clauses // 2:
        chosen = _shuffle_prefix_subsets(rng, cfg.n, m)
    else:
        chosen = set()
        while len(chosen) < m:
            chosen.add(_draw_triple(rng, cfg.n))
    return XorFormula(cfg.n, tuple(sorted(XorClause(t, 0) for t in chosen)))


def trial_draw(cfg: PipelineConfig, trial: int) -> TrialDraw:
    """The draw of one trial of cfg, screened on its own, which is what
    pipeline.run_trial takes."""
    return screen(cfg.sample_config, range(trial, trial + 1))[0]


def first_accepted(cfg: PipelineConfig, count: int) -> List[TrialOutcome]:
    """The first count accepted outcomes of cfg's trials, or all there are."""
    return list(itertools.islice((o for o in trial_outcomes(cfg) if o.accepted), count))


# -- DPLL ----------------------------------------------------------------------


class DfsSolver:
    """The depth-first DPLL search that xorsat._Solver computes one depth
    at a time: one node at a time, over concrete values.

    It is xorsat's solver as it was before the symbolic pass, kept
    unchanged as the reference for every counter and model."""

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

    def run(self, start: float) -> SolveStats:
        def make_stats(result: str, model=None) -> SolveStats:
            return SolveStats(result, self.decisions, self.propagations, self.conflicts,
                              time.monotonic() - start, model)

        # Level-0 units: the clause over one variable, then the rows of
        # one, which set it to 0. Every row has a variable: xorsat.solve
        # refuses a row of none, and reference_solve's presolve keeps the
        # nonzero reduced rows only.
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


def rescan_branch_var(solver) -> Optional[int]:
    """The branch variable of a DfsSolver, or of xorsat._Solver on its
    all-zero path, by rescanning the clause "some variable is 1" and every
    XOR row in its assignment.

    The variable with the most occurrences among the shortest active
    constraints, ties broken by the lower index; None when no constraint
    is active. The clause is active while no variable is 1; a
    constraint's length is its count of unassigned entries.
    """
    assign = solver.assign
    constraints = list(solver.xors)
    if all(assign[v] != 1 for v in range(1, solver.n + 1)):
        constraints.append(range(1, solver.n + 1))
    lengths = [sum(assign[v] == UNASSIGNED for v in vs) for vs in constraints]
    best_len = min((k for k in lengths if k), default=None)
    if best_len is None:
        return None
    scores: Dict[int, int] = {}
    for vs, length in zip(constraints, lengths):
        if length != best_len:
            continue
        for v in vs:
            if assign[v] == UNASSIGNED:
                scores[v] = scores.get(v, 0) + 1
    return min(scores, key=lambda v: (-scores[v], v))


class CounterTrailSolver(DfsSolver):
    """DfsSolver with counters and trail undo in place of its partner
    reads and snapshots, and rescan_branch_var as its pick.

    The clause "some variable is 1" keeps its counts of true and of false
    variables; each XOR row keeps its count of unassigned variables and
    the parity of its assigned ones. A trail lists the assigned variables
    in order. A backtrack unassigns the trail above the mark of its
    decision and restores every counter, the clause's counts included,
    so it does not rely on DfsSolver's clause length staying 0 once
    a variable is 1.
    """

    def __init__(self, n: int, rows: Sequence[int]):
        super().__init__(n, rows)
        self.trail: List[int] = []
        self.clause_true = 0
        self.clause_false = 0
        self.x_unassigned = [len(vs) for vs in self.xors]
        self.x_acc = [0] * len(self.xors)
        self.rows_of: List[List[int]] = [[] for _ in range(n + 1)]
        for idx, vs in enumerate(self.xors):
            for v in vs:
                self.rows_of[v].append(idx)

    def _backtrack_to(self, mark: int) -> None:
        """Unassign the trail above mark and restore the counters."""
        while len(self.trail) > mark:
            var = self.trail.pop()
            value = self.assign[var]
            self.assign[var] = UNASSIGNED
            if value:
                self.clause_true -= 1
            else:
                self.clause_false -= 1
            for idx in self.rows_of[var]:
                self.x_unassigned[idx] += 1
                self.x_acc[idx] ^= value

    def _propagate(self, pending: List[Tuple[int, int]]) -> bool:
        """Assign pending (var, value) pairs to fixpoint; False on conflict.
        Units are queued the clause first, then XOR rows in occurrence
        order, and taken last in, first out."""
        queue = list(pending)
        while queue:
            var, value = queue.pop()
            if self.assign[var] != UNASSIGNED:
                if self.assign[var] != value:
                    self.conflicts += 1
                    return False
                continue
            self.assign[var] = value
            self.trail.append(var)
            ok = True
            self.clause_true += value
            self.clause_false += 1 - value
            free = self.n - self.clause_false
            if not (value or self.clause_true) and free <= 1:
                if free == 0:
                    ok = False
                else:
                    v = next(v for v in range(1, self.n + 1) if self.assign[v] == UNASSIGNED)
                    queue.append((v, 1))
            for idx in self.rows_of[var]:
                self.x_unassigned[idx] -= 1
                self.x_acc[idx] ^= value
                if self.x_unassigned[idx] == 1:
                    v = next(v for v in self.xors[idx] if self.assign[v] == UNASSIGNED)
                    queue.append((v, self.x_acc[idx]))
                elif self.x_unassigned[idx] == 0 and self.x_acc[idx]:
                    ok = False
            if not ok:
                self.conflicts += 1
                return False
            self.propagations += 1
        return True

    def run(self, start: float) -> xorsat.SolveStats:
        def make_stats(result: str, model=None) -> xorsat.SolveStats:
            return xorsat.SolveStats(result, self.decisions, self.propagations, self.conflicts,
                                     time.monotonic() - start, model)

        # A clause over one variable is a unit; a row of one sets it to 0.
        units = [(1, 1)] if self.n == 1 else []
        units += [(vs[0], 0) for vs in self.xors if len(vs) == 1]
        if not self._propagate(units):
            return make_stats(xorsat.UNSAT)
        # (trail mark, branch var, values left to try)
        stack: List[Tuple[int, int, List[int]]] = []
        while True:
            var = rescan_branch_var(self)
            if var is None:
                model = tuple(self.assign[v] if self.assign[v] != UNASSIGNED else 0
                              for v in range(1, self.n + 1))
                return make_stats(xorsat.SAT, model)
            self.decisions += 1
            stack.append((len(self.trail), var, [1]))
            ok = self._propagate([(var, 0)])
            while not ok:
                while stack and not stack[-1][2]:
                    mark, _, _ = stack.pop()
                    self._backtrack_to(mark)
                if not stack:
                    return make_stats(xorsat.UNSAT)
                mark, bvar, left = stack[-1]
                self._backtrack_to(mark)
                ok = self._propagate([(bvar, left.pop())])


def packed_rows(query: xorsat.NonzeroQuery) -> Tuple[int, ...]:
    """The query's variable triples as gf2 packs them (bit j is variable
    j+1)."""
    return pack_rows(query.n, ((vs, 0) for vs in query.rows))


def reference_solve(query: xorsat.NonzeroQuery, use_gauss: bool = False,
                    solver=DfsSolver) -> SolveStats:
    """xorsat.solve through an oracle solver class: the search of the
    packed rows, or with use_gauss of their reduced echelon form."""
    start = time.monotonic()
    rows = packed_rows(query)
    if use_gauss:
        rows = reduced_system(rows, query.n)
    return solver(query.n, rows).run(start)


def two_run_gauss_ratio(f: XorFormula) -> float:
    """xorsat.gauss_ratio as it was computed from two runs: the plain
    run's decisions over the Gauss-presolved run's."""
    query = xorsat.nontrivial_query(f)
    with_gauss = xorsat.solve(query, use_gauss=True)
    without_gauss = xorsat.solve(query, use_gauss=False)
    if without_gauss.decisions == 0 and with_gauss.decisions == 0:
        return 1.0
    return without_gauss.decisions / max(with_gauss.decisions, 1)


# -- lifted graphs and their text formats ------------------------------------
#
# The lifts and exporters as they were written over sets of (u, v) tuples,
# one vertex id at a time, before cfi and pipeline computed them on edge
# arrays.


def degrees(g: Graph) -> List[int]:
    deg = [0] * g.vertex_count
    for u, v in g.edges:
        deg[u] += 1
        deg[v] += 1
    return deg


# The frozen tag order of the clause gadget's 4 vertices, written out
# again here so that a change to cfi.CLAUSE_TAGS shows against it.
FROZEN_CLAUSE_TAGS = ((0, 0, 0), (0, 1, 1), (1, 1, 0), (1, 0, 1))


def clause_literal_patterns(rhs: int) -> List[Tuple[int, int, int]]:
    """Negation pattern of each of the 4 gadget vertices of a clause.

    Bit k is 1 when the clause's k-th variable (ascending order) appears
    negated at that vertex. The base vertex carries the clause itself;
    for rhs 1 the smallest variable is the negated one.
    """
    base = (1, 0, 0) if rhs else (0, 0, 0)
    return [tuple(b ^ t for b, t in zip(base, tag)) for tag in FROZEN_CLAUSE_TAGS]


def lift_edge_set(f: XorFormula, gadget_mode: str) -> Set[Tuple[int, int]]:
    """The edges of f's core or full lift, each as (smaller, larger)."""
    scheme = VertexScheme(f.n, f.m)
    edges = set()
    for j in range(1, f.n + 1):
        edges.add((scheme.var_vertex(j, 0), scheme.var_vertex(j, 1)))
    for c, cl in enumerate(f.clauses, start=1):
        for tag_index, pattern in enumerate(clause_literal_patterns(cl.rhs)):
            cv = scheme.clause_vertex(c, tag_index)
            for k, var in enumerate(cl.vars):
                edges.add((scheme.var_vertex(var, 1 - pattern[k]), cv))
    if gadget_mode == "full":
        for i in range(1, f.n):
            il, ir, s = scheme.gadget_left(i), scheme.gadget_right(i), scheme.gadget_stub(i)
            edges.add((il, ir))
            edges.add((ir, s))
            edges.add((scheme.var_vertex(i, 0), il))
            edges.add((scheme.var_vertex(i, 1), il))
            edges.add((scheme.var_vertex(i + 1, 0), ir))
            edges.add((scheme.var_vertex(i + 1, 1), ir))
    return edges


def incidence_edge_set(f: XorFormula) -> Set[Tuple[int, int]]:
    """Variable j is vertex j-1; clause c is vertex n+c-1."""
    return {(v - 1, f.n + c) for c, cl in enumerate(f.clauses) for v in cl.vars}


def dre_text(g: Graph) -> str:
    """dreadnaut text: each edge emitted once from its smaller endpoint."""
    higher: List[List[int]] = [[] for _ in range(g.vertex_count)]
    for u, v in sorted(g.edges):
        higher[u].append(v)
    lines = [f"n={g.vertex_count} $=0 g"]
    body = [f"{v} : {' '.join(str(w) for w in sorted(ws))}" for v, ws in enumerate(higher) if ws]
    if not body:
        lines.append(".")
    else:
        lines.extend(f"{row};" for row in body[:-1])
        lines.append(f"{body[-1]}.")
    return "\n".join(lines) + "\n"


def dimacs_graph_text(g: Graph) -> str:
    lines = [f"p edge {g.vertex_count} {g.edge_count}"]
    for u, v in sorted(g.edges):
        lines.append(f"e {u + 1} {v + 1}")
    return "\n".join(lines) + "\n"


# -- partitions and refinement -----------------------------------------------


@dataclass(frozen=True)
class Partition:
    """Ordered partition of 0..len(cell_of)-1; cell ids are dense and
    assigned in order of each cell's minimum element."""

    cell_of: Tuple[int, ...]

    def __post_init__(self):
        seen: Dict[int, int] = {}
        for x, c in enumerate(self.cell_of):
            if c not in seen:
                if c != len(seen):
                    raise ValueError("cell ids must appear in order of minimum element")
                seen[c] = x
        if seen and set(seen) != set(range(len(seen))):
            raise ValueError("cell ids must be dense from 0")

    @classmethod
    def from_labels(cls, labels: Iterable) -> "Partition":
        order: Dict = {}
        out = []
        for lab in labels:
            if lab not in order:
                order[lab] = len(order)
            out.append(order[lab])
        return cls(tuple(out))


def same_cell(p: Partition, u: int, v: int) -> bool:
    return p.cell_of[u] == p.cell_of[v]


def color_refine(g: Graph, initial: Optional[Partition] = None) -> Partition:
    """Coarsest stable refinement (1-WL) of initial, or of g's own colors.

    The program refines from a graph's vertex colors only, so an initial
    partition becomes the colors of a copy of g.
    """
    if initial is not None:
        g = Graph(g.vertex_count, g.edge_array, initial.cell_of)
    return Partition.from_labels(canon.color_refine(g).tolist())


def cells(p: Partition) -> List[List[int]]:
    """The cells of p in cell-id order, each in ascending order."""
    out: List[List[int]] = [[] for _ in set(p.cell_of)]
    for x, c in enumerate(p.cell_of):
        out[c].append(x)
    return out


def refines(fine: Partition, coarse: Partition) -> bool:
    """Whether every cell of fine lies inside one cell of coarse."""
    target = {}
    for x, c in enumerate(fine.cell_of):
        if target.setdefault(c, coarse.cell_of[x]) != coarse.cell_of[x]:
            return False
    return True


def individualize(g: Graph, p: Partition, v: int) -> Partition:
    """Move v to its own cell, then re-refine."""
    if not 0 <= v < g.vertex_count:
        raise ValueError(f"vertex {v} out of range")
    labels = [2 * c + 1 for c in p.cell_of]
    labels[v] -= 1
    return color_refine(g, Partition.from_labels(labels))


# -- automorphisms -----------------------------------------------------------


def brute_force_automorphisms(g: Graph) -> Tuple[AutReport, Partition]:
    """Exact automorphism group by checking every vertex permutation, and
    its orbits.

    The orbit of x is {p(x)} over the whole group, so the orbits need no
    generator closure.
    """
    v = g.vertex_count
    if v > 10:
        raise ValueError("brute force is guarded to graphs with at most 10 vertices")
    auts = [p for p in itertools.permutations(range(v)) if is_automorphism(g, p)]
    gens = [p for p in auts if any(p[i] != i for i in range(v))]
    orbits = Partition.from_labels([min(p[x] for p in auts) for x in range(v)])
    return AutReport(gens, len(auts), math.factorial(v), STATUS_COMPLETE), orbits


def orbits_from_generators(n: int, gens: List[Tuple[int, ...]]) -> Partition:
    """The orbits of the group that gens generate on 0..n-1, by union-find."""
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for p in gens:
        for x, y in enumerate(p):
            if x != y:  # only the points a generator moves join two orbits
                rx, ry = find(x), find(y)
                if rx != ry:
                    parent[max(rx, ry)] = min(rx, ry)
    # Links point down, so each root is the least point of its orbit and
    # a point's parent comes before it: one ascending pass numbers the
    # orbits in order of their least points.
    cell_of: List[int] = []
    orbits = 0
    for x, r in enumerate(parent):
        if r == x:
            cell_of.append(orbits)
            orbits += 1
        else:
            cell_of.append(cell_of[r])
    return Partition(tuple(cell_of))


def group_order(n: int, gens: List[Tuple[int, ...]]) -> int:
    """The order of the group gens generate on 0..n-1: the identity's closure under them."""
    seen, frontier = {tuple(range(n))}, [tuple(range(n))]
    while frontier:
        frontier = list({tuple(p[i] for i in g) for p in frontier for g in gens} - seen)
        seen.update(frontier)
    return len(seen)


def assignment_automorphism(f: XorFormula, assignment: Sequence[int]) -> List[int]:
    """The vertex permutation of build_full(f) induced by a satisfying assignment.

    Swaps X^0 and X^1 exactly where the assignment is 1, permutes each
    clause gadget by the corresponding two-variable swap, and fixes the
    order gadgets. Only defined when the assignment satisfies f.
    """
    if not f.is_homogeneous:
        raise ValueError("assignment-induced automorphisms exist for homogeneous formulas only")
    if not satisfies(f, assignment):
        raise ValueError("assignment does not satisfy the formula")
    scheme = VertexScheme(f.n, f.m)
    perm = list(range(scheme.full_vertex_count))
    for j in range(1, f.n + 1):
        if assignment[j - 1]:
            perm[scheme.var_vertex(j, 0)] = scheme.var_vertex(j, 1)
            perm[scheme.var_vertex(j, 1)] = scheme.var_vertex(j, 0)
    tag_of = {tag: idx for idx, tag in enumerate(CLAUSE_TAGS)}
    for c, cl in enumerate(f.clauses, start=1):
        # A satisfied clause has an even number of swapped variables, so
        # xoring tags with the swap mask permutes the gadget's 4 tags.
        swap = tuple(assignment[v - 1] for v in cl.vars)
        for tag_index, tag in enumerate(CLAUSE_TAGS):
            new_tag = tuple(t ^ s for t, s in zip(tag, swap))
            perm[scheme.clause_vertex(c, tag_index)] = scheme.clause_vertex(c, tag_of[new_tag])
    return perm


# -- k-dimensional Weisfeiler-Leman over V^k tuples --------------------------


def _flat_index(tup: Sequence[int], v: int) -> int:
    out = 0
    for x in tup:
        out = out * v + x
    return out


def wl_k(g: Graph, k: int, max_tuples: int = 300_000) -> Partition:
    """Stable k-tuple partition under the substitution-count condition.

    Tuples start on their ordered-induced-subgraph type (equalities,
    adjacencies, vertex colors); a round recolors each tuple by the
    multiset, over all vertices x, of the k-vector of colors obtained by
    substituting x at each position. Elements of the result are tuples
    in lexicographic order (flat index sum(u_i * V^(k-1-i))).
    """
    if k < 2:
        raise ValueError("wl_k is defined for k >= 2")
    v = g.vertex_count
    total = v**k
    if total > max_tuples:
        raise BudgetExceededError(f"{total} tuples exceed the budget of {max_tuples}")
    if v == 0:
        return Partition(())

    adj = np.zeros((v, v), dtype=np.int8)
    for a, b in g.edges:
        adj[a, b] = 1
        adj[b, a] = 1
    vcol = np.zeros(v, dtype=np.int64) if g.colors is None else np.asarray(g.colors, dtype=np.int64)

    comps = np.indices((v,) * k).reshape(k, -1)
    features = []
    for i in range(k):
        for j in range(i + 1, k):
            features.append((comps[i] == comps[j]).astype(np.int64))
            features.append(adj[comps[i], comps[j]].astype(np.int64))
    for i in range(k):
        features.append(vcol[comps[i]])
    _, colors = np.unique(np.stack(features, axis=1), axis=0, return_inverse=True)
    colors = colors.reshape(-1).astype(np.int64)

    # Substituting x at position i moves a flat index by (x - u_i) * v^(k-1-i).
    vpow = np.array([v ** (k - 1 - i) for i in range(k)], dtype=np.int64)
    base = [np.arange(total, dtype=np.int64) - comps[i] * vpow[i] for i in range(k)]

    ncolors = int(colors.max()) + 1
    sig = np.empty((total, v), dtype=np.int64)
    while True:
        if ncolors**k > 2**62:
            raise BudgetExceededError("tuple-color signature would overflow packing")
        sig.fill(0)
        for i in range(k):
            scale = ncolors ** (k - 1 - i)
            for x in range(v):
                sig[:, x] += colors[base[i] + x * vpow[i]] * scale
        sig.sort(axis=1)
        _, inv = np.unique(np.concatenate([colors[:, None], sig], axis=1),
                           axis=0, return_inverse=True)
        inv = inv.reshape(-1).astype(np.int64)
        new_n = int(inv.max()) + 1
        if new_n == ncolors:
            break
        colors = inv
        ncolors = new_n
    return Partition.from_labels(colors.tolist())


def wl_indistinguishable(g: Graph, u: int, v: int, k: int, max_tuples: int = 300_000) -> bool:
    """True when the constant tuples (u,...,u) and (v,...,v) share a cell.

    k = 1 is the refinement level: plain color refinement must leave u
    and v together.
    """
    if u == v:
        return True
    if k == 1:
        return same_cell(color_refine(g), u, v)
    part = wl_k(g, k, max_tuples=max_tuples)
    n = g.vertex_count
    return same_cell(part, _flat_index([u] * k, n), _flat_index([v] * k, n))


# -- pebble game ---------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _game_states(n: int, k: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every partial assignment on at most k of n variables, sorted by the
    key vmask << n | amask (bit x for variable x+1), so the empty one is
    state 0, and the columns (state, its extension by x at 0, at 1) for
    each state below size k and each x outside it.

    Read the other way, the columns are the restrictions: each nonempty
    state is a child in exactly one column per variable it holds.
    """
    keys = []
    for size in range(k + 1):
        combos = np.array(list(itertools.combinations(range(n), size)), dtype=np.int64)
        combos = combos.reshape(math.comb(n, size), size)
        bits = np.arange(1 << size)[:, None] >> np.arange(size) & 1
        sets = np.repeat((1 << combos).sum(axis=1), 1 << size)
        keys.append(sets << n | (bits[None] << combos[:, None]).sum(axis=2).reshape(-1))
    keys = np.sort(np.concatenate(keys))
    vmask, amask = keys >> n, keys & ((1 << n) - 1)
    below = np.flatnonzero(np.bitwise_count(vmask) < k)
    extend = []
    for x in range(n):
        bit = 1 << x
        state = below[vmask[below] & bit == 0]
        child = (vmask[state] | bit) << n | amask[state]
        extend.append(np.stack([state, np.searchsorted(keys, child),
                                np.searchsorted(keys, child | bit)]))
    extend = np.concatenate(extend, axis=1)
    for a in (vmask, amask, extend):
        a.setflags(write=False)
    return vmask, amask, extend


def enumerating_local_consistency(f: Union[XorFormula, PinnedSystem], k: int) -> bool:
    """canon.local_consistency by enumerating every partial assignment.

    Computes the greatest family of consistent partial assignments on at
    most k variables that is closed under restriction and extension (any
    assignment below size k extends to any requested variable inside the
    family); nonempty exactly when the empty assignment survives. A state
    starts alive when it satisfies every clause, and the pin, inside its
    variables; each sweep then kills every state with a dead restriction
    or a variable whose two extensions are both dead. Costs one state per
    assignment, about sum_j C(n, j) 2^j of them.

    The constraints are read off the clauses, not through to_matrix, so
    this shares no code with the closure. Keys stay exact in int64 only
    up to n = 31.
    """
    n = f.n
    if n > 31:
        raise ValueError(f"n={n} is too large for int64 state keys")
    vmask, amask, extend = _game_states(n, min(k, n))
    pinned = isinstance(f, PinnedSystem)
    constraints = [(cl.vars, cl.rhs) for cl in (f.formula if pinned else f).clauses]
    constraints += [((f.var,), f.value)] if pinned else []
    alive = np.ones(len(vmask), dtype=bool)
    for vs, rhs in constraints:
        cmask = sum(1 << (v - 1) for v in vs)
        inside = vmask & cmask == cmask
        alive &= ~inside | (np.bitwise_count(amask & cmask) & 1 == rhs)
    state, off, on = extend
    while alive[0]:
        dead = ~alive
        doomed = np.zeros_like(alive)
        orphans = dead[state]
        doomed[off[orphans]] = True
        doomed[on[orphans]] = True
        doomed[state[dead[off] & dead[on]]] = True
        if not (alive & doomed).any():
            return True
        alive &= ~doomed
    return False


def heap_xor_closure(f: Union[XorFormula, PinnedSystem], k: int) -> bool:
    """canon.local_consistency one row at a time, without the game-state
    budget.

    The same width-bounded xor closure: rows leave a heap narrowest
    first and enter it once, and each popped row is tested in Python
    against every row derived before it; a refuted pin stops at its
    first 0 = 1. A row holds its right-hand side at bit n.
    """
    n = f.n
    keff = min(k, n)
    contradiction = 1 << n
    seen = {r for r in to_matrix(f) if (r & ~contradiction).bit_count() <= keff}
    heap = [((r & ~contradiction).bit_count(), r) for r in seen]
    heapq.heapify(heap)
    derived: List[Tuple[int, int]] = []  # (row, its variables)
    while heap:
        _, r = heapq.heappop(heap)
        if r == contradiction:
            return False
        support = r & ~contradiction
        for s, s_support in derived:
            if support & s_support and (support | s_support).bit_count() <= keff:
                t = r ^ s
                if t not in seen:
                    seen.add(t)
                    heapq.heappush(heap, ((support ^ s_support).bit_count(), t))
        derived.append((r, support))
    return True


def row_span_local_consistency(f: Union[XorFormula, PinnedSystem], k: int) -> bool:
    """canon.local_consistency as a fixpoint over the row span of each
    variable set, without the game-state budget.

    The game's greatest family is closed under the Mal'tsev operation
    x^y^z, since f is affine, so its survivors on each set V of at most k
    variables are the solutions of the parity rows implied on V. span[V]
    takes in the rows of each V - {x} (restriction) and the rows of each
    V + {x} with x eliminated (extension). A row holds its right-hand
    side at bit n, so the row 1 << n reads 0 = 1, and once any set
    implies it, the projections carry it down to the empty set.
    """
    n = f.n
    keff = min(k, n)
    contradiction = 1 << n
    spans: Dict[int, Dict[int, int]] = {}  # variable set -> {lowest set bit: row}
    work: Deque[int] = deque()
    queued: Set[int] = set()

    def add(vmask: int, rows: Iterable[int]) -> bool:
        """Adds rows to span[vmask]; False once it implies 0 = 1."""
        basis = spans.setdefault(vmask, {})
        before = len(basis)
        for r in rows:
            while r:
                low = r & -r
                if low not in basis:
                    basis[low] = r
                    break
                r ^= basis[low]
        if len(basis) > before and vmask not in queued:
            queued.add(vmask)
            work.append(vmask)
        return contradiction not in basis

    for row in to_matrix(f):
        vmask = row & ~contradiction
        if vmask.bit_count() <= keff and not add(vmask, [row]):
            return False
    while work:
        vmask = work.popleft()
        queued.discard(vmask)
        rows = list(spans[vmask].values())
        below_k = vmask.bit_count() < keff
        for x in range(n):
            bit = 1 << x
            if vmask & bit:
                first = next((r for r in rows if r & bit), 0)
                if not add(vmask ^ bit, [r ^ first if r & bit else r for r in rows if r != first]):
                    return False
            elif below_k and not add(vmask | bit, rows):
                return False
    return True
