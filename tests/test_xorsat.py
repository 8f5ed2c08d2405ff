"""DPLL solver on the nonzero-solution query against a truth-table oracle
and the depth-first search that it counts one depth at a time."""

import functools
import itertools
import math
import os
import random
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

from xorcfi import xorsat
from xorcfi.formula import is_uniquely_satisfiable, make_formula, pack_rows, to_matrix
from xorcfi.gf2 import reduced_system
from xorcfi.sampler import SampleConfig, sample_homogeneous
from xorcfi.xorsat import (
    BUDGET_EXHAUSTED,
    SAT,
    UNASSIGNED,
    UNSAT,
    NonzeroQuery,
    gauss_ratio,
    nontrivial_query,
    solve,
)

from oracles import (
    COMPLETE,
    TWO_CLAUSE,
    CounterTrailSolver,
    DfsSolver,
    brute_sat,
    reference_solve,
    rescan_branch_var,
    satisfies,
    two_run_gauss_ratio,
)
from test_pipeline import FILTER_CASES


# -- oracle ----------------------------------------------------------------


def query_sat(query: NonzeroQuery) -> bool:
    """Whether some assignment sets a variable to 1 and meets every row."""
    return brute_sat(query.n, [range(1, query.n + 1)], query.rows)


def check_model(f, model) -> bool:
    return any(model) and satisfies(f, model)


def random_formula(rnd, n_max=16):
    """A homogeneous formula of random n, 1..n_max, and random m, 0..2n."""
    n = rnd.randint(1, n_max)
    triples = {tuple(sorted(rnd.sample(range(1, n + 1), 3)))
               for _ in range(rnd.randint(0, 2 * n) if n >= 3 else 0)}
    return make_formula(n, [(t, 0) for t in triples])


# -- frozen examples -------------------------------------------------------


def test_unique_system_query_unsat_both_modes():
    query = nontrivial_query(COMPLETE)
    assert not query_sat(query)
    for use_gauss in (False, True):
        stats = solve(query, use_gauss=use_gauss)
        assert stats.result == UNSAT


def test_degenerate_system_query_sat_with_nonzero_model():
    query = nontrivial_query(TWO_CLAUSE)
    assert query_sat(query)
    for use_gauss in (False, True):
        stats = solve(query, use_gauss=use_gauss)
        assert stats.result == SAT
        assert check_model(TWO_CLAUSE, stats.model)
    assert not xorsat._verify_model(query, (0, 0, 0, 0))


def test_solve_raises_on_a_model_that_fails_the_query(monkeypatch):
    monkeypatch.setattr(xorsat, "_verify_model", lambda query, model: False)
    with pytest.raises(AssertionError, match="fails the query"):
        solve(nontrivial_query(TWO_CLAUSE))
    # The check is no assert statement, so python -O keeps it.
    code = (
        "from xorcfi import xorsat\n"
        "from xorcfi.formula import make_formula\n"
        "xorsat._verify_model = lambda query, model: False\n"
        "print(__debug__)\n"
        "try:\n"
        "    xorsat.solve(xorsat.nontrivial_query(make_formula(4, [((1, 2, 3), 0)])))\n"
        "except AssertionError as exc:\n"
        "    print(exc)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(xorsat.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.splitlines() == ["False", "the SAT model fails the query"]


def test_level0_units_sat_zero_decisions():
    # The clause over one variable is a unit, and so is the clause over
    # two once the hand-built unit row x2 = 0 leaves it one variable.
    for query, model in ((nontrivial_query(make_formula(1, [])), (1,)),
                         (NonzeroQuery(2, (0b10,)), (1, 0))):
        stats = solve(query)
        assert (stats.result, stats.decisions, stats.propagations, stats.model) == (
            SAT, 0, query.n, model)


def test_verdict_agrees_with_brute_force_on_200_inputs():
    rnd = random.Random(424242)
    for i in range(200):
        f = random_formula(rnd, n_max=16 if i % 4 == 0 else 10)
        query = nontrivial_query(f)
        expected = query_sat(query)
        plain = solve(query, use_gauss=False)
        gauss = solve(query, use_gauss=True)
        assert plain.result == (SAT if expected else UNSAT), f
        assert gauss.result == plain.result, f
        if expected:
            assert check_model(f, plain.model)
            assert check_model(f, gauss.model)


def test_budget_only_resolves_never_flips():
    rnd = random.Random(7)
    for _ in range(40):
        query = nontrivial_query(random_formula(rnd, n_max=8))
        unlimited = solve(query)
        small = solve(query, max_decisions=1)
        assert small.result in (unlimited.result, BUDGET_EXHAUSTED)
        assert solve(query, max_decisions=10**9).result == unlimited.result


def test_budget_exhaustion_reported():
    f = make_formula(12, [(t, 0) for t in _triples_12()])
    stats = solve(nontrivial_query(f), use_gauss=False, max_decisions=1)
    assert stats.result == BUDGET_EXHAUSTED


def _triples_12():
    # Deterministic mid-density triple set on 12 variables.
    out = []
    for i in range(1, 11):
        out.append((i, i + 1, i + 2))
        out.append((i, i + 1, 12 if i + 3 > 12 else i + 3))
    return sorted(set(tuple(sorted(t)) for t in out))


def test_decisions_deterministic():
    query = nontrivial_query(COMPLETE)
    runs = [solve(query, use_gauss=False).decisions for _ in range(3)]
    assert len(set(runs)) == 1


def test_gauss_mode_presolves_full_rank_instantly(monkeypatch):
    # A refutation at level 0 builds no pick array and keeps no relation.
    def not_built(solver, *args):
        raise AssertionError("the refutation built search state")

    monkeypatch.setattr(xorsat._Solver, "_row_columns", not_built)
    monkeypatch.setattr(xorsat._Solver, "_keep", not_built)
    stats = solve(nontrivial_query(COMPLETE), use_gauss=True)
    assert stats.result == UNSAT and stats.decisions == 0


def test_gauss_mode_elapsed_includes_presolve(monkeypatch):
    real = xorsat.reduced_system

    def slow_reduced_system(*args):
        time.sleep(0.05)
        return real(*args)

    monkeypatch.setattr(xorsat, "reduced_system", slow_reduced_system)
    stats = solve(nontrivial_query(COMPLETE), use_gauss=True)
    assert stats.decisions == 0
    assert stats.elapsed >= 0.05


def test_gauss_mode_refutes_unsorted_full_rank_rows():
    # A query built by hand may hold rows, and variables within a row,
    # out of order.
    rows = [((4, 2, 3), 0), ((3, 1, 4), 0), ((1, 2, 3), 0), ((2, 1, 4), 0)]
    query = NonzeroQuery(4, pack_rows(4, rows))
    assert not query_sat(query)
    assert solve(query).result == UNSAT
    stats = solve(query, use_gauss=True)
    assert stats.result == UNSAT and stats.decisions == 0


def test_solve_refuses_a_row_with_a_right_hand_side(monkeypatch):
    def no_presolve(*args):
        raise AssertionError("the presolve ran")

    monkeypatch.setattr(xorsat, "reduced_system", no_presolve)
    for row in (1 << 3 | 0b111, 1 << 8 | 0b011):
        for use_gauss in (False, True):
            with pytest.raises(ValueError, match="homogeneous rows only"):
                solve(NonzeroQuery(3, (0b110, row)), use_gauss=use_gauss)


# -- gauss gap -------------------------------------------------------------


def test_gauss_ratio_deterministic_and_finite():
    gap1 = gauss_ratio(COMPLETE)
    gap2 = gauss_ratio(COMPLETE)
    assert gap1.ratio == gap2.ratio
    assert gap1.ratio == gap1.plain.decisions / 1


def test_gauss_ratio_infinite_on_plain_side_exhaustion():
    f = make_formula(12, [(t, 0) for t in _triples_12()])
    gap = gauss_ratio(f, max_decisions=1)
    assert gap.plain.result == BUDGET_EXHAUSTED
    assert gap.ratio == float("inf")


def test_gauss_ratio_is_nan_on_a_satisfiable_query():
    # Two disjoint clauses: rank 2 over six variables, as perfbench's
    # set-up probe calls it.
    gap = gauss_ratio(make_formula(6, [((1, 2, 3), 0), ((4, 5, 6), 0)]))
    assert gap.plain.result == SAT
    assert math.isnan(gap.ratio)


def test_gauss_ratio_rejects_nonhomogeneous():
    with pytest.raises(ValueError):
        gauss_ratio(make_formula(3, [((1, 2, 3), 1)]))


def test_nontrivial_query_shape():
    assert nontrivial_query(TWO_CLAUSE) == (4, to_matrix(TWO_CLAUSE))
    with pytest.raises(ValueError, match="at least one variable"):
        nontrivial_query(make_formula(0, []))


# -- golden counters -------------------------------------------------------

# (seed, ratio, use_gauss) -> (result, decisions, propagations, conflicts,
# the variables a SAT model sets to 1) for the nonzero-solution query of
# an n=200 homogeneous sample, recorded before the column-major GF(2)
# elimination and the set-bit row decoding of the Gauss presolve.
GOLDEN_N200 = {
    (1, 1.0, True): (SAT, 14, 200, 0, (200,)),
    (1, 1.0, False): (SAT, 23, 200, 0, (200,)),
    (4, 2.0, True): (SAT, 0, 200, 0, (79,)),
    (4, 2.0, False): (SAT, 6, 200, 0, (79,)),
    (2, 2.0, True): (UNSAT, 0, 199, 1, None),
    (2, 2.0, False): (UNSAT, 31, 1033, 32, None),
    (6, 2.0, True): (UNSAT, 0, 199, 1, None),
    (6, 2.0, False): (UNSAT, 63, 2556, 64, None),
}


@pytest.mark.parametrize("key", sorted(GOLDEN_N200))
def test_solve_counters_match_golden_n200(key):
    seed, ratio, use_gauss = key
    f = sample_homogeneous(SampleConfig(n=200, ratio=ratio, seed=seed))
    s = solve(nontrivial_query(f), use_gauss=use_gauss)
    ones = None if s.model is None else tuple(i + 1 for i, v in enumerate(s.model) if v)
    assert (s.result, s.decisions, s.propagations, s.conflicts, ones) == GOLDEN_N200[key]


# The scale workload's accepted trial: an n=1000, m=2000 query whose plain
# run reaches its decision budget, recorded before the numpy branch pick.
SCALE_SEED = 1868515624530699897
GOLDEN_SCALE = (BUDGET_EXHAUSTED, 4096, 242749, 4088)


@functools.lru_cache(maxsize=None)
def _scale_query():
    return nontrivial_query(sample_homogeneous(SampleConfig(n=1000, ratio=2.0, seed=SCALE_SEED)))


def test_plain_run_counters_match_golden_at_budget():
    s = solve(_scale_query(), max_decisions=4096)
    assert (s.result, s.decisions, s.propagations, s.conflicts) == GOLDEN_SCALE


# The same query without a budget: a complete tree of depth 18. The
# depth-first oracle takes about a minute to count it.
GOLDEN_SCALE_UNBUDGETED = (UNSAT, 262143, 15520078, 262144)


def test_plain_run_counters_match_golden_unbudgeted():
    s = solve(_scale_query())
    assert (s.result, s.decisions, s.propagations, s.conflicts) == GOLDEN_SCALE_UNBUDGETED


# -- gauss gap against the two-run oracle ----------------------------------


def _full_rank_ratio_corpus():
    """(formula, budget) pairs: the full-rank draws of the pipeline's
    filter cases and of GOLDEN_N200 at each budget, and the scale query
    at 4096, where the plain run stops."""
    draws = dict.fromkeys((cfg.sample_config, trial)
                          for cfg, _ in FILTER_CASES for trial in range(cfg.trials))
    draws.update(dict.fromkeys((SampleConfig(n=200, ratio=ratio, seed=seed), 0)
                               for seed, ratio, _ in GOLDEN_N200))
    for cfg, trial in draws:
        f = sample_homogeneous(cfg, trial)
        if is_uniquely_satisfiable(f):
            for budget in (None, 0, 1, 7, 64, 4096):
                yield f, budget
    yield sample_homogeneous(SampleConfig(n=1000, ratio=2.0, seed=SCALE_SEED)), 4096


def test_gauss_ratio_matches_two_run_oracle_on_full_rank_draws():
    ratios = Counter()
    for f, budget in _full_rank_ratio_corpus():
        ratio = gauss_ratio(f, budget).ratio
        assert repr(ratio) == repr(two_run_gauss_ratio(f, budget)), (f.n, budget)
        ratios[math.isinf(ratio)] += 1
    assert ratios[True] and ratios[False]


# -- branching against the rescan oracle -----------------------------------


def _wide_row_queries():
    """Hand-built queries: rows of 1, 2, 3, 4, 257 and 300 variables over
    n = 300, and the clause alone. The 257 variables of the long row
    start free, so a row length counted in a byte would read 1."""
    n = 300
    widths = ((1,), (2, 3), (4, 5, 6), (7, 8, 9, 10), range(44, n + 1), range(1, n + 1))
    yield NonzeroQuery(n, tuple(sum(1 << (v - 1) for v in vs) for vs in widths))
    yield NonzeroQuery(5, ())


def _branch_corpus():
    """(query, use_gauss, max_decisions) triples: random formulas, sampled
    ones of 8 to 60 variables, the wide-row queries and the scale query
    at a budget."""
    rnd = random.Random(20261018)
    for i in range(600):
        yield nontrivial_query(random_formula(rnd)), i % 3 == 0, 4 if i % 10 == 9 else None
    for i in range(200):
        n = 8 + (i * 13) % 53
        f = sample_homogeneous(SampleConfig(n=n, ratio=1.0 + (i % 9) / 8, seed=900 + i))
        for use_gauss in (False, True):
            yield nontrivial_query(f), use_gauss, 4 if i % 10 == 9 else None
    for query in _wide_row_queries():
        yield query, False, None
    yield _scale_query(), False, 64


def _rescan_clause_len(solver) -> int:
    """The length of the clause "some variable is 1" by a rescan: n minus
    the assigned variables while none is 1, and otherwise 0."""
    values = solver.assign[1:]
    return 0 if 1 in values else solver.n - sum(v != UNASSIGNED for v in values)


def _clause_is_shortest(solver) -> bool:
    """Whether the clause "some variable is 1" is active and no active
    row is shorter."""
    length = _rescan_clause_len(solver)
    rows = (sum(solver.assign[v] == UNASSIGNED for v in vs) for vs in solver.xors)
    return length > 0 and all(k == 0 or k >= length for k in rows)


def test_branch_pick_matches_rescan_at_every_decision(monkeypatch):
    picks = []
    clause_shortest = 0
    numpy_pick = xorsat._Solver._pick_branch_var

    def checked_pick(solver, *arrays):
        nonlocal clause_shortest
        var = numpy_pick(solver, *arrays)
        assert var == rescan_branch_var(solver)
        # Each pick is the all-zero path's, made for every node of its
        # depth; the clause's length there is exact.
        assert solver.clause_len == _rescan_clause_len(solver)
        picks.append(var)
        clause_shortest += _clause_is_shortest(solver)
        return var

    monkeypatch.setattr(xorsat._Solver, "_pick_branch_var", checked_pick)
    outcomes = Counter()
    for query, use_gauss, budget in _branch_corpus():
        outcomes[solve(query, use_gauss=use_gauss, max_decisions=budget).result] += 1
    assert set(outcomes) == {SAT, UNSAT, BUDGET_EXHAUSTED}, outcomes
    assert sum(v is not None for v in picks) > 1000
    # Some picks score the clause's variables, not only the rows'.
    assert clause_shortest > 0


# -- propagation against the counter-and-trail oracle ----------------------


def _long_row_corpus():
    """(query, True, max_decisions) triples of sparse homogeneous systems:
    at m < n the Gauss presolve is rank-deficient, and its reduced rows
    are often longer than 3."""
    rnd = random.Random(20261019)
    for i in range(300):
        n = rnd.randint(6, 40)
        m = rnd.randint(n // 4, 3 * n // 4)
        triples = set()
        while len(triples) < m:
            triples.add(tuple(sorted(rnd.sample(range(1, n + 1), 3))))
        f = make_formula(n, [(t, 0) for t in triples])
        yield nontrivial_query(f), True, 3 if i % 10 == 9 else None


def _long_rows(corpus):
    """The rows of more than 3 variables that the solver is handed."""
    count = 0
    for query, use_gauss, _ in corpus:
        rows = reduced_system(query.rows, query.n) if use_gauss else query.rows
        count += sum(row.bit_count() > 3 for row in rows)
    return count


def test_long_row_corpus_is_rich_in_long_rows():
    # The branch corpus hands the solver 34 such rows among ~23k.
    assert _long_rows(_long_row_corpus()) > 1000


def test_solve_matches_counter_trail_oracle():
    outcomes = Counter()
    for query, use_gauss, budget in itertools.chain(_branch_corpus(), _long_row_corpus()):
        got = solve(query, use_gauss=use_gauss, max_decisions=budget)
        want = reference_solve(query, use_gauss, budget, solver=CounterTrailSolver)
        assert (got.result, got.decisions, got.propagations, got.conflicts, got.model) == (
            want.result, want.decisions, want.propagations, want.conflicts, want.model), query
        outcomes[got.result, got.decisions > 0, got.conflicts > 0] += 1
    assert {(SAT, True, True), (UNSAT, True, True), (BUDGET_EXHAUSTED, True, True)} <= set(outcomes)


# -- the search tree the solver relies on ----------------------------------


class _DepthRecorder(DfsSolver):
    """DfsSolver that records (depth, variable) at each pick. A node's
    depth is the count of decisions on its path: every propagation after
    the first pick starts from one decision, at value 0 below the node
    that picked it, or at value 1 back at that node."""

    def __init__(self, n, rows):
        super().__init__(n, rows)
        self.path = None  # the decision variables of the current node
        self.picks = []

    def _pick_branch_var(self, cols, values):
        var = super()._pick_branch_var(cols, values)
        if self.path is None:
            self.path = []
        if var is not None:
            self.picks.append((len(self.path), var))
        return var

    def _propagate(self, pending):
        if self.path is not None:
            (var, value), = pending
            if value:
                while self.path[-1] != var:
                    self.path.pop()
            else:
                self.path.append(var)
        return super()._propagate(pending)


def test_oracle_tree_has_one_branch_variable_per_depth():
    # The premise of the per-depth pass, checked on the depth-first oracle
    # alone: every node of one depth picks the same variable, the all-zero
    # path's node (the first pick at each depth) included.
    runs = itertools.chain(_branch_corpus(), _long_row_corpus(), [(_scale_query(), False, 4096)])
    shared = 0
    for query, use_gauss, budget in runs:
        rows = reduced_system(query.rows, query.n) if use_gauss else query.rows
        solver = _DepthRecorder(query.n, rows)
        solver.run(budget, time.monotonic())
        by_depth = {}
        for depth, var in solver.picks:
            by_depth.setdefault(depth, []).append(var)
        for depth, picked in by_depth.items():
            assert set(picked) == {picked[0]}, (query, use_gauss, budget, depth)
            shared += len(picked) > 1
    # Depths whose all-zero node has a sibling that picks.
    assert shared > 300


def _sweep_queries():
    """60 sampled queries of 10 to 49 variables at ratios 1 to 2."""
    for i in range(60):
        n = 10 + (i * 7) % 40
        f = sample_homogeneous(SampleConfig(n=n, ratio=1.0 + (i % 11) / 10, seed=3100 + i))
        yield nontrivial_query(f)


def test_solve_matches_oracle_at_every_budget():
    # Every budget from 0 to one past the unbudgeted decision count, so
    # the cut falls at every point of the search.
    outcomes = Counter()
    for query in _sweep_queries():
        for use_gauss in (False, True):
            full = reference_solve(query, use_gauss)
            for budget in range(full.decisions + 2):
                got = solve(query, use_gauss=use_gauss, max_decisions=budget)
                want = reference_solve(query, use_gauss, budget)
                assert (got.result, got.decisions, got.propagations, got.conflicts, got.model) == (
                    want.result, want.decisions, want.propagations, want.conflicts, want.model), (
                    query, use_gauss, budget)
                outcomes[got.result] += 1
    assert set(outcomes) == {SAT, UNSAT, BUDGET_EXHAUSTED}, outcomes
    assert sum(outcomes.values()) > 400
