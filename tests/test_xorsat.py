"""DPLL solver on the nonzero-solution query against a truth-table oracle
and the depth-first search that it counts one depth at a time."""

import contextlib
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

from xorcfi import pipeline, xorsat
from xorcfi.formula import has_full_rank, is_uniquely_satisfiable, make_formula, to_matrix
from xorcfi.pipeline import PipelineConfig, run_trial
from xorcfi.sampler import SampleConfig, sample_homogeneous
from xorcfi.xorsat import (
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
    packed_rows,
    reduced_system,
    reference_solve,
    rescan_branch_var,
    satisfies,
    trial_draw,
    two_run_gauss_ratio,
)
from test_pipeline import FILTER_CASES


# -- oracle ----------------------------------------------------------------


def query_sat(query: NonzeroQuery) -> bool:
    """Whether some assignment sets a variable to 1 and meets every row."""
    return brute_sat(query.n, [range(1, query.n + 1)], packed_rows(query))


def check_model(f, model) -> bool:
    return any(model) and satisfies(f, model)


def full_rank(query: NonzeroQuery) -> bool:
    """Whether the rows have rank n, the only queries the Gauss presolve
    takes."""
    return has_full_rank(query.n, query.rows)


def unit_rows(n: int):
    """The reduced echelon form of every full-rank system over n
    variables, which the Gauss presolve of solve relies on."""
    return [1 << j for j in range(n)]


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
    stats = solve(query)
    assert stats.result == SAT
    assert check_model(TWO_CLAUSE, stats.model)
    with pytest.raises(ValueError, match="full-rank queries only"):
        solve(query, use_gauss=True)
    # The zero model, and a nonzero one that breaks a row.
    for model in ((0, 0, 0, 0), (1, 0, 0, 0)):
        assert not xorsat._verify_model(query, model)


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
    # The clause over one variable is the one level-0 unit.
    stats = solve(nontrivial_query(make_formula(1, [])))
    assert (stats.result, stats.decisions, stats.propagations, stats.conflicts,
            stats.model) == (SAT, 0, 1, 0, (1,))


def test_verdict_agrees_with_brute_force_on_200_inputs():
    rnd = random.Random(424242)
    for i in range(200):
        f = random_formula(rnd, n_max=16 if i % 4 == 0 else 10)
        query = nontrivial_query(f)
        expected = query_sat(query)
        plain = solve(query, use_gauss=False)
        assert plain.result == (SAT if expected else UNSAT), f
        if expected:
            assert check_model(f, plain.model)
            # A nonzero solution leaves the rows rank-deficient.
            with pytest.raises(ValueError, match="full-rank queries only"):
                solve(query, use_gauss=True)
        else:
            assert solve(query, use_gauss=True).result == UNSAT, f


def test_decisions_deterministic():
    query = nontrivial_query(COMPLETE)
    runs = [solve(query, use_gauss=False).decisions for _ in range(3)]
    assert len(set(runs)) == 1


def test_gauss_mode_presolves_full_rank_instantly(monkeypatch):
    # The presolved run's counts are a closed form: no solver is built.
    def not_built(*args):
        raise AssertionError("the presolve built a solver")

    monkeypatch.setattr(xorsat, "_Solver", not_built)
    stats = solve(nontrivial_query(COMPLETE), use_gauss=True)
    assert (stats.result, stats.decisions, stats.propagations, stats.conflicts,
            stats.model) == (UNSAT, 0, 3, 1, None)


def test_gauss_mode_elapsed_includes_presolve(monkeypatch):
    real = xorsat.has_full_rank

    def slow_rank(*args):
        time.sleep(0.05)
        return real(*args)

    monkeypatch.setattr(xorsat, "has_full_rank", slow_rank)
    stats = solve(nontrivial_query(COMPLETE), use_gauss=True)
    assert stats.decisions == 0
    assert stats.elapsed >= 0.05


def test_gauss_mode_refutes_unsorted_full_rank_rows():
    # A query built by hand may hold its rows out of order.
    query = NonzeroQuery(4, ((2, 3, 4), (1, 3, 4), (1, 2, 3), (1, 2, 4)))
    assert not query_sat(query)
    assert solve(query).result == UNSAT
    stats = solve(query, use_gauss=True)
    assert stats.result == UNSAT and stats.decisions == 0


def test_solve_refuses_what_it_does_not_search(monkeypatch):
    # A query over no variable, and a row that is not 3 strictly
    # increasing variables of 1..n, is refused in both modes before the
    # presolve, and a rank-deficient presolve after it; none of them
    # builds any search state.
    def no_search_state(solver, *args):
        raise AssertionError("the refusal built search state")

    def no_presolve(*args):
        raise AssertionError("the presolve ran")

    monkeypatch.setattr(xorsat._Solver, "_row_columns", no_search_state)
    monkeypatch.setattr(xorsat._Solver, "_keep", no_search_state)
    n = 300
    no_variable = "needs at least one variable"
    outside = [(NonzeroQuery(k, ()), no_variable) for k in (0, -1)]
    bad_rows = "rows of 3 strictly increasing variables of 1..n only"
    outside += [(NonzeroQuery(n, ((1, 2, 3), tuple(vs))), bad_rows)
                for vs in ((), (5,), (5, 6), (7, 8, 9, 10), range(44, n + 1), range(1, n + 1),
                           (4, 2, 3), (2, 4, 3), (3, 3, 4), (2, 3, 3), (0, 1, 2), (1, 2, n + 1))]
    with monkeypatch.context() as m:
        m.setattr(xorsat, "has_full_rank", no_presolve)
        for query, message in outside:
            for use_gauss in (False, True):
                with pytest.raises(ValueError, match=message):
                    solve(query, use_gauss=use_gauss)
    for query in (nontrivial_query(TWO_CLAUSE), NonzeroQuery(5, ())):
        assert not full_rank(query)
        with pytest.raises(ValueError, match="full-rank queries only"):
            solve(query, use_gauss=True)


# -- gauss gap -------------------------------------------------------------


def test_gauss_ratio_deterministic_and_finite():
    ratio = gauss_ratio(COMPLETE)
    assert ratio == gauss_ratio(COMPLETE)
    assert ratio == solve(nontrivial_query(COMPLETE)).decisions / 1


def test_gauss_ratio_is_nan_on_a_satisfiable_query():
    # Two disjoint clauses: rank 2 over six variables, as perfbench's
    # set-up probe calls it.
    f = make_formula(6, [((1, 2, 3), 0), ((4, 5, 6), 0)])
    assert solve(nontrivial_query(f)).result == SAT
    assert math.isnan(gauss_ratio(f))


def test_gauss_ratio_rejects_nonhomogeneous():
    with pytest.raises(ValueError):
        gauss_ratio(make_formula(3, [((1, 2, 3), 1)]))


def test_nontrivial_query_shape():
    assert nontrivial_query(TWO_CLAUSE) == (4, ((1, 2, 3), (1, 2, 4)))
    with pytest.raises(ValueError, match="at least one variable"):
        nontrivial_query(make_formula(0, []))


# -- golden counters -------------------------------------------------------

# (seed, ratio, use_gauss) -> (result, decisions, propagations, conflicts,
# the variables a SAT model sets to 1) for the nonzero-solution query of
# an n=200 homogeneous sample, recorded before the column-major GF(2)
# elimination and the set-bit row decoding of the Gauss presolve.
GOLDEN_N200 = {
    (1, 1.0, False): (SAT, 23, 200, 0, (200,)),
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
# run is a complete tree of depth 18. The depth-first oracle takes about
# a minute to count it.
SCALE_SEED = 1868515624530699897
GOLDEN_SCALE_UNBUDGETED = (UNSAT, 262143, 15520078, 262144)


@functools.lru_cache(maxsize=None)
def _scale_query():
    return nontrivial_query(sample_homogeneous(SampleConfig(n=1000, ratio=2.0, seed=SCALE_SEED)))


def test_plain_run_counters_match_golden_unbudgeted():
    s = solve(_scale_query())
    assert (s.result, s.decisions, s.propagations, s.conflicts) == GOLDEN_SCALE_UNBUDGETED


# -- gauss gap against the two-run oracle ----------------------------------


def _full_rank_ratio_corpus():
    """The full-rank draws of the pipeline's filter cases and of
    GOLDEN_N200, then the scale query's formula."""
    draws = dict.fromkeys((cfg.sample_config, trial)
                          for cfg, _ in FILTER_CASES for trial in range(cfg.trials))
    draws.update(dict.fromkeys((SampleConfig(n=200, ratio=ratio, seed=seed), 0)
                               for seed, ratio, _ in GOLDEN_N200))
    for cfg, trial in draws:
        f = sample_homogeneous(cfg, trial)
        if is_uniquely_satisfiable(f):
            yield f
    yield sample_homogeneous(SampleConfig(n=1000, ratio=2.0, seed=SCALE_SEED))


def test_gauss_ratio_matches_two_run_oracle_on_full_rank_draws():
    for f in _full_rank_ratio_corpus():
        ratio = gauss_ratio(f)
        assert repr(ratio) == repr(two_run_gauss_ratio(f)), f.n
        # The presolved run of the oracle searches the unit rows.
        assert reduced_system(to_matrix(f), f.n) == unit_rows(f.n), f.n
    assert ratio == 262143.0  # the scale formula's, last


def test_run_trial_cross_checks_the_scale_trial_at_a_small_budget(monkeypatch):
    # perfbench's scale workload passes --budget-decisions 4096; the plain
    # run still counts its whole tree, so the SAT cross-check decides.
    cfg = PipelineConfig(n=1000, ratio=2.0, seed=SCALE_SEED, budget=4096)
    real = pipeline.gauss_ratio
    calls = []

    def recorded(f):
        calls.append((f, real(f)))
        return calls[-1][1]

    monkeypatch.setattr(pipeline, "gauss_ratio", recorded)
    outcome = run_trial(cfg, trial_draw(cfg, 0))
    ((f, ratio),) = calls
    plain = solve(nontrivial_query(f))
    assert (plain.result, plain.decisions, plain.propagations, plain.conflicts) == (
        GOLDEN_SCALE_UNBUDGETED)
    assert ratio == float(plain.decisions)
    assert outcome.accepted and outcome.record.gauss_ratio == 262143.0

    # A SAT plain run scores nan.
    monkeypatch.setattr(pipeline, "gauss_ratio", lambda f: float("nan"))
    with pytest.raises(AssertionError, match="rank check and SAT cross-check disagree"):
        run_trial(cfg, trial_draw(cfg, 0))


# -- branching against the rescan oracle -----------------------------------


def _hand_built_queries():
    """One row over n = 300, and the clause alone."""
    yield NonzeroQuery(300, ((4, 5, 6),))
    yield NonzeroQuery(5, ())


def _branch_corpus():
    """(query, use_gauss) pairs: random formulas, sampled ones of 8 to 60
    variables and the hand-built queries, each in plain mode, and in
    Gauss mode the full-rank ones of every third random formula and of
    every sampled one."""
    rnd = random.Random(20261018)
    queries = [(nontrivial_query(random_formula(rnd)), i % 3 == 0) for i in range(600)]
    for i in range(200):
        n = 8 + (i * 13) % 53
        f = sample_homogeneous(SampleConfig(n=n, ratio=1.0 + (i % 9) / 8, seed=900 + i))
        queries.append((nontrivial_query(f), True))
    queries += [(query, False) for query in _hand_built_queries()]
    for query, gauss in queries:
        yield query, False
        if gauss and full_rank(query):
            yield query, True


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
    for query, use_gauss in itertools.chain(_branch_corpus(), [(_scale_query(), False)]):
        outcomes[solve(query, use_gauss=use_gauss).result] += 1
    assert set(outcomes) == {SAT, UNSAT}, outcomes
    assert sum(v is not None for v in picks) > 1000
    # Some picks score the clause's variables, not only the rows'.
    assert clause_shortest > 0


# -- propagation against the counter-and-trail oracle ----------------------


def test_solve_matches_counter_trail_oracle():
    outcomes = Counter()
    for query, use_gauss in _branch_corpus():
        got = solve(query, use_gauss=use_gauss)
        want = reference_solve(query, use_gauss, solver=CounterTrailSolver)
        assert (got.result, got.decisions, got.propagations, got.conflicts, got.model) == (
            want.result, want.decisions, want.propagations, want.conflicts, want.model), query
        if not use_gauss:
            outcomes[got.result, got.decisions > 0, got.conflicts > 0] += 1
    assert {(SAT, True, True), (UNSAT, True, True)} <= set(outcomes)


# -- the search tree the solver relies on ----------------------------------


class _EnoughPicks(Exception):
    """Ends a recorded search once it has made its picks."""


class _DepthRecorder(DfsSolver):
    """DfsSolver that records (depth, variable) at each pick, and raises
    _EnoughPicks before a pick past max_picks. A node's depth is the count
    of decisions on its path: every propagation after the first pick
    starts from one decision, at value 0 below the node that picked it,
    or at value 1 back at that node."""

    def __init__(self, n, rows, max_picks=None):
        super().__init__(n, rows)
        self.path = None  # the decision variables of the current node
        self.picks = []
        self.max_picks = max_picks

    def _pick_branch_var(self, cols, values):
        if len(self.picks) == self.max_picks:
            raise _EnoughPicks
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
    runs = [(query, use_gauss, None) for query, use_gauss in _branch_corpus()]
    # The scale query's whole tree takes the oracle a minute: its first
    # 4096 picks.
    runs.append((_scale_query(), False, 4096))
    shared = 0
    for query, use_gauss, max_picks in runs:
        rows = packed_rows(query)
        if use_gauss:
            rows = reduced_system(rows, query.n)
            assert rows == unit_rows(query.n), query
        solver = _DepthRecorder(query.n, rows, max_picks)
        with contextlib.suppress(_EnoughPicks):
            solver.run(time.monotonic())
        by_depth = {}
        for depth, var in solver.picks:
            by_depth.setdefault(depth, []).append(var)
        for depth, picked in by_depth.items():
            assert set(picked) == {picked[0]}, (query, use_gauss, depth)
            shared += len(picked) > 1
    # Depths whose all-zero node has a sibling that picks.
    assert shared > 300


def _sweep_queries():
    """140 sampled queries of 10 to 49 variables at ratios 1 to 2."""
    for i in range(140):
        n = 10 + (i * 7) % 40
        f = sample_homogeneous(SampleConfig(n=n, ratio=1.0 + (i % 11) / 10, seed=3100 + i))
        yield nontrivial_query(f)


def test_solve_matches_dfs_oracle_on_sampled_queries():
    outcomes = Counter()
    for query in _sweep_queries():
        for use_gauss in (False, True) if full_rank(query) else (False,):
            if use_gauss:
                assert reduced_system(packed_rows(query), query.n) == unit_rows(query.n), query
            got = solve(query, use_gauss=use_gauss)
            want = reference_solve(query, use_gauss)
            assert (got.result, got.decisions, got.propagations, got.conflicts, got.model) == (
                want.result, want.decisions, want.propagations, want.conflicts, want.model), (
                query, use_gauss)
            if not use_gauss:
                outcomes[got.result, got.conflicts > 0] += 1
    # A SAT run that conflicts has its first live leaf off the all-zero
    # path; the first 60 queries hold none, and queries 68 to 133 do.
    # Gauss mode refutes with 0 decisions and adds no outcome of its own.
    assert set(outcomes) == {(SAT, False), (SAT, True), (UNSAT, True)}, outcomes
    # The scale query's presolved run: perfbench's round-0 Gauss-side
    # counts on scale, which the closed form must reproduce.
    got = solve(_scale_query(), use_gauss=True)
    want = reference_solve(_scale_query(), use_gauss=True)
    assert (got.result, got.decisions, got.propagations, got.conflicts, got.model) == (
        want.result, want.decisions, want.propagations, want.conflicts, want.model) == (
        UNSAT, 0, 999, 1, None)
