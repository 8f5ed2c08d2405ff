"""DPLL solver against a vectorized truth-table oracle."""

import functools
import itertools
import random
import time
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from xorcfi import xorsat
from xorcfi.formula import CnfFormula, XorClause, make_formula, to_matrix
from xorcfi.gf2 import reduced_system
from xorcfi.sampler import SampleConfig, sample_homogeneous
from xorcfi.xorsat import (
    BUDGET_EXHAUSTED,
    SAT,
    UNSAT,
    gauss_ratio,
    nontrivial_query,
    solve,
)

from oracles import (
    COMPLETE,
    TWO_CLAUSE,
    brute_sat,
    counter_trail_solve,
    nontrivial_solution_formula,
    rescan_branch_var,
)


# -- oracle ----------------------------------------------------------------


def check_model(cnf: CnfFormula, model) -> bool:
    for clause in cnf.clauses:
        if not any((model[abs(l) - 1] == 1) == (l > 0) for l in clause):
            return False
    return all(xc.satisfied_by(model) for xc in cnf.xors)


def random_inputs(rnd, n_max=16):
    n = rnd.randint(1, n_max)
    clauses = []
    for _ in range(rnd.randint(0, 2 * n)):
        width = rnd.randint(1, min(3, n))
        vs = rnd.sample(range(1, n + 1), width)
        clauses.append(tuple(v if rnd.random() < 0.5 else -v for v in vs))
    xors = []
    if n >= 3:
        seen = set()
        for _ in range(rnd.randint(0, 2 * n)):
            vs = tuple(sorted(rnd.sample(range(1, n + 1), 3)))
            if vs in seen:
                continue
            seen.add(vs)
            xors.append(XorClause(vs, rnd.randint(0, 1)))
    return CnfFormula(n, tuple(clauses), tuple(sorted(xors)))


# -- frozen examples -------------------------------------------------------


def test_unique_system_query_unsat_both_modes():
    query = nontrivial_query(COMPLETE)
    assert not brute_sat(query)
    for use_gauss in (False, True):
        stats = solve(query, use_gauss=use_gauss)
        assert stats.result == UNSAT


def test_degenerate_system_query_sat_with_nonzero_model():
    query = nontrivial_query(TWO_CLAUSE)
    assert brute_sat(query)
    for use_gauss in (False, True):
        stats = solve(query, use_gauss=use_gauss)
        assert stats.result == SAT
        assert any(stats.model)
        assert check_model(query, stats.model)


def test_empty_cnf_sat_zero_decisions():
    stats = solve(CnfFormula(3, ()))
    assert stats.result == SAT and stats.decisions == 0


def test_verdict_agrees_with_brute_force_on_200_inputs():
    import random

    rnd = random.Random(424242)
    for i in range(200):
        cnf = random_inputs(rnd, n_max=16 if i % 4 == 0 else 10)
        expected = brute_sat(cnf)
        plain = solve(cnf, use_gauss=False)
        gauss = solve(cnf, use_gauss=True)
        assert plain.result == (SAT if expected else UNSAT), cnf
        assert gauss.result == plain.result, cnf
        if expected:
            assert check_model(cnf, plain.model)
            assert check_model(cnf, gauss.model)


def test_budget_only_resolves_never_flips():
    import random

    rnd = random.Random(7)
    for _ in range(40):
        cnf = random_inputs(rnd, n_max=8)
        unlimited = solve(cnf)
        small = solve(cnf, max_decisions=1)
        assert small.result in (unlimited.result, BUDGET_EXHAUSTED)
        assert solve(cnf, max_decisions=10**9).result == unlimited.result


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


def test_gauss_mode_presolves_full_rank_instantly():
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


def test_gauss_mode_refutes_unsorted_contradictory_xor_rows():
    # CnfFormula keeps XOR rows as given, so they may be unsorted and contradict.
    cnf = CnfFormula(4, (), (XorClause((2, 3, 4), 0), XorClause((1, 2, 3), 1),
                             XorClause((1, 2, 3), 0)))
    assert not brute_sat(cnf)
    assert solve(cnf).result == UNSAT
    stats = solve(cnf, use_gauss=True)
    assert stats.result == UNSAT and stats.decisions == 0


# -- gauss gap -------------------------------------------------------------


def test_gauss_ratio_deterministic_and_finite():
    gap1 = gauss_ratio(COMPLETE)
    gap2 = gauss_ratio(COMPLETE)
    assert gap1.ratio == gap2.ratio
    assert gap1.with_gauss.decisions == 0
    assert gap1.ratio == gap1.without_gauss.decisions / 1


def test_gauss_ratio_infinite_on_plain_side_exhaustion():
    f = make_formula(12, [(t, 0) for t in _triples_12()])
    gap = gauss_ratio(f, max_decisions=1)
    assert gap.without_gauss.result == BUDGET_EXHAUSTED
    assert gap.ratio == float("inf")


def test_gauss_ratio_rejects_nonhomogeneous():
    with pytest.raises(ValueError):
        gauss_ratio(make_formula(3, [((1, 2, 3), 1)]))


def test_nontrivial_query_shape():
    q = nontrivial_query(TWO_CLAUSE)
    assert q.clauses == ((1, 2, 3, 4),)
    assert q.xors == TWO_CLAUSE.clauses


# -- mixed input -----------------------------------------------------------


def test_solves_mixed_cnf_and_xor_rows():
    cnf = CnfFormula(4, ((1, 2, 3, 4),), (XorClause((1, 2, 3), 0), XorClause((1, 2, 4), 1)))
    expected = SAT if brute_sat(cnf) else UNSAT
    assert solve(cnf).result == expected
    assert solve(cnf, use_gauss=True).result == expected


@settings(max_examples=60, deadline=None)
@given(st.randoms(use_true_random=False))
def test_tautologies_and_duplicates_handled(rnd):
    n = rnd.randint(2, 6)
    clauses = [(1, -1, 2), (2, 2, -1), (min(n, 2),)]
    cnf = CnfFormula(n, tuple(tuple(c) for c in clauses))
    stats = solve(cnf)
    assert (stats.result == SAT) == brute_sat(cnf)


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


# -- branching against the rescan oracle -----------------------------------


def _with_tautologies_and_duplicates(rnd, cnf):
    if cnf.n < 2:
        return cnf
    a, b = rnd.sample(range(1, cnf.n + 1), 2)
    extra = ((a, -a, b), (b, b, -a), (-b, a, -b))
    return CnfFormula(cnf.n, cnf.clauses + extra, cnf.xors)


def _branch_corpus():
    """(input, use_gauss, max_decisions) triples."""
    rnd = random.Random(20261018)
    for i in range(600):
        cnf = random_inputs(rnd)
        if i % 2:
            cnf = _with_tautologies_and_duplicates(rnd, cnf)
        yield cnf, i % 3 == 0, None
    for i in range(24):
        f = sample_homogeneous(SampleConfig(n=8 + i % 12, ratio=1.0 + (i % 5) / 4, seed=300 + i))
        yield nontrivial_solution_formula(f), False, None
    for i in range(200):
        n = 8 + (i * 13) % 53
        f = sample_homogeneous(SampleConfig(n=n, ratio=1.0 + (i % 9) / 8, seed=900 + i))
        for use_gauss in (False, True):
            yield nontrivial_query(f), use_gauss, 4 if i % 10 == 9 else None
    yield _scale_query(), False, 64


def test_branch_pick_matches_rescan_at_every_decision(monkeypatch):
    picks = []
    numpy_pick = xorsat._Solver._pick_branch_var

    def checked_pick(solver, incidence):
        var = numpy_pick(solver, incidence)
        assert var == rescan_branch_var(solver)
        picks.append(var)
        return var

    monkeypatch.setattr(xorsat._Solver, "_pick_branch_var", checked_pick)
    outcomes = Counter()
    for cnf, use_gauss, budget in _branch_corpus():
        outcomes[solve(cnf, use_gauss=use_gauss, max_decisions=budget).result] += 1
    assert set(outcomes) == {SAT, UNSAT, BUDGET_EXHAUSTED}, outcomes
    assert sum(v is not None for v in picks) > 1000


# -- propagation against the counter-and-trail oracle ----------------------


def _long_row_corpus():
    """(input, True, max_decisions) triples of sparse XOR systems with
    random rhs plus a few short clauses: at m < n the Gauss presolve is
    rank-deficient, and its reduced rows are often longer than 3."""
    rnd = random.Random(20261019)
    for i in range(300):
        n = rnd.randint(6, 40)
        m = rnd.randint(n // 4, 3 * n // 4)
        triples = set()
        while len(triples) < m:
            triples.add(tuple(sorted(rnd.sample(range(1, n + 1), 3))))
        xors = tuple(XorClause(t, rnd.randint(0, 1)) for t in sorted(triples))
        clauses = tuple(tuple(v if rnd.random() < 0.5 else -v
                              for v in rnd.sample(range(1, n + 1), rnd.randint(1, 3)))
                        for _ in range(rnd.randint(0, n)))
        yield CnfFormula(n, clauses, xors), True, 3 if i % 10 == 9 else None


def _long_rows(corpus):
    """The rows of more than 3 variables that the solver is handed."""
    count = 0
    for cnf, use_gauss, _ in corpus:
        rows = to_matrix(cnf)
        rows = reduced_system(rows, cnf.n) if use_gauss else rows
        mask = (1 << cnf.n) - 1
        count += sum((row & mask).bit_count() > 3 for row in rows or ())
    return count


def test_long_row_corpus_is_rich_in_long_rows():
    # The branch corpus hands the solver 19 such rows among ~22k.
    assert _long_rows(_long_row_corpus()) > 1000


def test_solve_matches_counter_trail_oracle():
    outcomes = Counter()
    for cnf, use_gauss, budget in itertools.chain(_branch_corpus(), _long_row_corpus()):
        got = solve(cnf, use_gauss=use_gauss, max_decisions=budget)
        want = counter_trail_solve(cnf, use_gauss=use_gauss, max_decisions=budget)
        assert (got.result, got.decisions, got.propagations, got.conflicts, got.model) == (
            want.result, want.decisions, want.propagations, want.conflicts, want.model), cnf
        outcomes[got.result, got.decisions > 0, got.conflicts > 0] += 1
    assert {(SAT, True, True), (UNSAT, True, True), (BUDGET_EXHAUSTED, True, True)} <= set(outcomes)
