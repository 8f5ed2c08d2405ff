"""Formula model, canonicalization, pinning, CNF queries, DIMACS round-trips."""

import itertools
import math
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from xorcfi import formula
from xorcfi.formula import (
    XorClause,
    XorFormula,
    export_xor_dimacs,
    import_xor_dimacs,
    is_uniquely_satisfiable,
    make_formula,
    pin,
    to_matrix,
)
from xorcfi.gf2 import rank
from xorcfi.sampler import SampleConfig, sample_homogeneous

from oracles import (
    COMPLETE,
    TWO_CLAUSE,
    brute_sat,
    brute_solutions,
    kernel_basis,
    nontrivial_solution_formula,
    satisfies,
)


# -- oracles ---------------------------------------------------------------


def eval_cnf(cnf, assignment):
    return all(
        any((assignment[abs(l) - 1] == 1) == (l > 0) for l in clause)
        for clause in cnf
    )


def formulas(max_n=8, homogeneous=True):
    def build(n, seedbits):
        triples = list(itertools.combinations(range(1, n + 1), 3))
        raw = []
        for i, t in enumerate(triples):
            take = (seedbits >> (2 * i)) & 1
            if take:
                rhs = 0 if homogeneous else (seedbits >> (2 * i + 1)) & 1
                raw.append((t, rhs))
        return make_formula(n, raw)

    return st.integers(3, max_n).flatmap(
        lambda n: st.integers(0, 2 ** (2 * len(list(itertools.combinations(range(n), 3)))) - 1).map(
            lambda bits: build(n, bits)
        )
    )


# -- construction ----------------------------------------------------------


def test_make_formula_basic():
    f = make_formula(4, [((1, 2, 3), 0), ((2, 3, 4), 0)])
    assert f.m == 2 and f.is_homogeneous


def test_make_formula_sorts_triples():
    f = make_formula(4, [((3, 2, 1), 0)])
    assert f.clauses[0].vars == (1, 2, 3)


def test_make_formula_merges_duplicates():
    f = make_formula(4, [((1, 2, 3), 0), ((1, 2, 3), 0)])
    assert f.m == 1


def test_make_formula_rejects_repeated_variable():
    with pytest.raises(ValueError):
        make_formula(4, [((1, 1, 2), 0)])


def test_make_formula_reports_an_iterator_input_in_full():
    with pytest.raises(ValueError, match=r"clause \(1, 1, 2\) = 0"):
        make_formula(4, [(iter([1, 1, 2]), 0)])


BAD_CLAUSES = [((2, 1, 3), 0), ((1, 1, 2), 0), ((0, 1, 2), 0), ((1, 2, 5), 0), ((1, 2), 0),
               ((1, 2, 3), 2)]


@pytest.mark.parametrize("vars_, rhs", BAD_CLAUSES)
def test_one_clause_check_names_the_clause_as_given(vars_, rhs):
    named = re.escape(f"clause {vars_} = {rhs}")
    with pytest.raises(ValueError, match=named):
        XorFormula(4, (XorClause(vars_, rhs),))
    if vars_ == (2, 1, 3) or rhs == 2:
        # make_formula sorts each triple and reduces rhs mod 2.
        assert make_formula(4, [(vars_, rhs)]).clauses == (XorClause((1, 2, 3), rhs & 1),)
    else:
        with pytest.raises(ValueError, match=named):
            make_formula(4, [(vars_, rhs)])


def test_formula_rejects_an_exact_repeat():
    with pytest.raises(ValueError, match="without repeats"):
        XorFormula(4, COMPLETE.clauses[:1] + COMPLETE.clauses)


def test_make_formula_rejects_contradictory_duplicate():
    with pytest.raises(ValueError, match="contradictory"):
        make_formula(4, [((1, 2, 3), 0), ((1, 2, 3), 1)])
    # Apart in the input and given unsorted, the two still meet once sorted.
    with pytest.raises(ValueError, match="contradictory"):
        make_formula(4, [((3, 2, 1), 1), ((2, 3, 4), 0), ((1, 2, 3), 0)])


def test_formula_accepts_exactly_sorted_clauses_without_contradictions():
    rnd = random.Random(3)
    triples = list(itertools.combinations(range(1, 6), 3))
    accepted = 0
    for _ in range(2000):
        clauses = tuple(XorClause(rnd.choice(triples), rnd.randint(0, 1))
                        for _ in range(rnd.randint(0, 5)))
        if rnd.random() < 0.5:
            clauses = tuple(sorted(clauses))
        rhs = {}
        contradictory = any(rhs.setdefault(cl.vars, cl.rhs) != cl.rhs for cl in clauses)
        valid = not contradictory and tuple(sorted(set(clauses))) == clauses
        try:
            XorFormula(5, clauses)
        except ValueError:
            assert not valid, clauses
        else:
            assert valid, clauses
            accepted += 1
    assert 200 < accepted < 1800


def test_clause_order_is_canonical():
    f = make_formula(5, [((2, 3, 4), 0), ((1, 2, 3), 0), ((1, 2, 5), 0)])
    assert [cl.vars for cl in f.clauses] == [(1, 2, 3), (1, 2, 5), (2, 3, 4)]


# -- pinning ---------------------------------------------------------------


def test_pin_zero_keeps_satisfiable():
    p = pin(COMPLETE, 2, 0)
    assert satisfies(p, (0, 0, 0, 0))


def test_pin_one_unsatisfiable_when_unique():
    assert brute_solutions(COMPLETE) == [(0, 0, 0, 0)]
    for i in range(1, 5):
        p = pin(COMPLETE, i, 1)
        assert not any(
            satisfies(p, bits) for bits in itertools.product((0, 1), repeat=4)
        )


def test_pin_kernel_witness():
    # (0,1,1,1) lies in the kernel of the two-clause system.
    assert satisfies(TWO_CLAUSE, (0, 1, 1, 1))
    p = pin(TWO_CLAUSE, 2, 1)
    assert satisfies(p, (0, 1, 1, 1))


def test_pin_out_of_range():
    with pytest.raises(ValueError):
        pin(COMPLETE, 5, 1)
    with pytest.raises(ValueError):
        pin(COMPLETE, 0, 0)


# -- matrix view -----------------------------------------------------------


def test_to_matrix_single_clause():
    # Bits 0-2 hold variables 1-3 and bit n = 3 the right-hand side.
    assert to_matrix(make_formula(3, [((1, 2, 3), 1)])) == (0b1111,)
    assert to_matrix(make_formula(3, [((1, 2, 3), 0)])) == (0b0111,)


def test_to_matrix_empty():
    assert to_matrix(make_formula(5, [])) == ()


def test_to_matrix_complete_triples():
    assert to_matrix(COMPLETE) == (0b0111, 0b1011, 0b1101, 0b1110)


def test_to_matrix_pinned_appends_unit_row():
    rows = to_matrix(pin(TWO_CLAUSE, 3, 1))
    assert rows == to_matrix(TWO_CLAUSE) + (0b1_0100,)
    assert to_matrix(pin(TWO_CLAUSE, 3, 0))[-1] == 0b0100


def test_unique_satisfiability_examples():
    assert is_uniquely_satisfiable(COMPLETE)
    assert not is_uniquely_satisfiable(TWO_CLAUSE)
    assert not is_uniquely_satisfiable(make_formula(3, [((1, 2, 3), 0)]))


def test_unique_satisfiability_rejects_nonhomogeneous():
    with pytest.raises(ValueError):
        is_uniquely_satisfiable(make_formula(3, [((1, 2, 3), 1)]))


@settings(max_examples=80, deadline=None)
@given(formulas(max_n=7))
def test_unique_iff_single_brute_solution(f):
    assert is_uniquely_satisfiable(f) == (len(brute_solutions(f)) == 1)


def test_unused_variable_verdict_equals_rank_check(monkeypatch):
    real_rank = formula.rank
    ranks = []
    monkeypatch.setattr(formula, "rank", lambda rows, cols: ranks.append(rows) or real_rank(rows, cols))
    checked = unused = 0
    for n in (3, 5, 12, 30, 100):
        for ratio in (0.5, 1.0, 2.0, 3.0):
            for seed in range(4):
                m = min(max(1, round(ratio * n)), math.comb(n, 3))
                f = sample_homogeneous(SampleConfig(n=n, m=m, seed=seed))
                # The same clauses over one more variable, which none of them uses.
                for g in (f, XorFormula(n + 1, f.clauses)):
                    has_unused = len({v for cl in g.clauses for v in cl.vars}) < g.n
                    checked += 1
                    unused += has_unused
                    before = len(ranks)
                    assert is_uniquely_satisfiable(g) == (real_rank(to_matrix(g), g.n) == g.n)
                    # The rank alone decides, with or without an unused variable.
                    assert len(ranks) == before + 1
    assert 0 < unused < checked


@settings(max_examples=80, deadline=None)
@given(formulas(max_n=7))
def test_zero_assignment_satisfies_homogeneous(f):
    assert satisfies(f, (0,) * f.n)


@settings(max_examples=80, deadline=None)
@given(formulas(max_n=7))
def test_solution_count_is_two_power_nullity(f):
    assert len(brute_solutions(f)) == 2 ** (f.n - rank(to_matrix(f), f.n))


# -- nonzero-solution CNF --------------------------------------------------


def test_cnf_clause_count():
    f = make_formula(3, [((1, 2, 3), 0)])
    assert len(nontrivial_solution_formula(f)) == 5


def test_cnf_kernel_witness_satisfies():
    cnf = nontrivial_solution_formula(TWO_CLAUSE)
    assert eval_cnf(cnf, (0, 1, 1, 1))
    assert brute_sat(4, cnf)


def test_cnf_unsat_for_complete_triples():
    assert not brute_sat(4, nontrivial_solution_formula(COMPLETE))


def test_cnf_rejects_nonhomogeneous():
    with pytest.raises(ValueError):
        nontrivial_solution_formula(make_formula(3, [((1, 2, 3), 1)]))


@settings(max_examples=60, deadline=None)
@given(formulas(max_n=6))
def test_cnf_satisfiable_iff_kernel_nonempty(f):
    kernel_nonempty = len(kernel_basis(to_matrix(f), f.n)) > 0
    assert brute_sat(f.n, nontrivial_solution_formula(f)) == kernel_nonempty


@settings(max_examples=60, deadline=None)
@given(formulas(max_n=6))
def test_cnf_has_4m_plus_1_clauses(f):
    assert len(nontrivial_solution_formula(f)) == 4 * f.m + 1


def test_cnf_cross_checked_with_solver():
    from xorcfi.xorsat import SAT, nontrivial_query, solve

    for f in (COMPLETE, TWO_CLAUSE, make_formula(5, [((1, 2, 3), 0), ((3, 4, 5), 0)])):
        verdict = solve(nontrivial_query(f))
        assert (verdict.result == SAT) == brute_sat(f.n, nontrivial_solution_formula(f))
        assert (verdict.result == SAT) == (len(kernel_basis(to_matrix(f), f.n)) > 0)


# -- DIMACS ----------------------------------------------------------------


def test_xor_dimacs_frozen_format():
    f = make_formula(4, [((1, 2, 3), 0), ((2, 3, 4), 1)])
    text = export_xor_dimacs(f)
    assert text == "p cnf 4 2\nx 1 2 3 0\nx -2 3 4 0\n"
    assert import_xor_dimacs(text) == f


def test_xor_dimacs_empty():
    f = make_formula(6, [])
    assert export_xor_dimacs(f) == "p cnf 6 0\n"
    assert import_xor_dimacs(export_xor_dimacs(f)) == f


def test_xor_dimacs_accepts_any_negation_pattern():
    # Odd negation counts mean rhs 1 regardless of which literal carries it.
    f = import_xor_dimacs("p cnf 4 1\nx 1 -2 3 0\n")
    assert f.clauses[0] == XorClause((1, 2, 3), 1)


@settings(max_examples=100, deadline=None)
@given(formulas(max_n=8, homogeneous=False))
def test_xor_dimacs_round_trip(f):
    assert import_xor_dimacs(export_xor_dimacs(f)) == f


# "cnf" is plain CNF text and "graph" DIMACS graph text, each given to the
# one DIMACS reader: the plain-CNF format is retired and the DIMACS graph
# format is written but not read, so every case of either is refused.
DIMACS_PARSERS = {
    "cnf": import_xor_dimacs,
    "xor": import_xor_dimacs,
    "graph": import_xor_dimacs,
}
# Each parser's header (declared count left open) and two well-formed body lines.
DIMACS_SHAPES = {
    "cnf": ("p cnf 4 {}", "1 -2 3 0", "-1 4 0"),
    "xor": ("p cnf 4 {}", "x 1 2 3 0", "x -2 3 4 0"),
    "graph": ("p edge 4 {}", "e 1 2", "e 2 3"),
}
# The formats that are still read.
ALL_PARSERS = {"xor"}


def _second_token(line, token):
    tokens = line.split()
    tokens[1] = token
    return " ".join(tokens)


def _drop_last_variable(line):
    """The line without its last variable, 0 terminator kept."""
    tokens = line.split()
    del tokens[-2 if tokens[-1] == "0" else -1]
    return " ".join(tokens)


def _repeat_last_variable(line):
    """The line with its last variable written in place of the one before."""
    tokens = line.split()
    last = -2 if tokens[-1] == "0" else -1
    tokens[last - 1] = tokens[last]
    return " ".join(tokens)


# case -> (text built from a shape, the parsers that accept it). Edge
# lines carry no 0 terminator. Against the readers' earlier separate
# implementations, the graph reader used to accept edge lines before the
# header, and every reader rejected the SATLIB '%' end marker; until
# second headers were rejected, a later header replaced the first. The
# graph reader once accepted a negative count.
DIMACS_CASES = {
    "well_formed": (lambda h, a, b: f"{h.format(2)}\n{a}\n{b}\n", ALL_PARSERS),
    "comments_and_blank_lines": (
        lambda h, a, b: f"c top\n\n   \n{h.format(2)}\nc mid\n{a}\n\n{b}\n", ALL_PARSERS),
    "bad_header_field_count": (lambda h, a, b: f"{h.format(2)} 7\n{a}\n{b}\n", set()),
    "bad_header_kind": (lambda h, a, b: f"p sat 4 2\n{a}\n{b}\n", set()),
    "missing_header": (lambda h, a, b: f"{a}\n{b}\n", set()),
    "clause_before_header": (lambda h, a, b: f"{a}\n{h.format(2)}\n{b}\n", set()),
    "missing_0_terminator": (
        lambda h, a, b: f"{h.format(2)}\n{a.removesuffix(' 0')}\n{b}\n", set()),
    "count_too_high": (lambda h, a, b: f"{h.format(3)}\n{a}\n{b}\n", set()),
    "count_too_low": (lambda h, a, b: f"{h.format(1)}\n{a}\n{b}\n", set()),
    "second_header": (
        lambda h, a, b: f"{h.format(2)}\n{a}\n{b}\n{h.replace(' 4 ', ' 9 ').format(2)}\n", set()),
    "unexpected_tag": (lambda h, a, b: f"{h.format(2)}\n{a}\nq 1 2 0\n", set()),
    "non_integer_header_token": (
        lambda h, a, b: f"{h.format(2).replace(' 4 ', ' three ')}\n{a}\n{b}\n", set()),
    "non_integer_body_token": (
        lambda h, a, b: f"{h.format(2)}\n{a}\n{_second_token(b, 'a')}\n", set()),
    "negative_count": (lambda h, a, b: f"{h.replace(' 4 ', ' -4 ').format(0)}\n", set()),
    "satlib_end_marker": (lambda h, a, b: f"{h.format(2)}\n{a}\n{b}\n%\n0\n\n", ALL_PARSERS),
    "end_marker_ends_body": (
        lambda h, a, b: f"{h.format(2)}\n{a}\n{b}\n%\n0\n{a}\nnot dimacs\n", ALL_PARSERS),
    "variable_out_of_range": (
        lambda h, a, b: f"{h.format(2)}\n{a}\n{_second_token(b, '9')}\n", set()),
    "zero_variable": (lambda h, a, b: f"{h.format(2)}\n{a}\n{_second_token(b, '0')}\n", set()),
    # An xor line names exactly 3 distinct variables and an edge 2 distinct
    # ends, and every body line starts with its format's word: a plain CNF
    # clause line such as "1 2 3 0" is not read.
    "one_variable_short": (
        lambda h, a, b: f"{h.format(2)}\n{a}\n{_drop_last_variable(b)}\n", set()),
    "repeated_variable": (
        lambda h, a, b: f"{h.format(2)}\n{a}\n{_repeat_last_variable(b)}\n", set()),
    "untagged_line": (lambda h, a, b: f"{h.format(2)}\n{a}\n{b.split(' ', 1)[1]}\n", set()),
}
# Rejections that name the offending line.
LINE_CONTEXT_CASES = {
    "bad_header_field_count", "bad_header_kind", "clause_before_header",
    "missing_0_terminator", "unexpected_tag", "non_integer_header_token",
    "non_integer_body_token", "second_header", "variable_out_of_range", "zero_variable",
    "one_variable_short", "repeated_variable", "untagged_line",
}


@pytest.mark.parametrize("parser", sorted(DIMACS_PARSERS))
@pytest.mark.parametrize("case", sorted(DIMACS_CASES))
def test_dimacs_parsers_accept_reject_table(case, parser):
    build, accepted_by = DIMACS_CASES[case]
    text = build(*DIMACS_SHAPES[parser])
    if parser in accepted_by:
        DIMACS_PARSERS[parser](text)
    else:
        with pytest.raises(ValueError, match=r"^line \d+: " if case in LINE_CONTEXT_CASES else None):
            DIMACS_PARSERS[parser](text)


def test_dimacs_errors_carry_line_context():
    # A plain CNF clause line is refused at its line.
    with pytest.raises(ValueError, match="line 2"):
        import_xor_dimacs("p cnf 2 1\n1 2\n")
    with pytest.raises(ValueError, match="header"):
        import_xor_dimacs("1 2 0\n")


def test_dimacs_readers_name_a_bad_variable_in_file_ids():
    cases = [
        (import_xor_dimacs, "p cnf 3 1\nx 1 2 9 0\n", "line 2: variable 9 out of range 1..3"),
        (import_xor_dimacs, "p cnf 3 1\nx 0 1 2 0\n", "line 2: variable 0 out of range"),
        (import_xor_dimacs, "p cnf 3 1\nx 1 2 0\n", "line 2: needs 3 distinct"),
        (import_xor_dimacs, "p cnf 3 1\nx 1 1 2 0\n", "line 2: needs 3 distinct"),
    ]
    for parse, text, message in cases:
        with pytest.raises(ValueError, match="^" + re.escape(message)):
            parse(text)


def test_end_marker_reads_like_its_absence():
    for parser in sorted(ALL_PARSERS):
        shape = DIMACS_SHAPES[parser]
        plain = DIMACS_CASES["well_formed"][0](*shape)
        for case in ("satlib_end_marker", "end_marker_ends_body"):
            text = DIMACS_CASES[case][0](*shape)
            assert DIMACS_PARSERS[parser](text) == DIMACS_PARSERS[parser](plain)
