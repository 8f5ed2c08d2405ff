"""3-XOR formulas as GF(2) equation systems and the XOR-extension DIMACS
format.

A clause is a parity constraint x + y + z = rhs over three distinct
variables; two literal-level clauses that induce the same equation are
the same clause here, so a formula is a set of equations. Clause order
is frozen to lexicographic on (v1, v2, v3, rhs) because downstream
vertex numbering depends on it.

`import_xor_dimacs` reads `.xcnf` files through `_dimacs_records`, the
program's one DIMACS tokenizer; the DIMACS graph format is only written.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, NamedTuple, Sequence, Tuple, Union

from .gf2 import rank


class XorClause(NamedTuple):
    """Equation v1 + v2 + v3 = rhs: a plain (vars, rhs) tuple, which sorts
    in the frozen clause order. The formula that holds it checks it."""

    vars: Tuple[int, int, int]
    rhs: int


def _check_clause(cl: XorClause, n: int) -> None:
    """The one clause check, which names the clause as given."""
    vs = cl.vars
    if not (len(vs) == 3 and 1 <= vs[0] < vs[1] < vs[2] <= n and cl.rhs in (0, 1)):
        raise ValueError(f"clause {vs} = {cl.rhs} needs 3 strictly increasing "
                         f"variables in 1..{n} and rhs 0 or 1")


@dataclass(frozen=True)
class XorFormula:
    """Checked 3-XOR clauses over 1..n, sorted, no two on one variable set."""

    n: int
    clauses: Tuple[XorClause, ...]

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("variable count must be >= 0")
        # Sorted order puts clauses on one variable set next to each other,
        # so one pass over neighbouring clauses checks every rule.
        prev = ((0, 0, 0), 0)
        for cl in self.clauses:
            _check_clause(cl, self.n)
            if cl.vars == prev[0] and cl.rhs != prev[1]:
                raise ValueError(f"contradictory duplicate clauses on variables {cl.vars}")
            if cl <= prev:
                raise ValueError("clauses must be in canonical sorted order without repeats")
            prev = cl

    @property
    def m(self) -> int:
        return len(self.clauses)

    @property
    def is_homogeneous(self) -> bool:
        return all(cl.rhs == 0 for cl in self.clauses)


@dataclass(frozen=True)
class PinnedSystem:
    """A formula plus the unit equation X_var = value.

    Kept as a wrapper rather than a fake width-1 clause; the matrix view
    appends one unit row after the clause rows.
    """

    formula: XorFormula
    var: int
    value: int

    def __post_init__(self):
        if not 1 <= self.var <= self.formula.n:
            raise ValueError(f"pinned variable {self.var} out of range 1..{self.formula.n}")
        if self.value not in (0, 1):
            raise ValueError(f"pinned value must be 0 or 1, got {self.value}")

    @property
    def n(self) -> int:
        return self.formula.n


def make_formula(n: int, raw: Iterable[Tuple[Iterable[int], int]]) -> XorFormula:
    """Canonicalize raw (triple, rhs) pairs: sort each triple, reduce rhs
    mod 2, drop exact repeats and sort the clauses. XorFormula checks the
    result, so a triple with a repeated variable or two clauses that
    share a variable set but disagree on rhs is a ValueError."""
    return XorFormula(n, tuple(sorted({XorClause(tuple(sorted(vs)), rhs & 1) for vs, rhs in raw})))


def pin(f: XorFormula, i: int, value: int) -> PinnedSystem:
    """f plus the unit equation X_i = value."""
    return PinnedSystem(f, i, value)


def to_matrix(f: Union[XorFormula, PinnedSystem]) -> Tuple[int, ...]:
    """One parity row per clause in canonical order, as gf2 packs them:
    bit j holds variable j+1 and bit n the right-hand side.

    For a pinned system the unit row comes last.
    """
    n = f.n
    if isinstance(f, PinnedSystem):
        return to_matrix(f.formula) + (1 << (f.var - 1) | f.value << n,)
    return pack_rows(n, f.clauses)


def pack_rows(n: int, clauses: Iterable[Tuple[Sequence[int], int]]) -> Tuple[int, ...]:
    """The parity rows of (vars, rhs) pairs over n variables, in order."""
    return tuple(1 << (a - 1) | 1 << (b - 1) | 1 << (c - 1) | rhs << n
                 for (a, b, c), rhs in clauses)


def is_uniquely_satisfiable(f: XorFormula) -> bool:
    """True iff the all-zero assignment is the only solution (rank = n)."""
    if not f.is_homogeneous:
        raise ValueError("unique-satisfiability check is defined for homogeneous formulas")
    return has_full_rank(f.n, [cl.vars for cl in f.clauses])


def has_full_rank(n: int, triples: Sequence[Sequence[int]]) -> bool:
    """True iff the homogeneous equations on these triples have rank n."""
    return rank(pack_rows(n, ((t, 0) for t in triples)), n) == n


# ---------------------------------------------------------------------------
# XOR-extension DIMACS: "p cnf <nvars> <nclauses>" then one line
# "x <lit> <lit> <lit> 0" per clause, where an odd number of negated
# literals means rhs 1 (we always negate the smallest variable to encode
# rhs 1).


def _ints(lineno: int, line: str, tokens: List[str]) -> List[int]:
    try:
        return [int(tok) for tok in tokens]
    except ValueError:
        raise ValueError(f"line {lineno}: non-integer token in {line!r}") from None


def _dimacs_records(text: str) -> Tuple[int, List[List[int]]]:
    """The header's variable count and the literals of each clause line of
    an XOR-extension DIMACS file.

    Blank lines and lines starting with 'c' are skipped; the header is
    'p cnf <n> <m>' and may appear once. A line '%' (the SATLIB end
    marker) ends the body and whatever follows it is ignored. Every
    other line is an 'x' line: 3 signed literals of distinct variables
    of 1..n and a 0 that is checked and dropped. m must equal the number
    of clause lines. Every rejected line is named by its number.
    """
    n = declared = None
    records: List[List[int]] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("c"):
            continue
        if line == "%":
            break
        tokens = line.split()
        if line.startswith("p"):
            if n is not None:
                raise ValueError(f"line {lineno}: second DIMACS header")
            if len(tokens) != 4 or tokens[1] != "cnf":
                raise ValueError(f"line {lineno}: bad DIMACS header {line!r}")
            n, declared = _ints(lineno, line, tokens[2:])
            continue
        if n is None:
            raise ValueError(f"line {lineno}: clause before header")
        if tokens.pop(0) != "x":
            raise ValueError(f"line {lineno}: unexpected line {line!r}")
        ints = _ints(lineno, line, tokens)
        if not ints or ints.pop() != 0:
            raise ValueError(f"line {lineno}: clause not 0-terminated")
        named = set(map(abs, ints))
        if named and (min(named) < 1 or max(named) > n):
            bad = min(named) if min(named) < 1 else max(named)
            raise ValueError(f"line {lineno}: variable {bad} out of range 1..{n}")
        if len(ints) != 3 or len(named) != 3:
            raise ValueError(f"line {lineno}: needs 3 distinct variable ids, got {line!r}")
        records.append(ints)
    if n is None:
        raise ValueError("missing DIMACS header")
    if declared != len(records):
        raise ValueError(f"header declares {declared} clauses, found {len(records)}")
    return n, records


def export_xor_dimacs(f: XorFormula) -> str:
    lines = [f"p cnf {f.n} {f.m}"]
    for cl in f.clauses:
        a, b, c = cl.vars
        first = -a if cl.rhs else a
        lines.append(f"x {first} {b} {c} 0")
    return "\n".join(lines) + "\n"


def import_xor_dimacs(text: str) -> XorFormula:
    n, records = _dimacs_records(text)
    # An odd number of negated literals means rhs 1.
    return make_formula(n, [([abs(lit) for lit in lits], sum(lit < 0 for lit in lits) & 1)
                            for lits in records])
