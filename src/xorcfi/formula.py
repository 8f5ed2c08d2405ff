"""3-XOR formulas as GF(2) equation systems, plus CNF export.

A clause is a parity constraint x + y + z = rhs over three distinct
variables; two literal-level clauses that induce the same equation are
the same clause here, so a formula is a set of equations. Clause order
is frozen to lexicographic on (v1, v2, v3, rhs) because downstream
vertex numbering depends on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple, Union

from .gf2 import rank


@dataclass(frozen=True, order=True)
class XorClause:
    """Equation v1 + v2 + v3 = rhs with 1-based, strictly increasing vars."""

    vars: Tuple[int, int, int]
    rhs: int

    def __post_init__(self):
        if len(self.vars) != 3:
            raise ValueError(f"clause needs exactly 3 variables, got {self.vars}")
        a, b, c = self.vars
        if not (1 <= a < b < c):
            raise ValueError(f"clause variables must be distinct, sorted, >= 1: {self.vars}")
        if self.rhs not in (0, 1):
            raise ValueError(f"rhs must be 0 or 1, got {self.rhs}")

    @classmethod
    def make(cls, vars: Iterable[int], rhs: int) -> "XorClause":
        given = tuple(vars)
        vs = tuple(sorted(given))
        if len(vs) != 3 or len(set(vs)) != 3:
            raise ValueError(f"clause needs 3 distinct variables, got {given}")
        return cls(vs, rhs & 1)

    def satisfied_by(self, assignment: Sequence[int]) -> bool:
        """assignment[j] is the value of variable j+1."""
        a, b, c = self.vars
        return (assignment[a - 1] ^ assignment[b - 1] ^ assignment[c - 1]) == self.rhs


@dataclass(frozen=True)
class XorFormula:
    """A set of pairwise-inequivalent 3-XOR clauses over variables 1..n."""

    n: int
    clauses: Tuple[XorClause, ...]

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("variable count must be >= 0")
        # Sorted order puts clauses on one variable set next to each other,
        # so one pass over neighbouring (vars, rhs) keys checks both rules.
        prev = ((0, 0, 0), 0)
        for cl in self.clauses:
            key = (cl.vars, cl.rhs)
            if cl.vars[2] > self.n:
                raise ValueError(f"clause {cl.vars} exceeds variable count {self.n}")
            if key[0] == prev[0] and key[1] != prev[1]:
                raise ValueError(f"contradictory duplicate clauses on variables {cl.vars}")
            if key < prev:
                raise ValueError("clauses must be in canonical sorted order")
            prev = key

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


@dataclass(frozen=True)
class CnfFormula:
    """CNF clauses (signed 1-based literals) with optional native XOR rows."""

    n: int
    clauses: Tuple[Tuple[int, ...], ...]
    xors: Tuple[XorClause, ...] = ()

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("variable count must be >= 0")
        for cl in self.clauses:
            if len(cl) == 0:
                raise ValueError("empty CNF clause at construction")
            for lit in cl:
                if lit == 0 or abs(lit) > self.n:
                    raise ValueError(f"literal {lit} out of range for n={self.n}")
        for xc in self.xors:
            if xc.vars[2] > self.n:
                raise ValueError(f"xor clause {xc.vars} exceeds variable count {self.n}")


def make_formula(n: int, raw: Iterable[Tuple[Iterable[int], int]]) -> XorFormula:
    """Canonicalize raw (triple, rhs) pairs: sort triples, drop exact repeats.

    XorClause.make rejects a triple with a repeated variable, and
    XorFormula two clauses that share a variable set but disagree on rhs.
    The keys are plain (vars, rhs) tuples, which hash and sort in C.
    """
    made = (XorClause.make(vars_, rhs) for vars_, rhs in raw)
    keys = sorted(dict.fromkeys((cl.vars, cl.rhs) for cl in made))
    return XorFormula(n, tuple(XorClause(v, r) for v, r in keys))


def pin(f: XorFormula, i: int, value: int) -> PinnedSystem:
    """f plus the unit equation X_i = value."""
    return PinnedSystem(f, i, value)


def to_matrix(f: Union[XorFormula, PinnedSystem, CnfFormula]) -> Tuple[int, ...]:
    """One parity row per clause in canonical order, as gf2 packs them:
    bit j holds variable j+1 and bit n the right-hand side.

    For a pinned system the unit row comes last. For a CNF formula the
    rows are its XOR rows in stored order, which need not be sorted or
    consistent.
    """
    n = f.n
    if isinstance(f, PinnedSystem):
        return to_matrix(f.formula) + (1 << (f.var - 1) | f.value << n,)
    clauses = f.xors if isinstance(f, CnfFormula) else f.clauses
    return pack_rows(n, ((cl.vars, cl.rhs) for cl in clauses))


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
    """True iff the homogeneous equations on these triples have rank n.

    A variable in no triple is a kernel vector on its own, so rank < n
    is settled without an elimination.
    """
    if len({v for t in triples for v in t}) < n:
        return False
    return rank(pack_rows(n, ((t, 0) for t in triples)), n) == n


# ---------------------------------------------------------------------------
# DIMACS formats.
#
# CNF:            "p cnf <nvars> <nclauses>" then 0-terminated clause lines.
# XOR extension:  same header counting xor lines; each clause is
#                 "x <lit> <lit> <lit> 0" where an odd number of negated
#                 literals means rhs 1 (we always negate the smallest
#                 variable to encode rhs 1).


def export_dimacs(c: CnfFormula) -> str:
    """Plain CNF text; a formula with XOR rows is a ValueError, since this
    format has no line for them (export_xor_dimacs writes XOR rows)."""
    if c.xors:
        raise ValueError(f"plain DIMACS cannot hold the formula's {len(c.xors)} XOR rows")
    lines = [f"p cnf {c.n} {len(c.clauses)}"]
    for cl in c.clauses:
        lines.append(" ".join(str(lit) for lit in cl) + " 0")
    return "\n".join(lines) + "\n"


def _ints(lineno: int, line: str, tokens: List[str]) -> List[int]:
    try:
        return [int(tok) for tok in tokens]
    except ValueError:
        raise ValueError(f"line {lineno}: non-integer token in {line!r}") from None


def _dimacs_records(text: str, kind: str, tag: str,
                    width: Optional[int] = None) -> Tuple[int, List[Tuple[int, List[int]]]]:
    """The header's first number and the body lines of a DIMACS-style file.

    Blank lines and lines starting with 'c' are skipped; the header is
    'p <kind> <a> <b>' and may appear once. A line '%' (the SATLIB end
    marker) ends the body and whatever follows it is ignored. Every
    other line becomes (lineno, ints) and must start with tag, a leading
    word such as 'x' or 'e' ('' for lines that start with a number). For
    kind 'cnf' each line ends in a 0 that is checked and dropped, and
    the other ints are literals of variables 1..a; edge lines carry no
    0 and their ints are vertices 1..a. With a width, each line names
    exactly that many distinct variables or vertices. b must equal the
    number of body lines. Every rejected line is named by its number.
    """
    noun = "variable" if kind == "cnf" else "vertex"
    n = declared = None
    records: List[Tuple[int, List[int]]] = []
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
            if len(tokens) != 4 or tokens[1] != kind:
                raise ValueError(f"line {lineno}: bad DIMACS header {line!r}")
            n, declared = _ints(lineno, line, tokens[2:])
            continue
        if n is None:
            raise ValueError(f"line {lineno}: clause before header")
        if (tokens.pop(0) if tokens[0][0].isalpha() else "") != tag:
            raise ValueError(f"line {lineno}: unexpected line {line!r}")
        ints = _ints(lineno, line, tokens)
        if kind == "cnf":
            if not ints or ints[-1] != 0:
                raise ValueError(f"line {lineno}: clause not 0-terminated")
            ints.pop()
        named = set(map(abs, ints)) if kind == "cnf" else set(ints)
        if named and (min(named) < 1 or max(named) > n):
            bad = min(named) if min(named) < 1 else max(named)
            raise ValueError(f"line {lineno}: {noun} {bad} out of range 1..{n}")
        if width is not None and (len(ints) != width or len(named) != width):
            raise ValueError(f"line {lineno}: needs {width} distinct {noun} ids, got {line!r}")
        records.append((lineno, ints))
    if n is None:
        raise ValueError("missing DIMACS header")
    if declared != len(records):
        body = "edges" if kind == "edge" else "clauses"
        raise ValueError(f"header declares {declared} {body}, found {len(records)}")
    return n, records


def import_dimacs(text: str) -> CnfFormula:
    n, records = _dimacs_records(text, "cnf", "")
    return CnfFormula(n, tuple(tuple(lits) for _, lits in records))


def export_xor_dimacs(f: XorFormula) -> str:
    lines = [f"p cnf {f.n} {f.m}"]
    for cl in f.clauses:
        a, b, c = cl.vars
        first = -a if cl.rhs else a
        lines.append(f"x {first} {b} {c} 0")
    return "\n".join(lines) + "\n"


def import_xor_dimacs(text: str) -> XorFormula:
    n, records = _dimacs_records(text, "cnf", "x", width=3)
    # An odd number of negated literals means rhs 1.
    return make_formula(n, [([abs(lit) for lit in lits], sum(lit < 0 for lit in lits) & 1)
                            for _, lits in records])
