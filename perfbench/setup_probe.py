"""Set-up cost of one xorcfi invocation: the import plus a warm-up call.

Run as a script, it imports xorcfi from this checkout's ``src/``, makes
the warm-up call and exits; the benchmark times the whole child process,
interpreter start included, because a user of the command line pays all
of it on every invocation. The benchmark process itself makes the same
warm-up call before it times anything.
"""

from __future__ import annotations

import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def load_xorcfi() -> None:
    """Put this checkout's src/ first on the path and import xorcfi from it.

    Raises ImportError when the sources are missing or another copy of
    the package would be measured instead.
    """
    package = SRC / "xorcfi"
    if not (package / "__init__.py").is_file():
        raise ImportError(f"xorcfi sources not found under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import xorcfi

    if Path(xorcfi.__file__).resolve().parent != package.resolve():
        raise ImportError(f"imported xorcfi from {xorcfi.__file__}, not from {package}")
    import xorcfi.bench  # noqa: F401  (with cli, every module a run touches)
    import xorcfi.cli  # noqa: F401


def warm_up() -> None:
    """One small call into each layer; pays lazy set-up such as the sympy import."""
    from xorcfi import canon, cfi, formula, xorsat

    # Two disjoint clauses: the incidence graph has a nontrivial
    # automorphism, so the IR search computes a group order.
    f = formula.make_formula(6, [((1, 2, 3), 0), ((4, 5, 6), 0)])
    canon.ir_automorphisms(cfi.incidence_graph(f))
    canon.color_refine(cfi.build_full(f))
    formula.is_uniquely_satisfiable(f)
    xorsat.gauss_ratio(f)
    canon.local_consistency(formula.pin(f, 1, 1), 2)


if __name__ == "__main__":
    load_xorcfi()
    warm_up()
