"""No code without a caller: every function, class, non-dunder method and
module-level assigned name (a constant or a type alias) defined in
src/xorcfi is referenced by the program itself (src/, scripts/
or perfbench/), not only by tests; every one defined in tests/oracles.py
is referenced by some tests/test_*.py, so a dead oracle cannot pile up
beside a live one; every xorcfi name that scripts/ and perfbench/ read
still exists, and every keyword argument they pass it is one of its
parameters; and perfbench's set-up warm-up runs.

A reference is a name, an attribute or an import in the parsed code, so
strings and comments do not count; neither do references from inside the
definition itself or from inside definitions found unused, so a helper
reached only from dead code is reported with it. Names are matched bare:
a definition shares its references with every same-named one, so two
modules may not define one top-level name and two classes may not
define one method name.
"""

import ast
import functools
import importlib
import importlib.util
import inspect
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PROGRAM = sorted(p for d in ("src", "scripts", "perfbench") for p in (ROOT / d).rglob("*.py"))
SOURCES = sorted((ROOT / "src" / "xorcfi").glob("*.py"))
ORACLES = ROOT / "tests" / "oracles.py"
TESTS = sorted((ROOT / "tests").glob("test_*.py")) + [ORACLES]

# Kept without a caller, one reason each.
ALLOWED = {}


def _assigned_names(node):
    """The non-dunder names a module-level assignment binds: constants and
    type aliases."""
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    else:
        return []
    names = [t for target in targets
             for t in (target.elts if isinstance(target, ast.Tuple) else [target])]
    return [t.id for t in names if isinstance(t, ast.Name) and not t.id.endswith("__")]


def _definitions_and_uses(defined=SOURCES, used=PROGRAM):
    """The definitions in the files `defined` and the references that the
    files `used` make, each as (path, line) under its bare name."""
    defs, uses = [], defaultdict(list)
    for path in used:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.Name, ast.Attribute, ast.alias)):
                name = {ast.Name: "id", ast.Attribute: "attr", ast.alias: "name"}[type(node)]
                uses[getattr(node, name).rsplit(".", 1)[-1]].append((path, node.lineno))
    for path in defined:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs.append((f"{path.stem}.{node.name}", node.name, path, node.lineno, node.end_lineno))
            for name in _assigned_names(node):
                defs.append((f"{path.stem}.{name}", name, path, node.lineno, node.end_lineno))
            for sub in node.body if isinstance(node, ast.ClassDef) else []:
                if isinstance(sub, ast.FunctionDef) and not sub.name.endswith("__"):
                    defs.append((f"{path.stem}.{node.name}.{sub.name}", sub.name, path,
                                 sub.lineno, sub.end_lineno))
    return defs, uses


def shared_names(depth):
    """Each name defined by more than one owner, with those owners: modules
    for top-level names (depth 1), classes for method names (depth 2)."""
    owners = defaultdict(list)
    for qual, name, *_ in _definitions_and_uses()[0]:
        if qual.count(".") == depth:
            owners[name].append(qual.rsplit(".", 1)[0])
    return {name: quals for name, quals in owners.items() if len(quals) > 1}


def uncalled_names(defined=SOURCES, used=PROGRAM):
    defs, uses = _definitions_and_uses(defined, used)
    dead = set()
    while True:
        dead_spans = [(p, lo, hi) for qual, _, p, lo, hi in defs if qual in dead]
        newly_dead = {
            qual for qual, name, path, first, last in defs
            if qual not in dead and all(
                any(p == sp and lo <= i <= hi for sp, lo, hi in dead_spans + [(path, first, last)])
                for p, i in uses[name])
        }
        if not newly_dead:
            return sorted(dead)
        dead |= newly_dead


def test_every_name_in_src_has_a_caller():
    missing = [q for q in uncalled_names() if q not in ALLOWED]
    assert not missing, "called only from tests, or not at all: " + ", ".join(missing)


def test_every_oracle_has_a_test_caller():
    missing = uncalled_names([ORACLES], TESTS)
    assert not missing, "called by no test: " + ", ".join(missing)


def _assert_unshared(depth):
    shared = shared_names(depth)
    assert not shared, "callers cannot be told apart: " + "; ".join(
        f"{name} ({', '.join(quals)})" for name, quals in sorted(shared.items()))


def test_no_top_level_name_is_defined_by_two_modules():
    _assert_unshared(1)


def test_no_method_name_is_defined_by_two_classes():
    _assert_unshared(2)


def test_allowlist_is_short_and_current():
    assert len(ALLOWED) <= 5
    assert sorted(ALLOWED) == uncalled_names()


XORCFI_MODULES = {"xorcfi"} | {f"xorcfi.{p.stem}" for p in (ROOT / "src" / "xorcfi").glob("*.py")
                                if p.stem != "__init__"}


def _xorcfi_files():
    """(path, tree, bound, imports) of each file in perfbench/ and scripts/:
    `bound` maps each local name that an import binds to an xorcfi module
    or to a name a `from xorcfi... import` takes onto its dotted name, and
    `imports` holds the (line, dotted name) of each such imported name."""
    for path in sorted(p for d in ("scripts", "perfbench") for p in (ROOT / d).glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        bound, imports = {}, []
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name in XORCFI_MODULES:
                        bound[alias.asname or "xorcfi"] = alias.name if alias.asname else "xorcfi"
            elif isinstance(node, ast.ImportFrom) and node.module in XORCFI_MODULES:
                for alias in node.names:
                    dotted = f"{node.module}.{alias.name}"
                    imports.append((node.lineno, dotted))
                    bound[alias.asname or alias.name] = dotted
        yield path, tree, bound, imports


def _dotted(node, bound):
    """The dotted xorcfi name that a bound name, or an attribute chain read
    off one, stands for; None for any other expression."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name) and node.id in bound:
        return ".".join([bound[node.id]] + parts[::-1])
    return None


def _resolve(dotted):
    """The object a dotted xorcfi name stands for; AttributeError if none."""
    for name in XORCFI_MODULES:
        importlib.import_module(name)
    return functools.reduce(getattr, dotted.split(".")[1:], importlib.import_module("xorcfi"))


def xorcfi_reads():
    """(path, line, dotted name) of each xorcfi name that perfbench/*.py and
    scripts/*.py read in code: each name a `from xorcfi... import` takes,
    and each attribute read off a name bound to an xorcfi module or name.
    Strings and comments that name a function do not count."""
    reads = []
    for path, tree, bound, imports in _xorcfi_files():
        reads += [(path, line, dotted) for line, dotted in imports]
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                dotted = _dotted(node, bound)
                if dotted is not None:
                    reads.append((path, node.lineno, dotted))
    return reads


def xorcfi_keywords():
    """(path, line, dotted name, keyword) of each keyword argument that
    perfbench/*.py and scripts/*.py pass to an xorcfi function or class,
    in every call, lambdas included."""
    found = []
    for path, tree, bound, _ in _xorcfi_files():
        for node in ast.walk(tree):
            dotted = _dotted(node.func, bound) if isinstance(node, ast.Call) else None
            if dotted is not None:
                found += [(path, node.lineno, dotted, kw.arg) for kw in node.keywords
                          if kw.arg is not None]
    return found


def test_every_xorcfi_name_that_scripts_and_perfbench_read_exists():
    reads = xorcfi_reads()
    names = {dotted for _, _, dotted in reads}
    # The reads are really found: the set-up probe's warm-up and a script's trial stream.
    assert {"xorcfi.canon.color_refine", "xorcfi.pipeline.trial_outcomes"} <= names
    missing = []
    for path, line, dotted in reads:
        try:
            _resolve(dotted)
        except AttributeError:
            missing.append(f"{path.relative_to(ROOT)}:{line}: {dotted}")
    assert not missing, "read but not defined: " + ", ".join(missing)


def test_every_keyword_that_scripts_and_perfbench_pass_is_a_parameter():
    found = xorcfi_keywords()
    # The calls are really found: a script's capped search and perfbench's
    # capped prefixes, the latter inside a lambda.
    assert {("xorcfi.bench.run_internal", "max_nodes"),
            ("xorcfi.bench.run_internal", "instance")} <= {(d, kw) for _, _, d, kw in found}
    assert any(path.parent.name == "perfbench" and kw == "max_nodes"
               for path, _, _, kw in found)
    stale = []
    for path, line, dotted, kw in found:
        try:
            params = inspect.signature(_resolve(dotted)).parameters
        except AttributeError:
            continue  # a name that is not defined fails the test of reads
        if kw not in params and not any(p.kind is p.VAR_KEYWORD for p in params.values()):
            stale.append(f"{path.relative_to(ROOT)}:{line}: {dotted}({kw}=)")
    assert not stale, "passed but not a parameter: " + ", ".join(stale)


def test_perfbench_warm_up_runs():
    # perfbench makes this call into each layer before it times anything.
    # Loaded by path, since perfbench/ is no package.
    spec = importlib.util.spec_from_file_location("setup_probe", ROOT / "perfbench" / "setup_probe.py")
    probe = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(probe)
    probe.warm_up()
