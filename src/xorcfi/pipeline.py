"""End-to-end instance generation: sample, filter, lift, export.

Per trial: draw m distinct triples from the trial's own RNG stream,
reject unless they survive the enabled filters, cheapest first (full
rank, then incidence-graph asymmetry in core-only mode, then the
Gaussian decision-cost gap), build the lifted graph once, and write
formula + graph + manifest with a content digest. A trial's reject
reason is the first filter it fails.

`trial_outcomes` is the one trial loop and writes nothing; `generate`
writes what it yields. Trials are screened a chunk at a time
(sampler.draws), so the rank check runs on packed rows built straight
from each trial's triples: a trial that leaves a variable uncovered or
lacks full rank is rejected before any formula object exists.

Graphs travel as cfi.Graph's canonical edge array, and the writers group
its sorted rows into text. `from_dre`, the one graph reader, parses a file
into rows and lets the Graph constructor canonicalise them; `bench` and
the scripts read `.dre` files through it. An accepted trial's formula
text is made once, for its digest and its file. `validate` parses no
formula and reads no graph back: it draws the formula again from the
manifest's (n, m, seed, trial), and each file passes when its bytes are
the writer's text for that draw or for a fresh lift of it.

The config's one budget counts work, never seconds: decisions of the
plain DPLL run and nodes of the IR search in the asymmetry filter. A
plain run that spends it scores an infinite Gauss ratio; an IR search
that spends it rejects the trial as BUDGET, which only a uniquely
satisfiable formula can reach. So everything written is a pure function of the config, and a
rerun reproduces the tree byte for byte.

No filter checks that colour refinement keeps each X^0/X^1 pair
together: it does in every lift of every formula, because the partition
into those pairs, each clause's 4 vertices and the single gadget
vertices is equitable (tests/test_cfi.py checks it). The manifest's
`wl1_nonseparating` field therefore always reads `skipped`.
"""

from __future__ import annotations

import hashlib
import logging
import math
import os
import secrets
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Tuple, Union, get_type_hints

import numpy as np

from . import __version__
from .canon import ir_automorphisms
from .cfi import Graph, build_core, build_full, incidence_graph
from .formula import XorFormula, export_xor_dimacs
# Unused here: perfbench's tracer test reads `pipeline.rank` to see that a
# rebound function is restored.
from .gf2 import rank  # noqa: F401
from .sampler import SampleConfig, TrialDraw, draw_name, draws, screen
from .xorsat import SAT, gauss_ratio

logger = logging.getLogger(__name__)

GADGET_FULL = "full"
GADGET_CORE = "core"
GADGETS = (GADGET_FULL, GADGET_CORE)

MANIFEST_SCHEMA_VERSION = 1
MANIFEST_NAME = "manifest.txt"
FORMULA_NAME = "formula.xcnf"
DRE_NAME = "graph.dre"
DIMACS_NAME = "graph.dimacs"

REJECT_PHI_SYMMETRIC = "phi_symmetric"
REJECT_NOT_UNIQUE = "not_uniquely_satisfiable"
REJECT_LOW_RATIO = "low_gauss_ratio"
REJECT_BUDGET = "BUDGET"


@dataclass(frozen=True)
class PipelineConfig:
    n: int
    ratio: Optional[float] = None
    m: Optional[int] = None
    seed: int = 0
    trials: int = 1
    gadget_mode: str = GADGET_FULL
    gauss_threshold: float = 5.0
    budget: int = 100_000  # decisions of the plain DPLL run and nodes of the IR filter
    formats: Tuple[str, ...] = ("dre",)

    def __post_init__(self):
        if self.gadget_mode not in GADGETS:
            raise ValueError(f"unknown gadget mode {self.gadget_mode!r}")
        m = self.sample_config.effective_m  # SampleConfig checks m or ratio and m <= C(n, 3)
        if m < self.n:
            raise ValueError(
                "clause/variable ratio below 1 can never be uniquely satisfiable "
                f"(m={m} < n={self.n})"
            )
        if self.trials < 1:
            raise ValueError("need at least one trial")
        for fmt in self.formats:
            _graph_file(fmt)
        if self.budget < 0:
            raise ValueError(f"budget must be >= 0, got {self.budget}")
        if math.isnan(self.gauss_threshold):
            raise ValueError("gauss threshold must be a number, got nan")
        # A plain run that refutes within B decisions shows a Gauss ratio
        # of at most max(B, 1), and one that B stops scores +inf. Below
        # the threshold, only a stopped run could pass the filter.
        if max(self.budget, 1) < self.gauss_threshold:
            raise ValueError(f"a budget of {self.budget} decisions can show a finite gauss ratio of "
                             f"at most {max(self.budget, 1)}, below the threshold "
                             f"{self.gauss_threshold:g}")

    @property
    def sample_config(self) -> SampleConfig:
        return SampleConfig(n=self.n, m=self.m, ratio=self.ratio, seed=self.seed)


@dataclass(frozen=True)
class InstanceRecord:
    """One accepted instance. Its fields, in order, are the manifest's lines
    after `schema_version`; file paths are relative to the batch directory."""

    instance_id: str
    n: int
    m: int
    seed: int
    trial: int
    gadget_mode: str
    clause_digest: str
    phi_asymmetric: Optional[bool]
    uniquely_satisfiable: bool
    gauss_ratio: float
    wl1_nonseparating: Optional[bool]  # always None; kept since the field set is frozen
    vertices: int
    edges: int
    formula_file: str
    graph_dre: Optional[str]
    graph_dimacs: Optional[str]
    tool_version: str

    @property
    def manifest_file(self) -> str:
        return f"{self.instance_id}/{MANIFEST_NAME}"

    @property
    def graph_files(self) -> Dict[str, Optional[str]]:
        """Each graph format's file path, None where it was not written."""
        return {fmt: getattr(self, f"graph_{fmt}") for fmt in GRAPH_FILES}


# ---------------------------------------------------------------------------
# Graph file formats.


def to_dre(g: Graph) -> str:
    """dreadnaut text: each edge emitted once from its smaller endpoint,
    one row per run of equal first entries in the sorted edge rows."""
    rows = g.edge_array
    lines = [f"n={g.vertex_count} $=0 g"]
    if not len(rows):
        lines.append(".")
    else:
        us, vs = rows.T.tolist()
        ends = list(map(str, vs))
        bounds = [0, *(np.flatnonzero(rows[1:, 0] != rows[:-1, 0]) + 1).tolist(), len(rows)]
        body = [f"{us[a]} : {' '.join(ends[a:b])}" for a, b in zip(bounds, bounds[1:])]
        lines.append(";\n".join(body) + ".")
    return "\n".join(lines) + "\n"


def _vertex_ids(values: List) -> np.ndarray:
    """Parsed vertex ids, given as ints or decimal strings, as int64; an
    id too large for int64 is out of range of every graph."""
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        raise ValueError("vertex id out of range") from None
    except ValueError:
        raise ValueError("non-integer vertex id") from None


def from_dre(text: str) -> Graph:
    """A graph from dreadnaut text; a rejected line is named by its number."""
    lines = [(no, ln) for no, ln in enumerate(map(str.strip, text.splitlines()), start=1) if ln]
    if not lines or not lines[0][1].startswith("n="):
        raise ValueError("missing dreadnaut header")
    no, line = lines[0]
    head = line.split()
    try:
        n = int(head[0][2:])
    except ValueError:
        raise ValueError(f"line {no}: non-integer vertex count in {line!r}") from None
    for tok in head[1:]:
        if tok.startswith("$"):
            if tok.lstrip("$=") != "0":
                raise ValueError(f"line {no}: labelling origin {tok!r} is not supported; "
                                 "vertices are 0-based")
        elif tok != "g":
            raise ValueError(f"line {no}: unexpected header token {tok!r} in {line!r}")
    heads: List[str] = []
    counts: List[int] = []
    tokens: List[str] = []
    for no, line in lines[1:]:
        terminated = line.endswith(".")
        ln = line.rstrip(".;").strip()
        if ln:
            left, colon, right = ln.partition(":")
            if not colon:
                raise ValueError(f"line {no}: dreadnaut body line without ':': {line!r}")
            heads.append(left)
            ws = right.split()
            counts.append(len(ws))
            tokens += ws
        if terminated:
            break
    else:
        raise ValueError("dreadnaut body ends without its '.' terminator")
    ends = np.empty((len(tokens), 2), dtype=np.int64)
    try:
        ends[:, 0] = np.repeat(_vertex_ids(heads), counts)
        ends[:, 1] = _vertex_ids(tokens)
        return Graph(n, ends)
    except ValueError:
        # The ids are converted and checked all at once, so the line at
        # fault, the header or a body line, is looked for only now.
        for no, line in lines:
            left, colon, right = line.rstrip(".;").partition(":")
            try:
                ids = _vertex_ids([left, *right.split()] if colon else [])
                Graph(n, [(ids[0], w) for w in ids[1:]])
            except ValueError as exc:
                raise ValueError(f"line {no}: {exc} in {line!r}") from None
        raise


def to_dimacs_graph(g: Graph) -> str:
    rows = g.edge_array
    body = ("e %d %d\n" * len(rows)) % tuple((rows + 1).reshape(-1).tolist())
    return f"p edge {g.vertex_count} {len(rows)}\n" + body


# Each graph format's file name in an instance directory and its writer.
# InstanceRecord names the file of format fmt in graph_<fmt>; `validate`
# compares a written file's bytes with its writer's text.
GRAPH_FILES = {
    "dre": (DRE_NAME, to_dre),
    "dimacs": (DIMACS_NAME, to_dimacs_graph),
}


def _graph_file(format: str) -> Tuple[str, Callable[[Graph], str]]:
    """The file name and writer of a graph format."""
    try:
        return GRAPH_FILES[format]
    except KeyError:
        raise ValueError(f"unknown graph format {format!r}") from None


def export_graph(g: Graph, format: str) -> str:
    return _graph_file(format)[1](g)


# ---------------------------------------------------------------------------
# Filters (each is a pure predicate of the formula, so evaluation order
# can only change cost, never the accept set).


def phi_is_asymmetric(f: XorFormula, max_nodes: int) -> Optional[bool]:
    """None means the search ran out of nodes before deciding."""
    report = ir_automorphisms(incidence_graph(f), max_nodes=max_nodes)
    if report.status != "COMPLETE":
        return None
    return report.group_size == 1


def build_graph(f: XorFormula, gadget_mode: str) -> Graph:
    if gadget_mode == GADGET_FULL:
        return build_full(f)
    if gadget_mode == GADGET_CORE:
        return build_core(f)
    raise ValueError(f"unknown gadget mode {gadget_mode!r}")


# ---------------------------------------------------------------------------
# Manifests.


def _optional(codec, none_text: str):
    write, read = codec
    return (lambda v: none_text if v is None else write(v),
            lambda s: None if s == none_text else read(s))


def _read_bool(s: str) -> bool:
    if s not in ("true", "false"):
        raise ValueError(f"expected true or false, got {s!r}")
    return s == "true"


_BOOL_CODEC = (lambda v: "true" if v else "false", _read_bool)

# (writer, reader) of each field type. None reads `skipped` for a filter
# that did not run and `absent` for a file that was not written.
_TYPE_CODECS = {
    int: (str, int),
    float: (repr, float),
    str: (str, str),
    bool: _BOOL_CODEC,
    Optional[bool]: _optional(_BOOL_CODEC, "skipped"),
    Optional[str]: _optional((str, str), "absent"),
}
_FIELD_TYPES = get_type_hints(InstanceRecord)
_FIELD_CODECS = tuple((fld.name, *_TYPE_CODECS[_FIELD_TYPES[fld.name]])
                      for fld in fields(InstanceRecord))
MANIFEST_FIELDS = ("schema_version",) + tuple(name for name, _, _ in _FIELD_CODECS)


def manifest_text(record: InstanceRecord) -> str:
    lines = [f"schema_version: {MANIFEST_SCHEMA_VERSION}\n"]
    lines += [f"{name}: {write(getattr(record, name))}\n" for name, write, _ in _FIELD_CODECS]
    return "".join(lines)


def parse_manifest(text: str) -> InstanceRecord:
    """The record a manifest holds. Blank lines are skipped; a line without
    ':', a key outside the frozen field set or a repeated key is refused."""
    values: Dict[str, str] = {}
    for ln in text.splitlines():
        if not ln.strip():
            continue
        key, colon, value = ln.partition(":")
        key = key.strip()
        if not colon:
            raise ValueError(f"manifest line without ':': {ln!r}")
        if key not in MANIFEST_FIELDS:
            raise ValueError(f"unknown manifest field {key!r}")
        if key in values:
            raise ValueError(f"repeated manifest field {key!r}")
        values[key] = value.strip()
    missing = [k for k in MANIFEST_FIELDS if k not in values]
    if missing:
        raise ValueError(f"manifest missing fields: {missing}")
    if values["schema_version"] != str(MANIFEST_SCHEMA_VERSION):
        raise ValueError(f"unsupported manifest schema_version {values['schema_version']!r}")
    kwargs = {}
    for name, _, read in _FIELD_CODECS:
        try:
            kwargs[name] = read(values[name])
        except ValueError as exc:
            raise ValueError(f"{name}: {exc}") from None
    record = InstanceRecord(**kwargs)
    if record.gadget_mode not in GADGETS:
        raise ValueError(f"unknown gadget mode {record.gadget_mode!r}")
    return record


def _atomic_write(path: Path, text: str) -> None:
    """Write text to a temp file of a unique name beside path, then rename it.

    Mode "x" never opens a file another writer holds and, unlike
    tempfile.mkstemp's 0600, leaves the final file's mode to the umask.
    """
    tmp = path.with_name(f"{path.name}.{os.getpid()}.{secrets.token_hex(4)}.tmp")
    fh = open(tmp, "x", encoding="utf-8")
    try:
        with fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def clause_digest(formula_text: str) -> str:
    return "sha256:" + hashlib.sha256(formula_text.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# The generator.


@dataclass(frozen=True)
class TrialOutcome:
    trial: int
    reject_reason: Optional[str] = None
    record: Optional[InstanceRecord] = None  # set exactly when accepted
    formula_text: Optional[str] = None  # export_xor_dimacs(formula), made once
    graph: Optional[Graph] = None

    @property
    def accepted(self) -> bool:
        return self.record is not None


def run_trial(cfg: PipelineConfig, draw: TrialDraw) -> TrialOutcome:
    """All filters for one trial, given by its draw from sampler.screen;
    no files are written here."""
    trial = draw.trial

    # Cheapest filter first: the rank check settles most trials before the
    # formula is built and the IR search runs.
    if not draw.full_rank():
        return TrialOutcome(trial, REJECT_NOT_UNIQUE)
    f = draw.formula()

    phi_asymmetric: Optional[bool] = None
    if cfg.gadget_mode == GADGET_CORE:
        verdict = phi_is_asymmetric(f, cfg.budget)
        if verdict is None:
            return TrialOutcome(trial, REJECT_BUDGET)
        if not verdict:
            return TrialOutcome(trial, REJECT_PHI_SYMMETRIC)
        phi_asymmetric = True

    gap = gauss_ratio(f, max_decisions=cfg.budget)
    # The plain run decides the same question as the rank check, without
    # GF(2) elimination; a run that the budget stops proves nothing here.
    if gap.plain.result == SAT:
        raise AssertionError("rank check and SAT cross-check disagree")
    if not gap.ratio >= cfg.gauss_threshold:
        return TrialOutcome(trial, REJECT_LOW_RATIO)

    g = build_graph(f, cfg.gadget_mode)
    instance_id = draw_name(cfg.sample_config, trial)
    formula_text = export_xor_dimacs(f)
    record = InstanceRecord(
        instance_id=instance_id,
        n=cfg.n,
        m=f.m,
        seed=cfg.seed,
        trial=trial,
        gadget_mode=cfg.gadget_mode,
        clause_digest=clause_digest(formula_text),
        phi_asymmetric=phi_asymmetric,
        uniquely_satisfiable=True,
        gauss_ratio=gap.ratio,
        wl1_nonseparating=None,
        vertices=g.vertex_count,
        edges=g.edge_count,
        formula_file=f"{instance_id}/{FORMULA_NAME}",
        **{f"graph_{fmt}": f"{instance_id}/{name}" if fmt in cfg.formats else None
           for fmt, (name, _) in GRAPH_FILES.items()},
        tool_version=__version__,
    )
    return TrialOutcome(trial, None, record, formula_text, g)


def trial_outcomes(cfg: PipelineConfig) -> Iterator[TrialOutcome]:
    """The outcome of each of cfg's trials, lazily and in trial order."""
    for draw in draws(cfg.sample_config, range(cfg.trials)):
        yield run_trial(cfg, draw)


def write_instance(outcome: TrialOutcome, out_dir: Union[str, Path]) -> None:
    """An accepted trial's formula, graph files and manifest."""
    record, out = outcome.record, Path(out_dir)
    (out / record.manifest_file).parent.mkdir(parents=True, exist_ok=True)
    _atomic_write(out / record.formula_file, outcome.formula_text)
    for fmt, rel in record.graph_files.items():
        if rel is not None:
            _atomic_write(out / rel, export_graph(outcome.graph, fmt))
    _atomic_write(out / record.manifest_file, manifest_text(record))


def generate(cfg: PipelineConfig, out_dir: Union[str, Path]) -> List[InstanceRecord]:
    """Write each accepted outcome of trial_outcomes(cfg), then the batch index."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    records: List[InstanceRecord] = []
    rejects: List[TrialOutcome] = []
    for outcome in trial_outcomes(cfg):
        if not outcome.accepted:
            logger.info("trial %d rejected: %s", outcome.trial, outcome.reject_reason)
            rejects.append(outcome)
            continue
        write_instance(outcome, out)
        records.append(outcome.record)
        logger.info("trial %d accepted as %s", outcome.trial, outcome.record.instance_id)
    index_lines = [
        f"# schema_version: {MANIFEST_SCHEMA_VERSION}",
        f"# trials: {cfg.trials} accepted: {len(records)} rejected: {len(rejects)}",
    ]
    index_lines += [f"# rejected trial {o.trial}: {o.reject_reason}" for o in rejects]
    index_lines += [f"{r.instance_id}\t{r.manifest_file}\t{r.clause_digest}" for r in records]
    _atomic_write(out / "index.txt", "\n".join(index_lines) + "\n")
    return records


# ---------------------------------------------------------------------------
# Validation of written instances.


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class ValidationReport:
    instance_id: str
    checks: Tuple[CheckResult, ...]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)


def _first_difference(got: bytes, want: bytes) -> str:
    """Where a file's bytes part from the writer's: the first line that
    differs, or both line counts when one text is a prefix of the other."""
    got_lines, want_lines = got.splitlines(True), want.splitlines(True)
    for no, (a, b) in enumerate(zip(got_lines, want_lines), start=1):
        if a != b:
            return f"line {no}: file has {a[:60]!r}, writer gives {b[:60]!r}"
    return f"file has {len(got_lines)} lines, writer gives {len(want_lines)}"


def _same_bytes(name: str, got: bytes, text: str) -> CheckResult:
    """A check that passes exactly when a file's bytes are the writer's
    UTF-8 text, and otherwise names where they part."""
    want = text.encode("utf-8")
    return CheckResult(name, got == want, "" if got == want else _first_difference(got, want))


def validate(manifest_path: Union[str, Path]) -> ValidationReport:
    """Re-read an instance from disk and re-check the cheap invariants."""
    manifest_path = Path(manifest_path)
    checks: List[CheckResult] = []
    try:
        record = parse_manifest(manifest_path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return ValidationReport("<unreadable>", (CheckResult("manifest_readable", False, str(exc)),))
    checks.append(CheckResult("manifest_readable", True))

    # Its paths are relative to the batch directory, so they name this
    # instance's files only from <batch>/<instance_id>/manifest.txt and
    # only while each points into that directory.
    here = Path(os.path.abspath(manifest_path)).parent
    own = Path(record.instance_id)
    strays = [rel for rel in (record.formula_file, *record.graph_files.values())
              if rel is not None and Path(rel).parent != own]
    if here.name != record.instance_id or strays:
        checks.append(CheckResult("instance_directory", False,
                                  f"manifest in {here.name}/, paths outside {own}/: {strays}"))
        return ValidationReport(record.instance_id, tuple(checks))
    checks.append(CheckResult("instance_directory", True))
    base = here.parent

    try:
        # Bytes decoded strictly, not read_text: its universal newlines
        # would fold a CRLF or lone-CR copy into the digested text.
        formula_bytes = (base / record.formula_file).read_bytes()
        formula_text = formula_bytes.decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        checks.append(CheckResult("formula_file", False, str(exc)))
        return ValidationReport(record.instance_id, tuple(checks))
    checks.append(CheckResult("formula_file", True))

    digest = clause_digest(formula_text)
    checks.append(CheckResult("clause_digest", digest == record.clause_digest,
                              f"expected {record.clause_digest}, got {digest}"))

    # The formula is a function of (n, m, seed, trial) under the frozen
    # stream, so it is drawn again, never parsed. Every formula generate
    # writes covers its n variables in m + 1 lines; holding the manifest
    # to that keeps the draw and its lift no larger than the file.
    lines = len(formula_bytes.splitlines())
    try:
        config = SampleConfig(n=record.n, m=record.m, seed=record.seed)
        if record.n > 3 * record.m:
            raise ValueError(f"n={record.n} variables cannot all occur in m={record.m} clauses")
        if lines != record.m + 1:
            raise ValueError(f"file has {lines} lines, m={record.m} clauses take {record.m + 1}")
        draw = screen(config, range(record.trial, record.trial + 1))[0]
    except ValueError as exc:
        checks.append(CheckResult("formula_draw", False, str(exc)))
        return ValidationReport(record.instance_id, tuple(checks))
    f = draw.formula()
    checks.append(_same_bytes("formula_draw", formula_bytes, export_xor_dimacs(f)))
    unique = record.uniquely_satisfiable
    checks.append(CheckResult("rank_check", draw.full_rank() == unique,
                              f"the draw has {'deficient' if unique else 'full'} rank"))

    # The lifts assert their size against VertexScheme's count formulas.
    expected = build_graph(f, record.gadget_mode)
    want_v, want_e = expected.vertex_count, expected.edge_count
    checks.append(CheckResult("vertex_formula", record.vertices == want_v,
                              f"manifest {record.vertices}, formula {want_v}"))
    checks.append(CheckResult("edge_formula", record.edges == want_e,
                              f"manifest {record.edges}, formula {want_e}"))

    # Vertex numbering and the writers are frozen, so a graph file is right
    # exactly when it holds the writer's bytes for the fresh lift.
    for fmt, rel in record.graph_files.items():
        if rel is None:
            continue
        try:
            got = (base / rel).read_bytes()
        except OSError as exc:
            checks.append(CheckResult(f"graph_{fmt}", False, str(exc)))
            continue
        checks.append(_same_bytes(f"graph_{fmt}", got, export_graph(expected, fmt)))
    return ValidationReport(record.instance_id, tuple(checks))
