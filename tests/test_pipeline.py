"""Pipeline: file formats, filters, determinism, validation."""

import csv
import hashlib
import os
import random
import re
import shutil
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest

import xorcfi
from xorcfi import formula, pipeline, xorsat
from xorcfi.cfi import Graph, build_core
from xorcfi.formula import export_xor_dimacs, import_xor_dimacs
from xorcfi.pipeline import (
    GADGET_CORE,
    GADGET_FULL,
    MANIFEST_FIELDS,
    InstanceRecord,
    PipelineConfig,
    _atomic_write,
    build_graph,
    clause_digest,
    from_dre,
    generate,
    manifest_text,
    parse_manifest,
    phi_is_asymmetric,
    run_trial,
    to_dimacs_graph,
    to_dre,
    validate,
)
from xorcfi.formula import is_uniquely_satisfiable
from xorcfi.sampler import SampleConfig, chunks, sample_homogeneous
from xorcfi.xorsat import SAT, gauss_ratio

from oracles import degrees, dimacs_graph_text, trial_draw

P3 = Graph(3, [(0, 1), (1, 2)])


def random_graph(rnd, n, p=0.4):
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                     if rnd.random() < p])


# -- graph formats ---------------------------------------------------------


def test_dre_frozen_path_graph():
    assert to_dre(P3) == "n=3 $=0 g\n0 : 1;\n1 : 2.\n"


def test_dre_frozen_empty_graph():
    assert to_dre(Graph(2, [])) == "n=2 $=0 g\n.\n"


def test_dimacs_frozen_path_graph():
    assert to_dimacs_graph(P3) == "p edge 3 2\ne 1 2\ne 2 3\n"


def test_round_trip_100_graphs_byte_exact():
    # The DIMACS graph format is written, not read: its text is checked
    # against the oracle's.
    rnd = random.Random(8)
    for _ in range(100):
        g = random_graph(rnd, rnd.randint(1, 15))
        text = to_dre(g)
        back = from_dre(text)
        assert back.vertex_count == g.vertex_count
        assert back.edges == g.edges
        assert to_dre(back) == text
        assert to_dimacs_graph(g) == dimacs_graph_text(g)


def test_dre_parses_isolated_tail_vertices():
    g = Graph(5, [(0, 1)])
    assert from_dre(to_dre(g)).vertex_count == 5


def test_dre_rejects_nonzero_labelling_origin():
    assert from_dre("n=3 $=0 g\n0 : 1.\n").edges == from_dre("n=3 g\n0 : 1.\n").edges
    for head in ("n=3 $=1 g", "n=3 $1 g", "n=3 $$ g", "n=3 $=0 g 0 : 1.", "n=3 $=0 g junk 7"):
        with pytest.raises(ValueError, match="^line 1: "):
            from_dre(head + "\n1 : 2.\n")


def test_dre_rejects_every_proper_line_prefix():
    rnd = random.Random(21)
    for _ in range(5):
        g = random_graph(rnd, rnd.randint(3, 12), p=0.5)
        lines = to_dre(Graph(g.vertex_count, g.edges | {(0, 1)})).splitlines(True)
        for k in range(len(lines)):
            with pytest.raises(ValueError):
                from_dre("".join(lines[:k]))


def test_dre_rejects_a_body_line_without_colon():
    # dreadnaut would read a bare number as one more neighbour of the
    # current vertex; the frozen format has only `<v> : <w> ...` lines.
    for text in ("n=3 $=0 g\n0 : 1;\n2.\n", "n=3 $=0 g\n2\n.\n"):
        with pytest.raises(ValueError, match="without ':'"):
            from_dre(text)


def test_dre_rejects_negative_vertex_count():
    with pytest.raises(ValueError, match="vertex count must be >= 0"):
        from_dre("n=-5 $=0 g\n.\n")
    assert from_dre("n=0 $=0 g\n.\n").vertex_count == 0


def test_dimacs_graph_rejects_garbage():
    # The one DIMACS reader reads formulas: a DIMACS graph is refused at its header.
    with pytest.raises(ValueError, match="^line 1: bad DIMACS header 'p edge 2 1'$"):
        import_xor_dimacs("p edge 2 1\ne 1 2\n")
    with pytest.raises(ValueError):
        from_dre("0 : 1;\n")


def test_importers_merge_a_reversed_duplicate_edge():
    g = from_dre("n=3 $=0 g\n0 : 1 2;\n1 : 0;\n2 : 0 0.\n")
    assert g.vertex_count == 3 and g.edge_count == 2
    assert g.edges == {(0, 1), (0, 2)}


def test_importers_reject_bad_vertices():
    bad_dre = {
        "self-loop": "n=3 $=0 g\n0 : 1;\n1 : 1.\n",
        "out of range": "n=3 $=0 g\n0 : 3.\n",
        "negative": "n=3 $=0 g\n0 : -1.\n",
        "negative row": "n=3 $=0 g\n-1 : 2.\n",
        "beyond int64": "n=3 $=0 g\n0 : 99999999999999999999.\n",
        "non-integer": "n=3 $=0 g\n0 : 1 x.\n",
        "non-integer row": "n=3 $=0 g\n\n0 : 1;\n;\nx : 2.\n",
        "non-integer count": "n=x $=0 g\n.\n",
        "negative count": "n=-1 $=0 g\n.\n",
        "no colon": "n=3 $=0 g\n0 : 1;\n2.\n",
    }
    for name, text in bad_dre.items():
        with pytest.raises(ValueError):
            from_dre(text)
    # A bad line is named by its number, as the DIMACS reader names its own.
    for name, message in (("non-integer", "line 2: non-integer vertex id in '0 : 1 x.'"),
                          ("non-integer row", "line 5: non-integer vertex id in 'x : 2.'"),
                          ("non-integer count", "line 1: non-integer vertex count"),
                          ("beyond int64", "line 2: vertex id out of range"),
                          ("no colon", "line 3: dreadnaut body line without ':'"),
                          ("self-loop", "line 3: bad edge (1, 1) for 3 vertices in '1 : 1.'"),
                          ("out of range", "line 2: bad edge (0, 3) for 3 vertices in '0 : 3.'"),
                          ("negative", "line 2: bad edge (-1, 0) for 3 vertices in '0 : -1.'"),
                          ("negative row", "line 2: bad edge (-1, 2) for 3 vertices in '-1 : 2.'"),
                          ("negative count", "line 1: vertex count must be >= 0, got -1 in")):
        with pytest.raises(ValueError, match="^" + re.escape(message)):
            from_dre(bad_dre[name])


def test_importers_round_trip_empty_and_isolated_tail_vertices():
    for g in (Graph(0, []), Graph(4, []), Graph(7, [(0, 1), (1, 2)])):
        back = from_dre(to_dre(g))
        assert back.vertex_count == g.vertex_count
        assert back.edges == g.edges
        assert to_dimacs_graph(g) == dimacs_graph_text(g)


def test_check_reports_a_graph_file_with_a_self_loop(tmp_path, capsys):
    from xorcfi.cli import main

    cfg = PipelineConfig(n=8, m=12, seed=5, trials=3, gauss_threshold=1.0)
    record = generate(cfg, tmp_path)[0]
    path = tmp_path / record.graph_dre
    path.write_text(path.read_text().replace("0 : ", "0 : 0 ", 1))
    assert main(["check", str(tmp_path / record.manifest_file)]) == 1
    out = capsys.readouterr().out
    assert f"{record.instance_id}: graph_dre: FAIL" in out
    assert out.endswith("0/1 instances valid\n")


@pytest.mark.skipif(shutil.which("dreadnaut") is None,
                    reason="dreadnaut binary not installed")
def test_dre_accepted_by_real_dreadnaut():
    text = to_dre(P3) + "x\nq\n"
    proc = subprocess.run(["dreadnaut"], input=text, capture_output=True, text=True, timeout=30)
    assert proc.returncode == 0


# -- config ----------------------------------------------------------------


def test_config_rejects_subcritical_ratio():
    with pytest.raises(ValueError):
        PipelineConfig(n=10, ratio=0.9, seed=0)


def test_config_accepts_ratio_one():
    cfg = PipelineConfig(n=4, m=4, seed=0)
    assert cfg.sample_config.effective_m == 4


def test_config_checks_sampling_parameters():
    with pytest.raises(ValueError, match="one of m or ratio"):
        PipelineConfig(n=10)
    with pytest.raises(ValueError):
        PipelineConfig(n=5, m=11)  # only C(5, 3) = 10 distinct triples
    assert PipelineConfig(n=5, m=10).sample_config.effective_m == 10
    with pytest.raises(ValueError, match="give m or ratio, not both"):
        PipelineConfig(n=10, m=10, ratio=3.0)


def test_config_rejects_negative_budget():
    with pytest.raises(ValueError, match="budget must be >= 0"):
        PipelineConfig(n=6, m=8, budget=-1)
    assert PipelineConfig(n=6, m=8, budget=0, gauss_threshold=1.0).budget == 0


# -- filters ---------------------------------------------------------------


def test_forced_complete_triples_accepted():
    cfg = PipelineConfig(n=4, m=4, seed=1, trials=1, gauss_threshold=1.0)
    outcome = run_trial(cfg, trial_draw(cfg, 0))
    assert outcome.accepted
    assert outcome.record.vertices == 33
    assert outcome.record.edges == 70
    assert outcome.record.uniquely_satisfiable


def test_filter_order_cannot_change_accept_set():
    budget = 100_000
    threshold = 2.0
    for trial in range(12):
        f = sample_homogeneous(SampleConfig(n=8, m=12, seed=55), trial)
        checks = {
            "phi": lambda f=f: phi_is_asymmetric(f, budget) is True,
            "unique": lambda f=f: is_uniquely_satisfiable(f),
            "gauss": lambda f=f: gauss_ratio(f, budget).ratio >= threshold,
        }
        orderings = [("phi", "unique", "gauss"),
                     ("gauss", "unique", "phi"),
                     ("unique", "phi", "gauss")]
        verdicts = []
        for order in orderings:
            verdicts.append(all(checks[name]() for name in order))
        assert len(set(verdicts)) == 1


def _first_failing_filter(f, cfg):
    """Every filter on f, none skipped; the reason of the first that fails."""
    unique = is_uniquely_satisfiable(f)
    phi = phi_is_asymmetric(f, cfg.budget)
    gap = gauss_ratio(f, cfg.budget).ratio >= cfg.gauss_threshold
    for passed, reason in ((unique, pipeline.REJECT_NOT_UNIQUE),
                           (phi is not None, pipeline.REJECT_BUDGET),
                           (phi is not False, pipeline.REJECT_PHI_SYMMETRIC),
                           (gap, pipeline.REJECT_LOW_RATIO)):
        if not passed:
            return reason
    return None


FILTER_CASES = [
    # The hard regime's first trials.
    (PipelineConfig(n=30, ratio=1, seed=5000, trials=60, gadget_mode=GADGET_CORE,
                    gauss_threshold=1.0),
     {pipeline.REJECT_NOT_UNIQUE: 56, pipeline.REJECT_PHI_SYMMETRIC: 1, None: 3}),
    # The default threshold: every filter rejects some trial.
    (PipelineConfig(n=8, m=10, seed=31, trials=60, gadget_mode=GADGET_CORE),
     {pipeline.REJECT_NOT_UNIQUE: 8, pipeline.REJECT_PHI_SYMMETRIC: 3,
      pipeline.REJECT_LOW_RATIO: 48, None: 1}),
    # No IR node to spend: every uniquely satisfiable trial runs out.
    (PipelineConfig(n=30, ratio=1, seed=5000, trials=60, gadget_mode=GADGET_CORE,
                    budget=0, gauss_threshold=1.0),
     {pipeline.REJECT_NOT_UNIQUE: 56, pipeline.REJECT_BUDGET: 4}),
]


@pytest.mark.parametrize("cfg, expected", FILTER_CASES)
def test_reject_reason_is_the_first_failing_filter_cheapest_first(cfg, expected):
    reasons = []
    for trial in range(cfg.trials):
        outcome = run_trial(cfg, trial_draw(cfg, trial))
        reason = _first_failing_filter(sample_homogeneous(cfg.sample_config, trial), cfg)
        assert outcome.accepted == (reason is None)
        assert outcome.reject_reason == reason
        reasons.append(reason)
    assert Counter(reasons) == expected


@pytest.mark.parametrize("cfg", [cfg for cfg, _ in FILTER_CASES])
def test_chunked_generate_gives_the_per_trial_verdicts(cfg, tmp_path):
    # Enough trials for a whole chunk and some of the next.
    cfg = replace(cfg, trials=len(next(chunks(cfg.sample_config, range(10**6)))) + 20)
    assert len(list(chunks(cfg.sample_config, range(cfg.trials)))) == 2
    records = generate(cfg, tmp_path)
    outcomes = [run_trial(cfg, trial_draw(cfg, trial)) for trial in range(cfg.trials)]
    index = (tmp_path / "index.txt").read_text(encoding="utf-8").splitlines()
    rejected = [ln.removeprefix("# rejected trial ").split(": ") for ln in index
                if ln.startswith("# rejected trial ")]
    assert rejected == [[str(o.trial), o.reject_reason] for o in outcomes if not o.accepted]
    assert records == [o.record for o in outcomes if o.accepted]
    assert rejected


def test_run_trial_raises_when_plain_run_contradicts_rank_check(monkeypatch):
    real = pipeline.gauss_ratio

    def gap_reporting_sat(f, max_decisions=None):
        gap = real(f, max_decisions=max_decisions)
        return replace(gap, plain=replace(gap.plain, result=SAT))

    monkeypatch.setattr(pipeline, "gauss_ratio", gap_reporting_sat)
    cfg = PipelineConfig(n=4, m=4, seed=1, trials=1, gauss_threshold=1.0)
    with pytest.raises(AssertionError, match="disagree"):
        run_trial(cfg, trial_draw(cfg, 0))


def _spy(monkeypatch, name, calls, module=pipeline):
    real = getattr(module, name)

    def spy(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, spy)


@pytest.mark.parametrize("gadget_mode", [GADGET_FULL, GADGET_CORE])
def test_one_graph_build_per_accepted_trial_and_one_rank_per_check(
        tmp_path, monkeypatch, gadget_mode):
    calls = []
    for name in ("build_core", "build_full"):
        _spy(monkeypatch, name, calls)
    _spy(monkeypatch, "rank", calls, module=formula)
    _spy(monkeypatch, "reduced_system", calls, module=xorsat)
    cfg = PipelineConfig(n=8, m=12, seed=5, trials=1, gadget_mode=gadget_mode,
                         gauss_threshold=1.0)
    records = generate(cfg, tmp_path)
    assert len(records) == 1
    assert calls == ["rank", f"build_{gadget_mode}"]
    calls.clear()
    report = validate(tmp_path / records[0].manifest_file)
    assert report.ok
    assert calls.count("rank") == 1


def test_accepted_records_satisfy_invariants(tmp_path):
    cfg = PipelineConfig(n=10, m=18, seed=13, trials=8, gauss_threshold=1.0)
    records = generate(cfg, tmp_path)
    assert records, "expected at least one accepted trial"
    for rec in records:
        f = import_xor_dimacs((tmp_path / rec.formula_file).read_text())
        assert is_uniquely_satisfiable(f)
        assert rec.vertices == 4 * rec.m + 2 * rec.n + 3 * (rec.n - 1)
        assert rec.edges == 12 * rec.m + rec.n + 6 * (rec.n - 1)
        assert rec.gauss_ratio >= cfg.gauss_threshold
        g = build_graph(f, GADGET_FULL)
        deg = degrees(g)
        assert min(deg[2 * j] for j in range(rec.n)) >= 4


def test_core_mode_requires_asymmetric_incidence(tmp_path):
    cfg = PipelineConfig(n=9, m=11, seed=77, trials=10, gadget_mode=GADGET_CORE,
                         gauss_threshold=1.0)
    records = generate(cfg, tmp_path)
    for rec in records:
        assert rec.phi_asymmetric is True
        f = import_xor_dimacs((tmp_path / rec.formula_file).read_text())
        assert phi_is_asymmetric(f, 100_000) is True
        assert rec.vertices == 4 * rec.m + 2 * rec.n


# -- determinism and artifacts ----------------------------------------------


def test_generate_is_byte_deterministic(tmp_path):
    cfg = PipelineConfig(n=10, m=15, seed=3, trials=4, gauss_threshold=1.0,
                         formats=("dre", "dimacs"))
    a, b = tmp_path / "a", tmp_path / "b"
    recs_a = generate(cfg, a)
    recs_b = generate(cfg, b)
    assert [r.instance_id for r in recs_a] == [r.instance_id for r in recs_b]
    files_a = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
    assert files_a == files_b
    for rel in files_a:
        assert (a / rel).read_bytes() == (b / rel).read_bytes()


def test_generate_leaves_other_writers_temp_files_alone(tmp_path):
    cfg = PipelineConfig(n=8, m=12, seed=5, trials=3, gauss_threshold=1.0)
    reference = generate(cfg, tmp_path / "ref")
    out = tmp_path / "out"
    stray = out / reference[0].instance_id / "graph.dre.tmp"
    stray.parent.mkdir(parents=True)
    stray.write_text("another writer's data\n")
    records = generate(cfg, out)
    assert stray.read_text() == "another writer's data\n"
    for rel in (records[0].graph_dre, records[0].manifest_file, "index.txt"):
        assert (out / rel).read_bytes() == (tmp_path / "ref" / rel).read_bytes()
    assert sorted(out.rglob("*.tmp")) == [stray]


def test_atomic_write_removes_its_temp_file_when_the_write_fails(tmp_path):
    with pytest.raises(UnicodeEncodeError):
        _atomic_write(tmp_path / "index.txt", "lone surrogate \udc80\n")
    assert list(tmp_path.iterdir()) == []


# The manifest field set and order README freezes.
README_MANIFEST_FIELDS = (
    "schema_version", "instance_id", "n", "m", "seed", "trial", "gadget_mode",
    "clause_digest", "phi_asymmetric", "uniquely_satisfiable", "gauss_ratio",
    "wl1_nonseparating", "vertices", "edges", "formula_file", "graph_dre",
    "graph_dimacs", "tool_version",
)


def test_manifest_fields_are_the_frozen_set():
    assert MANIFEST_FIELDS == README_MANIFEST_FIELDS


def test_manifest_round_trip():
    record = InstanceRecord(
        instance_id="n0010_m0015_s3_t0000", n=10, m=15, seed=3, trial=0,
        gadget_mode="full", clause_digest="sha256:abc", phi_asymmetric=None,
        uniquely_satisfiable=True, gauss_ratio=float("inf"), wl1_nonseparating=None,
        vertices=107, edges=244, formula_file="n0010_m0015_s3_t0000/formula.xcnf",
        graph_dre="n0010_m0015_s3_t0000/graph.dre", graph_dimacs=None, tool_version="0.1.0",
    )
    variants = [
        (record, {"phi_asymmetric": "skipped", "wl1_nonseparating": "skipped",
                  "graph_dimacs": "absent", "gauss_ratio": "inf", "uniquely_satisfiable": "true"}),
        (replace(record, phi_asymmetric=True, wl1_nonseparating=False, gauss_ratio=2.5,
                 graph_dre=None, graph_dimacs="n0010_m0015_s3_t0000/graph.dimacs"),
         {"phi_asymmetric": "true", "wl1_nonseparating": "false", "gauss_ratio": "2.5",
          "graph_dre": "absent"}),
        (replace(record, phi_asymmetric=False, wl1_nonseparating=True, gadget_mode="core",
                 uniquely_satisfiable=False, gauss_ratio=float("-inf")),
         {"phi_asymmetric": "false", "wl1_nonseparating": "true", "gauss_ratio": "-inf",
          "uniquely_satisfiable": "false"}),
    ]
    for rec, expected in variants:
        text = manifest_text(rec)
        lines = dict(ln.split(": ", 1) for ln in text.splitlines())
        assert list(lines) == list(MANIFEST_FIELDS)
        assert {key: lines[key] for key in expected} == expected
        assert parse_manifest(text) == rec
    assert record.manifest_file == "n0010_m0015_s3_t0000/manifest.txt"
    # A boolean reads only `true` or `false`; an optional one also `skipped`.
    text = manifest_text(record)
    for field, value in [("uniquely_satisfiable", "yes"), ("phi_asymmetric", "maybe"),
                         ("wl1_nonseparating", "yes"), ("uniquely_satisfiable", "skipped")]:
        line = next(ln for ln in text.splitlines() if ln.startswith(f"{field}: "))
        with pytest.raises(ValueError, match=f"^{field}: expected true or false, got '{value}'$"):
            parse_manifest(text.replace(line, f"{field}: {value}"))


def test_validate_fresh_instance(tmp_path):
    cfg = PipelineConfig(n=8, m=12, seed=5, trials=3, gauss_threshold=1.0,
                         formats=("dre", "dimacs"))
    records = generate(cfg, tmp_path)
    assert records
    report = validate(tmp_path / records[0].manifest_file)
    assert report.ok, [c for c in report.checks if not c.passed]
    assert [c.name for c in report.checks] == [*FORMULA_CHECKS, "rank_check", "vertex_formula",
                                               "edge_formula", "graph_dre", "graph_dimacs"]


# The checks `validate` makes before it has a draw to compare with, in order.
FORMULA_CHECKS = ("manifest_readable", "instance_directory", "formula_file", "clause_digest",
                  "formula_draw")


@pytest.mark.parametrize("cfg, dense", [
    pytest.param(PipelineConfig(n=8, m=12, seed=5, trials=210, gauss_threshold=1.0), False,
                 id="chunked"),
    pytest.param(PipelineConfig(n=6, m=18, seed=1, trials=10, gauss_threshold=1.0), True,
                 id="dense_fisher_yates"),
])
def test_check_passes_every_instance_of_either_sampling_path(tmp_path, cfg, dense):
    from xorcfi.cli import main

    sample = cfg.sample_config
    assert (sample.effective_m > sample.max_clauses // 2) == dense
    records = generate(cfg, tmp_path)
    if dense:
        assert len(records) == cfg.trials
    else:  # an instance from past the first chunk
        assert records[-1].trial >= len(next(chunks(sample, range(cfg.trials))))
    assert main(["check", *(str(tmp_path / r.manifest_file) for r in records)]) == 0


def test_validate_catches_deleted_edge(tmp_path):
    cfg = PipelineConfig(n=8, m=12, seed=5, trials=3, gauss_threshold=1.0)
    records = generate(cfg, tmp_path)
    dre_path = tmp_path / records[0].graph_dre
    text = dre_path.read_text()
    g = from_dre(text)
    edges = sorted(g.edges)[:-1]
    dre_path.write_text(to_dre(Graph(g.vertex_count, edges)))
    report = validate(tmp_path / records[0].manifest_file)
    failed = {c.name: c.detail for c in report.checks if not c.passed}
    assert list(failed) == ["graph_dre"]
    no = _first_differing_line(dre_path.read_text(), text)
    assert failed["graph_dre"].startswith(f"line {no}: file has b'")


def _first_differing_line(a, b):
    return next(no for no, (x, y) in enumerate(zip(a.splitlines(), b.splitlines()), start=1)
                if x != y)


def _graph_check(tmp_path, rewrite, formats=("dre",)):
    """A fresh instance's record and the (passed, detail) of its graph_<fmt>
    checks after each graph file's text was replaced by rewrite(text)."""
    cfg = PipelineConfig(n=8, m=12, seed=5, trials=3, gauss_threshold=1.0, formats=formats)
    record = generate(cfg, tmp_path)[0]
    for rel in record.graph_files.values():
        if rel is not None:
            path = tmp_path / rel
            path.write_bytes(rewrite(path.read_bytes().decode("utf-8")).encode("utf-8"))
    report = validate(tmp_path / record.manifest_file)
    return record, {c.name: (c.passed, c.detail) for c in report.checks
                    if c.name.startswith("graph_")}


def _lift_dre(base, record):
    """to_dre of the lift of the instance's formula file."""
    f = import_xor_dimacs((base / record.formula_file).read_text())
    return to_dre(build_graph(f, record.gadget_mode))


def _one_line_per_edge(dre_text):
    """The same graph in dreadnaut text, each edge on its own line."""
    head, body = dre_text.split("\n", 1)
    rows = [row.split(" : ") for row in body.rstrip(".\n").split(";\n")]
    return head + "\n" + ";\n".join(f"{u} : {w}" for u, ws in rows for w in ws.split()) + ".\n"


def test_check_fails_a_graph_file_that_holds_the_lift_in_other_text(tmp_path):
    # Each rewritten file reads back as the lift's own graph, but it is not
    # the writer's bytes.
    record, crlf = _graph_check(tmp_path / "crlf", lambda text: text.replace("\n", "\r\n"),
                                formats=("dre", "dimacs"))
    v, e = record.vertices, record.edges
    assert crlf == {
        "graph_dre": (False, f"line 1: file has b'n={v} $=0 g\\r\\n', writer gives b'n={v} $=0 g\\n'"),
        "graph_dimacs": (False, f"line 1: file has b'p edge {v} {e}\\r\\n', "
                                f"writer gives b'p edge {v} {e}\\n'"),
    }

    written = _lift_dre(tmp_path / "crlf", record)
    split_text = _one_line_per_edge(written)
    assert from_dre(split_text).edges == from_dre(written).edges
    _, split = _graph_check(tmp_path / "split", _one_line_per_edge)
    assert not split["graph_dre"][0]
    no = _first_differing_line(split_text, written)
    assert split["graph_dre"][1].startswith(f"line {no}: file has b'")


def test_check_names_the_line_counts_when_a_graph_file_is_cut_short(tmp_path):
    record, cut = _graph_check(tmp_path, lambda text: "".join(text.splitlines(True)[:2]))
    lines = len(_lift_dre(tmp_path, record).splitlines())
    assert cut == {"graph_dre": (False, f"file has 2 lines, writer gives {lines}")}


def test_check_reports_a_formula_file_that_is_not_utf8(tmp_path, capsys):
    from xorcfi.cli import main

    cfg = PipelineConfig(n=8, m=12, seed=5, trials=3, gauss_threshold=1.0)
    record = generate(cfg, tmp_path)[0]
    (tmp_path / record.formula_file).write_bytes(b"\xff\xfe")
    assert main(["check", str(tmp_path / record.manifest_file)]) == 1
    out = capsys.readouterr().out
    assert (f"{record.instance_id}: formula_file: FAIL  ('utf-8' codec can't decode byte 0xff "
            "in position 0: invalid start byte)\n") in out
    assert out.endswith("0/1 instances valid\n")


def test_validate_catches_flipped_rhs(tmp_path):
    cfg = PipelineConfig(n=8, m=12, seed=5, trials=3, gauss_threshold=1.0)
    records = generate(cfg, tmp_path)
    fpath = tmp_path / records[0].formula_file
    text = fpath.read_text().splitlines()
    first_clause = text[1].split()
    first_clause[1] = str(-int(first_clause[1]))
    text[1] = " ".join(first_clause)
    fpath.write_text("\n".join(text) + "\n")
    report = validate(tmp_path / records[0].manifest_file)
    failed = {c.name for c in report.checks if not c.passed}
    assert "clause_digest" in failed


@pytest.mark.parametrize("ending", [b"\r\n", b"\r"])
def test_validate_digests_the_formula_file_bytes(tmp_path, ending):
    # The text differs only in its line endings, which universal-newline
    # reading would fold back to the written text.
    cfg = PipelineConfig(n=8, m=12, seed=5, trials=3, gauss_threshold=1.0)
    record = generate(cfg, tmp_path)[0]
    fpath = tmp_path / record.formula_file
    fpath.write_bytes(fpath.read_bytes().replace(b"\n", ending))
    checks = {c.name: c for c in validate(tmp_path / record.manifest_file).checks}
    got = clause_digest(fpath.read_bytes().decode("utf-8"))
    assert not checks["clause_digest"].passed
    assert checks["clause_digest"].detail == f"expected {record.clause_digest}, got {got}"
    # Still m + 1 lines to bytes.splitlines, so the draw is made and the
    # byte comparison alone fails it.
    assert not checks["formula_draw"].passed


def test_validate_missing_file(tmp_path):
    cfg = PipelineConfig(n=8, m=12, seed=5, trials=3, gauss_threshold=1.0)
    records = generate(cfg, tmp_path)
    (tmp_path / records[0].formula_file).unlink()
    report = validate(tmp_path / records[0].manifest_file)
    assert not report.ok


def _check_edited_manifest(tmp_path, capsys, old, new):
    """`xorcfi check` output on a fresh manifest with one line edited."""
    from xorcfi.cli import main

    cfg = PipelineConfig(n=8, m=12, seed=5, trials=3, gauss_threshold=1.0)
    records = generate(cfg, tmp_path)
    manifest = tmp_path / records[0].manifest_file
    manifest.write_text(manifest.read_text().replace(old, new))
    assert main(["check", str(manifest)]) == 1
    return capsys.readouterr().out


def test_check_reports_unknown_gadget_mode_without_traceback(tmp_path, capsys):
    out = _check_edited_manifest(tmp_path, capsys, "gadget_mode: full", "gadget_mode: fancy")
    assert "<unreadable>: manifest_readable: FAIL  (unknown gadget mode 'fancy')\n" in out


def test_check_reports_a_non_boolean_as_unreadable(tmp_path, capsys):
    out = _check_edited_manifest(tmp_path, capsys, "uniquely_satisfiable: true",
                                 "uniquely_satisfiable: yes")
    assert out == ("<unreadable>: manifest_readable: FAIL  "
                   "(uniquely_satisfiable: expected true or false, got 'yes')\n"
                   "0/1 instances valid\n")


@pytest.mark.parametrize("old, new, failed", [
    pytest.param("tool_version:", "bogus: 1\ntool_version:",
                 "manifest_readable: unknown manifest field 'bogus'", id="unknown_key"),
    pytest.param("tool_version:", "gauss_ratio: 2.0\ntool_version:",
                 "manifest_readable: repeated manifest field 'gauss_ratio'", id="repeated_key"),
    pytest.param("tool_version:", "stray text\ntool_version:",
                 "manifest_readable: manifest line without ':': 'stray text'",
                 id="line_without_colon"),
    pytest.param("schema_version: 1", "schema_version: one",
                 "manifest_readable: unsupported manifest schema_version 'one'",
                 id="schema_version_not_1"),
    # Manifests that read but name no formula the sampler can draw.
    pytest.param("\nseed: 5\n", "\nseed: 18446744073709551616\n",
                 "formula_draw: seed must fit in 64 bits", id="seed_past_64_bits"),
    pytest.param("\ntrial: 0\n", "\ntrial: -1\n", "formula_draw: trial index must fit in 64 bits",
                 id="negative_trial"),
    pytest.param("\nn: 8\n", "\nn: 2\n", "formula_draw: need at least 3 variables", id="n_2"),
    pytest.param("\nm: 12\n", "\nm: 0\n", "formula_draw: need at least 1 clause", id="m_0"),
])
def test_check_refuses_a_malformed_manifest_line(tmp_path, capsys, old, new, failed):
    """Each check passes up to the failed one, which ends the output."""
    out = _check_edited_manifest(tmp_path, capsys, old, new)
    name, message = failed.split(": ", 1)
    instance_id = "<unreadable>" if name == "manifest_readable" else out.split(":", 1)[0]
    passed = FORMULA_CHECKS[:FORMULA_CHECKS.index(name)]
    assert out == "".join(f"{instance_id}: {c}: ok\n" for c in passed) + (
        f"{instance_id}: {name}: FAIL  ({message})\n0/1 instances valid\n")


def test_validate_refuses_a_manifest_outside_its_instance_directory(tmp_path):
    cfg = PipelineConfig(n=8, m=12, seed=5, trials=3, gauss_threshold=1.0)
    record = generate(cfg, tmp_path / "batch")[0]
    copy = tmp_path / "batch" / "copy"
    shutil.copytree(tmp_path / "batch" / record.instance_id, copy)
    for name in (pipeline.FORMULA_NAME, pipeline.DRE_NAME):
        (copy / name).write_text("garbage")
    assert validate(tmp_path / "batch" / record.manifest_file).ok
    report = validate(copy / pipeline.MANIFEST_NAME)
    assert [(c.name, c.passed) for c in report.checks] == [
        ("manifest_readable", True), ("instance_directory", False)]
    assert report.checks[-1].detail == f"manifest in copy/, paths outside {record.instance_id}/: []"


def test_check_refuses_a_manifest_path_into_another_directory(tmp_path, capsys):
    out = _check_edited_manifest(tmp_path, capsys, "/formula.xcnf", "/../other/formula.xcnf")
    instance_id = out.split(":", 1)[0]
    assert out == (f"{instance_id}: manifest_readable: ok\n"
                   f"{instance_id}: instance_directory: FAIL  (manifest in {instance_id}/, "
                   f"paths outside {instance_id}/: ['{instance_id}/../other/formula.xcnf'])\n"
                   "0/1 instances valid\n")


def test_check_reports_a_manifest_too_small_to_draw(tmp_path, capsys):
    from xorcfi.cli import main

    cfg = PipelineConfig(n=8, m=12, seed=5, trials=3, gauss_threshold=1.0)
    record = generate(cfg, tmp_path)[0]
    formula_text = "p cnf 1 0\n"
    (tmp_path / record.formula_file).write_text(formula_text)
    manifest = tmp_path / record.manifest_file
    manifest.write_text(manifest_text(replace(record, n=1, m=0,
                                              clause_digest=clause_digest(formula_text))))
    assert main(["check", str(manifest)]) == 1
    out = capsys.readouterr().out
    assert out.endswith(f"{record.instance_id}: formula_draw: FAIL  (need at least 3 variables)\n"
                        "0/1 instances valid\n")


@pytest.mark.parametrize("edits, detail", [
    pytest.param({}, None, id="manifest_untouched"),
    pytest.param({"n": 3000000}, "n=3000000 variables cannot all occur in m=12 clauses",
                 id="manifest_n_edited"),
    pytest.param({"n": 3000000, "m": 3000000}, "file has 13 lines, m=3000000 clauses take 3000001",
                 id="manifest_n_and_m_edited"),
])
def test_check_draws_and_lifts_nothing_at_an_inflated_header(tmp_path, monkeypatch, edits, detail):
    """A header of 3 million variables over 12 clauses draws no formula and
    builds no lift at that n, whether or not the manifest agrees."""
    cfg = PipelineConfig(n=8, m=12, seed=5, trials=3, gauss_threshold=1.0)
    record = generate(cfg, tmp_path)[0]
    fpath = tmp_path / record.formula_file
    header = f"p cnf {record.n} {record.m}\n"
    fpath.write_text(fpath.read_text().replace(header, f"p cnf 3000000 {record.m}\n"))
    (tmp_path / record.manifest_file).write_text(manifest_text(replace(record, **edits)))
    calls = []

    def spy(name, n_of):
        real = getattr(pipeline, name)

        def call(*args):
            calls.append((name, n_of(*args)))
            # Refused before it runs: at the header's n it takes gigabytes.
            assert calls[-1][1] != 3000000, f"{name} called at the header's n"
            return real(*args)

        monkeypatch.setattr(pipeline, name, call)

    # pipeline's own reference to sampler.screen
    spy("screen", lambda config, trials: config.n)
    spy("build_graph", lambda f, gadget_mode: f.n)
    checks = {c.name: c for c in validate(tmp_path / record.manifest_file).checks}
    assert not checks["formula_draw"].passed
    if detail:
        assert checks["formula_draw"].detail == detail
        assert list(checks)[-1] == "formula_draw"
        assert calls == []
    else:
        assert checks["formula_draw"].detail == (
            f"line 1: file has b'p cnf 3000000 12\\n', writer gives {header.encode()!r}")
        assert calls == [("screen", record.n), ("build_graph", record.n)]


def test_check_fails_another_trials_files_under_a_fixed_digest(tmp_path):
    """Trial 1's formula and graph files in trial 0's instance, its
    clause_digest edited to match: the same n and m, both uniquely
    satisfiable. When `check` lifted the formula file, this instance
    passed every check."""
    cfg = PipelineConfig(n=8, ratio=2, seed=3, trials=2, gauss_threshold=1.0)
    own, other = generate(cfg, tmp_path)
    for rel, theirs in [(own.formula_file, other.formula_file), (own.graph_dre, other.graph_dre)]:
        shutil.copyfile(tmp_path / theirs, tmp_path / rel)
    (tmp_path / own.manifest_file).write_text(manifest_text(replace(
        own, clause_digest=other.clause_digest)))
    report = validate(tmp_path / own.manifest_file)
    assert [c.name for c in report.checks if not c.passed] == ["formula_draw", "graph_dre"]


def test_check_reports_a_graph_file_smaller_than_the_lift(tmp_path, capsys):
    from xorcfi.cli import main

    cfg = PipelineConfig(n=8, m=12, seed=5, trials=3, gauss_threshold=1.0)
    record = generate(cfg, tmp_path)[0]
    (tmp_path / record.graph_dre).write_text("n=4 $=0 g\n0 : 1.\n")
    assert main(["check", str(tmp_path / record.manifest_file)]) == 1
    out = capsys.readouterr().out
    assert (f"{record.instance_id}: graph_dre: FAIL  (line 1: file has b'n=4 $=0 g\\n', "
            f"writer gives b'n={record.vertices} $=0 g\\n')\n") in out
    assert out.endswith("0/1 instances valid\n")


def test_index_lists_accepted_instances(tmp_path):
    cfg = PipelineConfig(n=9, m=14, seed=6, trials=5, gauss_threshold=1.0)
    records = generate(cfg, tmp_path)
    index = (tmp_path / "index.txt").read_text().splitlines()
    listed = [ln.split("\t")[0] for ln in index if ln and not ln.startswith("#")]
    assert listed == [r.instance_id for r in records]


# -- CLI -------------------------------------------------------------------


def test_cli_generate_and_check(tmp_path):
    from xorcfi.cli import main

    out = tmp_path / "batch"
    rc = main(["generate", "--n", "8", "--m", "12", "--seed", "2", "--count", "3",
               "--gauss-threshold", "1", "--out", str(out)])
    assert rc == 0
    manifests = sorted(str(p) for p in out.glob("*/manifest.txt"))
    assert manifests
    assert main(["check"] + manifests) == 0


def _tree(root):
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def test_cli_generate_is_byte_deterministic_when_plain_runs_exhaust_the_budget(tmp_path):
    from xorcfi.cli import main

    argv = ["generate", "--n", "20", "--ratio", "2", "--seed", "7", "--count", "20",
            "--budget-decisions", "2", "--gauss-threshold", "1"]
    assert main(argv + ["--out", str(tmp_path / "a")]) == 0
    assert main(argv + ["--out", str(tmp_path / "b")]) == 0
    tree = _tree(tmp_path / "a")
    assert tree == _tree(tmp_path / "b")
    assert any(rel.endswith("/manifest.txt") and b"\ngauss_ratio: inf\n" in text
               for rel, text in tree.items())


# sha256 of what `sample` and `build` wrote before they went through _atomic_write.
CLI_SAMPLE_BUILD_DIGESTS = {
    "formulas/n0006_m0008_s4_t0000.xcnf": "98b168572cee3baaf9aefcdb4e77e2713995631cadd0a85c227739417509acdb",
    "formulas/n0006_m0008_s4_t0001.xcnf": "470672d0e348f21cc5fbb8570ac9038f5fd25f30cd18bf29323007a49414b726",
    "graphs/n0006_m0008_s4_t0000.dimacs": "1e635691fcc9ec893ec7e0d4f9230863630207f970df8225aacfe6c67273cb1c",
    "graphs/n0006_m0008_s4_t0001.dimacs": "e8baec4483679239d4cf9dead78643707c4e7d801f60af1cd1241fbfb91b7a9d",
}


def test_cli_sample_then_build(tmp_path, monkeypatch):
    from xorcfi import cli
    from xorcfi.cli import main

    written = []
    monkeypatch.setattr(cli, "_atomic_write", lambda path, text: (
        written.append(path.relative_to(tmp_path).as_posix()), _atomic_write(path, text)))
    sample_dir = tmp_path / "formulas"
    assert main(["sample", "--n", "6", "--m", "8", "--seed", "4", "--count", "2",
                 "--out", str(sample_dir)]) == 0
    formulas = sorted(str(p) for p in sample_dir.glob("*.xcnf"))
    assert len(formulas) == 2
    build_dir = tmp_path / "graphs"
    assert main(["build", *formulas, "--gadget", "core", "--format", "dimacs",
                 "--out", str(build_dir)]) == 0
    built = sorted(build_dir.glob("*.dimacs"))
    assert len(built) == 2
    for formula, path in zip(formulas, built):
        g = build_core(import_xor_dimacs(Path(formula).read_text()))
        assert g.vertex_count == 2 * 6 + 4 * 8
        assert path.read_text() == to_dimacs_graph(g)
    digests = {p.relative_to(tmp_path).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
               for p in tmp_path.rglob("*") if p.is_file()}
    assert digests == CLI_SAMPLE_BUILD_DIGESTS  # byte-identical, and no *.tmp left behind
    assert sorted(written) == sorted(CLI_SAMPLE_BUILD_DIGESTS)


def test_cli_sample_runs_at_other_m_write_other_files(tmp_path, capsys):
    from xorcfi.cli import main

    # The three runs differ only in m, the last through --ratio (m = 0.75 * 4).
    for m in (["--m", "1"], ["--m", "2"], ["--ratio", "0.75"]):
        assert main(["sample", "--n", "4", *m, "--out", str(tmp_path)]) == 0
    paths = [tmp_path / f"n0004_m000{m}_s0_t0000.xcnf" for m in (1, 2, 3)]
    assert sorted(tmp_path.iterdir()) == paths
    assert capsys.readouterr().out.splitlines() == [str(p) for p in paths]
    assert [import_xor_dimacs(p.read_text()).m for p in paths] == [1, 2, 3]


def test_cli_build_reports_a_formula_the_gadget_cannot_lift(tmp_path, capsys):
    from xorcfi.cli import main

    formula = tmp_path / "one.xcnf"
    formula.write_text("p cnf 1 0\n")
    assert main(["build", str(formula), "--gadget", "full", "--out", str(tmp_path / "d")]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (
        "", f"error: {formula}: order gadgets need at least 2 variables\n")


def test_cli_build_refuses_a_plain_cnf_file(tmp_path, capsys):
    from xorcfi.cli import main

    formula = tmp_path / "plain.cnf"
    formula.write_text("p cnf 3 1\n1 2 3 0\n")
    assert main(["build", str(formula), "--out", str(tmp_path / "d")]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (
        "", f"error: {formula}: line 2: unexpected line '1 2 3 0'\n")
    assert not (tmp_path / "d").exists()


def test_cli_build_writes_nothing_when_a_formula_fails(tmp_path, capsys):
    from xorcfi.cli import main

    good = tmp_path / "good.xcnf"
    good.write_text(export_xor_dimacs(sample_homogeneous(SampleConfig(n=6, m=8, seed=4))))
    missing = tmp_path / "missing.xcnf"
    assert main(["build", str(good), str(missing), "--out", str(tmp_path / "d")]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith(f"error: {missing}: ")
    assert not (tmp_path / "d").exists()


def test_cli_build_refuses_two_formulas_with_one_output_name(tmp_path, capsys):
    from xorcfi.cli import main

    paths = []
    for sub, n in (("a", 8), ("c", 9)):
        (tmp_path / sub).mkdir()
        paths.append(tmp_path / sub / "x.xcnf")
        paths[-1].write_text(export_xor_dimacs(sample_homogeneous(SampleConfig(n=n, m=n, seed=4))))
    out = tmp_path / "d"
    assert main(["build", str(paths[0]), str(paths[1]), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {paths[0]} and {paths[1]} would both write {out / 'x.dre'}\n"
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["generate", "--n", "2", "--ratio", "1"], "need at least 3 variables"),
    (["generate", "--n", "10", "--ratio", "2", "--count", "0"], "need at least one trial"),
    (["sample", "--n", "10", "--ratio", "2", "--seed", "-1"], "seed must fit in 64 bits"),
    (["generate", "--n", "10", "--ratio", "inf"], "ratio must be finite"),
    (["generate", "--n", "10", "--ratio", "nan"], "ratio must be finite"),
    (["sample", "--n", "10", "--ratio", "inf"], "ratio must be finite"),
    (["sample", "--n", "10", "--ratio", "nan"], "ratio must be finite"),
    (["generate", "--n", "20", "--ratio", "2", "--budget-decisions", "0"],
     "a budget of 0 decisions can show a finite gauss ratio of at most 1, below the threshold 5"),
    (["generate", "--n", "20", "--ratio", "2", "--budget-decisions", "-1"],
     "budget must be >= 0, got -1"),
    (["generate", "--n", "12", "--ratio", "2", "--gauss-threshold", "nan"],
     "gauss threshold must be a number, got nan"),
    (["sample", "--n", "10", "--ratio", "2", "--count", "0"], "need at least one trial"),
    (["sample", "--n", "10", "--ratio", "2", "--count", "-3"], "need at least one trial"),
    (["generate", "--n", "10", "--ratio", "1e308"], "ratio * n = 1e+308 * 10 is not finite"),
    (["sample", "--n", "10", "--ratio", "1e308"], "ratio * n = 1e+308 * 10 is not finite"),
    (["generate", "--n", "20", "--ratio", "2", "--budget-decisions", "4", "--gauss-threshold", "4.5"],
     "a budget of 4 decisions can show a finite gauss ratio of at most 4, below the threshold 4.5"),
])
def test_cli_reports_config_errors_without_traceback(tmp_path, capsys, argv, message):
    from xorcfi.cli import main

    assert main(argv + ["--out", str(tmp_path / "d")]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")
    assert not (tmp_path / "d").exists()


def test_cli_generate_runs_with_a_threshold_its_budget_can_show(tmp_path, capsys):
    from xorcfi.cli import main

    # A plain run that refutes within 4 decisions shows a ratio of 4.
    argv = ["generate", "--n", "20", "--ratio", "2", "--budget-decisions", "4",
            "--gauss-threshold", "4", "--out", str(tmp_path / "d")]
    assert main(argv) == 0
    assert capsys.readouterr().err == ""
    assert (tmp_path / "d" / "index.txt").exists()


def test_cli_generate_has_no_seconds_budget(tmp_path, capsys):
    from xorcfi.cli import main

    with pytest.raises(SystemExit) as exc:
        main(["generate", "--n", "20", "--ratio", "2", "--budget-seconds", "1",
              "--out", str(tmp_path / "d")])
    assert exc.value.code == 2
    assert "unrecognized arguments: --budget-seconds 1" in capsys.readouterr().err
    assert not (tmp_path / "d").exists()


# -- scripts ---------------------------------------------------------------


def _run_script(name, *args):
    script = Path(__file__).resolve().parents[1] / "scripts" / name
    env = dict(os.environ, PYTHONPATH=str(Path(xorcfi.__file__).parents[1]))
    return subprocess.run([sys.executable, str(script), *args],
                          env=env, capture_output=True, text=True, timeout=300)


def test_hardness_growth_script_toy_run(tmp_path):
    out = tmp_path / "growth"
    proc = _run_script("hardness_growth.py", "--ns", "10", "--ratio", "1.0", "--count", "2",
                       "--gadget", "core", "--max-trials", "200", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert (out / "results.csv").is_file()
    assert (out / "growth.txt").is_file()
    # Its instances are the first accepted ones generate writes for that config.
    generate(PipelineConfig(n=10, m=10, seed=5000, trials=200, gadget_mode=GADGET_CORE,
                            gauss_threshold=1.0), tmp_path / "batch")
    written = re.findall(r"^(n\S+)\t", (tmp_path / "batch" / "index.txt").read_text(), re.M)
    assert re.findall(r"^n=10 (\S+): ", proc.stdout, re.M) == written[:2]


def test_hardness_growth_script_reports_a_missed_quota(tmp_path):
    proc = _run_script("hardness_growth.py", "--ns", "10", "--ratio", "1.0", "--count", "20",
                       "--gadget", "core", "--max-trials", "12", "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    accepted = len(re.findall(r"^n=10 \S+: ", proc.stdout, re.M))
    assert 0 < accepted < 20
    assert f"n=10: {accepted} of 20 requested instances accepted in 12 trials\n" in proc.stdout


def test_hardness_growth_script_reports_a_config_error_without_traceback(tmp_path):
    proc = _run_script("hardness_growth.py", "--ns", "10", "20", "--ratio", "0.5",
                       "--out", str(tmp_path / "growth"))
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == ("error: clause/variable ratio below 1 can never be uniquely "
                           "satisfiable (m=5 < n=10)\n")
    assert not (tmp_path / "growth").exists()


@pytest.mark.parametrize("args, message", [
    (["--count", "0"], "count must be >= 1, got 0"),
    (["--count", "-1"], "count must be >= 1, got -1"),
    (["--max-nodes", "0"], "max nodes must be >= 1, got 0"),
])
def test_hardness_growth_script_refuses_out_of_range_limits(tmp_path, args, message):
    proc = _run_script("hardness_growth.py", "--ns", "10", *args, "--out", str(tmp_path / "growth"))
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", f"error: {message}\n")
    assert not (tmp_path / "growth").exists()


def test_hardness_growth_script_has_no_timeout(tmp_path):
    proc = _run_script("hardness_growth.py", "--ns", "10", "--timeout", "1",
                       "--out", str(tmp_path / "growth"))
    assert (proc.returncode, proc.stdout) == (2, "")
    assert "unrecognized arguments: --timeout 1" in proc.stderr
    assert not (tmp_path / "growth").exists()


def test_hardness_growth_script_rows_are_reproducible(tmp_path):
    # A cap of 20 nodes stops some of these searches and not others; every
    # column but the measured time, and the fit, come out the same twice.
    runs = []
    for out in (tmp_path / "a", tmp_path / "b"):
        proc = _run_script("hardness_growth.py", "--ns", "10", "12", "--ratio", "1.0",
                           "--count", "3", "--gadget", "core", "--max-nodes", "20",
                           "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        with open(out / "results.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        runs.append(([{k: v for k, v in r.items() if k != "time"} for r in rows],
                     (out / "growth.txt").read_text()))
    assert runs[0] == runs[1]
    statuses = [r["status"] for r in runs[0][0]]
    assert "OK" in statuses and "TIMEOUT" in statuses
    assert all(int(r["nodes"]) == 21 for r in runs[0][0] if r["status"] == "TIMEOUT")


@pytest.mark.parametrize("args, message", [
    (["--max-nodes", "-5"], "max nodes must be >= 1, got -5"),
    (["--timeout", "0"], "timeout must be a positive finite number of seconds, got 0.0"),
    (["--timeout", "inf"], "timeout must be a positive finite number of seconds, got inf"),
])
def test_solver_shootout_script_refuses_out_of_range_limits(tmp_path, args, message):
    batch = tmp_path / "batch"
    generate(PipelineConfig(n=8, m=12, seed=5, trials=3, gauss_threshold=1.0), batch)
    proc = _run_script("solver_shootout.py", str(batch), "--solvers", "internal", *args,
                       "--out", str(tmp_path / "out"))
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", f"error: {message}\n")
    assert not (tmp_path / "out").exists()


def _shootout(tmp_path, edit=lambda manifests: None):
    """The toy batch's records and the script's results.csv rows on it."""
    batch = tmp_path / "batch"
    records = generate(PipelineConfig(n=8, m=12, seed=5, trials=3, gauss_threshold=1.0), batch)
    assert len(records) >= 2
    edit([batch / r.manifest_file for r in records])
    proc = _run_script("solver_shootout.py", str(batch), "--solvers", "internal",
                       "--out", str(tmp_path / "out"))
    assert proc.returncode == 0, proc.stderr
    with open(tmp_path / "out" / "results.csv", newline="") as fh:
        return records, list(csv.DictReader(fh))


def test_solver_shootout_script_toy_run(tmp_path):
    records, rows = _shootout(tmp_path)
    assert [r["instance"] for r in rows] == [r.instance_id for r in records]
    assert all(r["solver"] == "internal-ir" and r["status"] == "OK" and int(r["nodes"]) > 0
               for r in rows)


def test_solver_shootout_script_refuses_an_unknown_solver(tmp_path):
    proc = _run_script("solver_shootout.py", str(tmp_path), "--solvers", "internal", "bogus",
                       "--out", str(tmp_path / "out"))
    assert (proc.returncode, proc.stdout) == (2, "")
    assert "argument --solvers: invalid choice: 'bogus'" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "out").exists()


def test_solver_shootout_script_reports_an_unreadable_manifest(tmp_path):
    def break_two(manifests):
        text = manifests[0].read_text()
        manifests[0].write_text(text.replace("gadget_mode: full", "gadget_mode: fancy"))
        # A manifest that cannot be opened at all: a directory of that name.
        manifests[1].unlink()
        manifests[1].mkdir()

    records, rows = _shootout(tmp_path, break_two)
    assert [(r["instance"], r["solver"], r["status"]) for r in rows] == (
        [(r.instance_id, "internal-ir", "ERROR") for r in records[:2]]
        + [(r.instance_id, "internal-ir", "OK") for r in records[2:]])
    assert len(records) > 2


def test_solver_shootout_script_reports_a_missing_or_malformed_dre(tmp_path):
    def break_two(manifests):
        (manifests[0].parent / pipeline.DRE_NAME).unlink()
        (manifests[1].parent / pipeline.DRE_NAME).write_text("")

    records, rows = _shootout(tmp_path, break_two)
    assert [(r["instance"], r["solver"], r["status"]) for r in rows] == (
        [(r.instance_id, "internal-ir", "ERROR") for r in records[:2]]
        + [(r.instance_id, "internal-ir", "OK") for r in records[2:]])
    assert len(records) > 2
