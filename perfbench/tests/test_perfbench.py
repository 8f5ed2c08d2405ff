"""Toy-size runs of every workload.

They check that each metric BENCHMARK.json names is emitted with its
unit, that the exact counters repeat across runs and between traced and
untraced runs, and that corrupted artifacts count as failed operations.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH_DIR))

import workloads  # noqa: E402
from layers import PER_LAYER, REJECT_REASONS, layer_metrics  # noqa: E402
from spans import Span  # noqa: E402
from xorcfi import gf2, pipeline  # noqa: E402

SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text(encoding="utf-8"))

TOY = {
    "hard": workloads.Params(n=10, ratio=1.0, gadget="core", trials=20, instances=2,
                             setup_repeats=1),
    "scale": workloads.Params(n=24, ratio=2.0, gadget="full", instances=1, rejected=1,
                              budget_decisions=64, setup_repeats=1),
    "pebble": workloads.Params(n=7, ratio=2.0, gadget="full", trials=3, instances=1, k=3,
                               max_states=10_000, setup_repeats=1),
}
SEED = 7


def toy_run(workload, trace, tmp_path, seed=SEED):
    return workloads.run(workload, seed, 0.0, trace, params=TOY[workload], work_root=tmp_path)


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("runs")
    return {(w, t): toy_run(w, t, tmp) for w in TOY for t in (False, True)}


def test_spec_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.DEFAULTS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == workloads.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == \
        [(m.name, m.unit, m.better) for m in PER_LAYER]


@pytest.mark.parametrize("workload", list(TOY))
@pytest.mark.parametrize("trace", [False, True])
def test_every_named_metric_is_emitted_with_its_unit(runs, workload, trace):
    result = runs[(workload, trace)]
    summary = result.summary()
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    assert summary["correct"] and summary["failed"] == 0 and summary["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(summary["metrics"]) == [m["name"] for m in spec]
    for m in spec:
        got = summary["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])
        if not trace:
            assert got["value"] > 0, m["name"]
    json.dumps(summary)


@pytest.mark.parametrize("workload", list(TOY))
def test_counters_repeat_exactly(runs, workload, tmp_path):
    untraced, traced = runs[(workload, False)], runs[(workload, True)]
    again = toy_run(workload, False, tmp_path)
    assert again.counters == untraced.counters
    assert all(c == untraced.counters[0] for c in traced.counters)
    first = untraced.counters[0]
    assert first["accepted"] >= 1 and len(first["tree_sha256"]) == 64
    other = toy_run(workload, False, tmp_path, seed=SEED + 1)
    assert other.counters[0]["tree_sha256"] != first["tree_sha256"]


def test_traced_exact_counts_agree_with_the_counters(runs):
    result = runs[("hard", True)]
    first = result.counters[0]
    assert result.metrics["canon.certify.nodes"][0] == \
        sum(first["ir_nodes"]) + sum(first["prefix_nodes"])
    assert result.metrics["pipeline.accepted"][0] == first["accepted"]
    assert result.metrics["pipeline.bytes_written"][0] == first["bytes"]
    assert result.metrics["trace.coverage"][0] > 0.5
    pebble = runs[("pebble", True)]
    assert pebble.metrics["canon.consistency.calls"][0] == TOY["pebble"].n


def test_tracing_costs_time(tmp_path):
    # Medians of interleaved untraced and traced repeats: drift between
    # samples must not make tracing look free or faster.
    result = workloads.run("hard", SEED, 1.0, True, params=TOY["hard"], work_root=tmp_path)
    assert result.info["repeats"] >= 2
    assert result.metrics["trace.overhead_ratio"][0] > 0.95


def test_a_raising_trial_is_counted_not_fatal():
    raised = Span(0, -1, "pipeline", "pipeline.run_trial", "pipeline.run_trial", True,
                  0.0, 1.0, 1.0, {"raised": "ValueError"})
    values = layer_metrics([raised], 1.0)
    assert values["pipeline.trials"] == 1 and values["pipeline.accepted"] == 0
    assert all(values[f"pipeline.reject.{r}"] == 0 for r in REJECT_REASONS)


def test_tracing_leaves_the_program_unchanged(runs):
    assert pipeline.rank is gf2.rank
    assert not hasattr(pipeline.run_trial, "__wrapped__")


def _break_graph(manifest: Path) -> None:
    path = manifest.parent / pipeline.DRE_NAME
    header, first = path.read_text(encoding="utf-8").splitlines()[:2]
    path.write_text(f"{header}\n{first.rstrip(';.')}.\n", encoding="utf-8")


def _break_manifest(manifest: Path) -> None:
    lines = manifest.read_text(encoding="utf-8").splitlines(keepends=True)
    manifest.write_text("".join(ln for ln in lines if not ln.startswith("edges:")), encoding="utf-8")


@pytest.mark.parametrize("corrupt", [_break_graph, _break_manifest])
def test_corrupted_artifact_counts_as_failed(corrupt, monkeypatch, tmp_path):
    original = workloads.Runner._generate_all

    def generate_then_corrupt(self, rs, seeds, out):
        manifests = original(self, rs, seeds, out)
        corrupt(manifests[0])
        return manifests

    monkeypatch.setattr(workloads.Runner, "_generate_all", generate_then_corrupt)
    result = toy_run("hard", False, tmp_path)
    assert not result.correct
    assert result.ledger.failed >= 2  # the reference round and the measured one
    assert 0 < result.info["failed_ratio"] < 1


def test_fails_without_the_program(tmp_path):
    bare = tmp_path / "bare"
    shutil.copytree(BENCH_DIR, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", bare)
    proc = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", "hard",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
