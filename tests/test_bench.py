"""Bench harness: adapters, timeouts, CSV and growth summaries."""

import math
import os
import stat

import pytest

from xorcfi import bench
from xorcfi.bench import (
    ADAPTERS,
    MISSING_SOLVER,
    STATUS_ERROR,
    STATUS_OK,
    STATUS_TIMEOUT,
    BenchResult,
    SolverAdapter,
    growth_report,
    results_csv,
    run_external,
    run_internal,
    write_summary,
)
from xorcfi.cfi import Graph
from xorcfi.pipeline import build_graph, to_dre

from oracles import COMPLETE

K4 = Graph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])


def write_dre(tmp_path, g, name="graph.dre"):
    path = tmp_path / name
    path.write_text(to_dre(g))
    return path


def fake_adapter(tmp_path, name, script, input_format="dre-stdin"):
    binary = tmp_path / f"{name}.sh"
    binary.write_text("#!/bin/sh\n" + script + "\n")
    binary.chmod(binary.stat().st_mode | stat.S_IEXEC)
    adapter = SolverAdapter(name, str(binary), input_format)
    ADAPTERS[name] = adapter
    return adapter


@pytest.fixture
def scratch_adapters():
    added = []
    yield added
    for name in added:
        ADAPTERS.pop(name, None)


def test_missing_binary_degrades(tmp_path):
    dre = write_dre(tmp_path, K4)
    results = []
    for solver in ("traces", "nauty", "bliss", "conauto"):
        res = run_external(solver, dre, timeout=5)
        results.append(res)
        if res.error == MISSING_SOLVER:
            assert res.status == STATUS_ERROR
    # The batch continues regardless of missing binaries.
    assert len(results) == 4


def test_unknown_solver_rejected(tmp_path):
    with pytest.raises(ValueError):
        run_external("zzz", write_dre(tmp_path, K4), timeout=1)


def test_fake_solver_output_parsed(tmp_path, scratch_adapters):
    fake_adapter(tmp_path, "fakegrp", "cat > /dev/null; echo 'grpsize=24; 3 gens'")
    scratch_adapters.append("fakegrp")
    res = run_external("fakegrp", write_dre(tmp_path, K4), timeout=10)
    assert res.status == STATUS_OK
    assert res.group_size == 24


def test_fake_solver_unparseable_is_ok_without_group(tmp_path, scratch_adapters):
    fake_adapter(tmp_path, "fakemute", "cat > /dev/null; echo done")
    scratch_adapters.append("fakemute")
    res = run_external("fakemute", write_dre(tmp_path, K4), timeout=10)
    assert res.status == STATUS_OK
    assert res.group_size is None


def test_timeout_records_limit(tmp_path, scratch_adapters):
    fake_adapter(tmp_path, "fakeslow", "sleep 30")
    scratch_adapters.append("fakeslow")
    res = run_external("fakeslow", write_dre(tmp_path, K4), timeout=0.3)
    assert res.status == STATUS_TIMEOUT
    assert res.time_s == 0.3


def test_failing_solver_reports_error(tmp_path, scratch_adapters):
    fake_adapter(tmp_path, "fakebad", "cat > /dev/null; echo broken >&2; exit 3")
    scratch_adapters.append("fakebad")
    res = run_external("fakebad", write_dre(tmp_path, K4), timeout=10)
    assert res.status == STATUS_ERROR
    assert "exit 3" in res.error


def test_bad_dre_is_an_error_before_a_dimacs_solver_starts(tmp_path, monkeypatch):
    bindir = tmp_path / "bin"
    bindir.mkdir()
    marker = tmp_path / "started"
    fake = bindir / "bliss"
    fake.write_text(f"#!/bin/sh\ntouch {marker}\necho '|Aut| = 1'\n")
    fake.chmod(fake.stat().st_mode | stat.S_IEXEC)
    monkeypatch.setenv("PATH", f"{bindir}{os.pathsep}{os.environ.get('PATH', '')}")
    empty = tmp_path / "empty.dre"
    empty.write_text("")
    res = run_external("bliss", empty, timeout=10)
    assert (res.status, res.error) == (STATUS_ERROR, "missing dreadnaut header")
    res = run_external("bliss", tmp_path / "absent.dre", timeout=10)
    assert res.status == STATUS_ERROR
    assert "absent.dre" in res.error
    assert not marker.exists()
    # The same fake does start on a well-formed file.
    assert run_external("bliss", write_dre(tmp_path, K4), timeout=10).status == STATUS_OK
    assert marker.exists()


def test_run_internal_k4():
    res = run_internal(K4, instance="k4")
    assert res.status == STATUS_OK
    assert res.group_size == 24
    assert res.nodes is not None


def test_run_internal_lifted_instance():
    g = build_graph(COMPLETE, "full")
    res = run_internal(g, instance="complete")
    assert res.status == STATUS_OK
    assert res.group_size == 1


def test_run_internal_deterministic_nodes():
    g = build_graph(COMPLETE, "full")
    nodes = {run_internal(g).nodes for _ in range(3)}
    assert len(nodes) == 1


def test_run_internal_node_cap_records_elapsed():
    g = build_graph(COMPLETE, "full")
    res = run_internal(g, max_nodes=1)
    assert (res.status, res.nodes) == (STATUS_TIMEOUT, 2)
    assert res.time_s > 0.0
    assert res.group_size is None


# -- summaries ---------------------------------------------------------------


def test_empty_results_csv_has_header_only():
    assert results_csv([]).splitlines() == ["instance,n_vars,m,vertices,solver,time,status,nodes"]
    assert growth_report([]) == "no data\n"


def res(instance, solver, vertices, nodes=None, time_s=1.0, status=STATUS_OK):
    return BenchResult(instance, solver, time_s, status,
                       nodes=nodes, vertices=vertices, n_vars=1, m=1)


def test_two_points_gives_ratio_not_fit():
    report = growth_report([res("a", "s", 10, nodes=16), res("b", "s", 20, nodes=64)])
    assert "ratio 4.000" in report
    assert "slope" not in report


def test_exponential_series_fits_positive_slope():
    points = [res(f"i{k}", "s", 10 * k, nodes=2**k) for k in range(1, 8)]
    report = growth_report(points)
    slope = float(report.split("slope ")[1].split()[0])
    assert slope > 0
    assert math.isclose(slope, math.log(2) / 10, rel_tol=0.05)


def test_points_at_one_vertex_count_give_no_growth(recwarn):
    # Four instances of one lift size: neither a slope nor a cost ratio.
    four = [res(f"i{k}", "s", 181, nodes=2**k + 1) for k in range(4)]
    two = [res("a", "t", 181, nodes=16), res("b", "t", 181, nodes=64)]
    report = growth_report(four + two)
    assert report == (
        "s: 4 points, all at 181 vertices; the vertex counts do not vary, nothing to compare\n"
        "t: 2 points, all at 181 vertices; the vertex counts do not vary, nothing to compare\n")
    assert not recwarn.list
    timed_out = growth_report(four + [res("j", "s", 181, nodes=99, status=STATUS_TIMEOUT)])
    assert timed_out.endswith("nothing to compare; 1 TIMEOUT row(s) left out\n")


def test_csv_rows_sorted_by_instance_and_solver():
    rows = [res("b", "x", 5, nodes=1), res("a", "y", 5, nodes=1), res("a", "x", 5, nodes=1)]
    lines = results_csv(rows).splitlines()[1:]
    keys = [tuple(ln.split(",")[:1] + ln.split(",")[4:5]) for ln in lines]
    assert keys == sorted(keys)


def test_write_summary_files(tmp_path, monkeypatch):
    written = []
    real_write = bench._atomic_write
    monkeypatch.setattr(bench, "_atomic_write", lambda path, text: (
        written.append(path.name), real_write(path, text)))
    results = [res("a", "s", 10, nodes=4), res("b", "s", 20, nodes=16), res("b", "t", 20, time_s=2.0)]
    write_summary(results, tmp_path)
    # The bytes the plain writes produced before they went through _atomic_write.
    expected = {
        "results.csv": b"instance,n_vars,m,vertices,solver,time,status,nodes\r\n"
                       b"a,1,1,10,s,1.000000,OK,4\r\nb,1,1,20,s,1.000000,OK,16\r\n"
                       b"b,1,1,20,t,2.000000,OK,\r\n",
        "growth.txt": b"s: cost ratio 4.000 from 10 to 20 vertices (no fit)\n"
                      b"t: 1 point(s), nothing to compare\n",
        "s.dat": b"# vertices cost\n10 4.000000\n20 16.000000\n",
        "t.dat": b"# vertices cost\n20 2.000000\n",
    }
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == expected
    assert sorted(written) == sorted(expected)


def test_timed_out_runs_are_plotted_but_not_fitted(tmp_path):
    # An external TIMEOUT row records the limit as its time and an internal
    # one its capped node count: both are plotted, neither is a cost the
    # fit may take as exact.
    results = [
        res("a", "traces", 10, time_s=1.0),
        res("b", "traces", 20, time_s=60.0, status=STATUS_TIMEOUT),
        res("a", "internal-ir", 10, nodes=2),
        res("b", "internal-ir", 20, nodes=100, status=STATUS_TIMEOUT),
        res("c", "internal-ir", 30, nodes=8),
        res("d", "internal-ir", 40, nodes=16),
        res("e", "internal-ir", 50, status=STATUS_ERROR),
    ]
    write_summary(results, tmp_path)
    assert (tmp_path / "traces.dat").read_text() == "# vertices cost\n10 1.000000\n20 60.000000\n"
    assert (tmp_path / "internal-ir.dat").read_text() == (
        "# vertices cost\n10 2.000000\n20 100.000000\n30 8.000000\n40 16.000000\n")
    lines = (tmp_path / "growth.txt").read_text().splitlines()
    assert lines[0].startswith("internal-ir: log-cost slope 0.069315 per vertex over 3 points")
    assert lines[0].endswith("; 1 TIMEOUT row(s) left out")
    assert lines[1] == "traces: 1 point(s), nothing to compare; 1 TIMEOUT row(s) left out"
    only_timeouts = [res("b", "s", 20, nodes=100, status=STATUS_TIMEOUT)]
    assert growth_report(only_timeouts) == (
        "s: 0 point(s), nothing to compare; 1 TIMEOUT row(s) left out\n")
