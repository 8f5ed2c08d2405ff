"""Benchmark harness: external GI solvers and the internal IR solver.

External solvers run as child processes with a wall-clock timeout; a
timed-out run records the limit itself as its time, so timed-out points
sit on the timeout line when plotted; the growth fit leaves them out.
The internal solver takes no time limit: it stops at its node cap, so
its status and node count depend on the instance and the cap alone.
Missing binaries and unreadable instance files degrade to an ERROR
result and the batch continues.
Instance files are never touched.
"""

from __future__ import annotations

import csv
import io
import math
import re
import shutil
import subprocess
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .canon import CELL_FIRST_SMALLEST, STATUS_COMPLETE, STATUS_TIMEOUT, ir_automorphisms
from .cfi import Graph
from .pipeline import _atomic_write, from_dre, to_dimacs_graph

STATUS_OK = "OK"
STATUS_ERROR = "ERROR"

MISSING_SOLVER = "MISSING_SOLVER"

INTERNAL_SOLVER = "internal-ir"  # the solver column of run_internal's rows


@dataclass(frozen=True)
class BenchResult:
    instance: str
    solver: str
    time_s: float
    status: str
    group_size: Optional[int] = None
    nodes: Optional[int] = None
    error: Optional[str] = None
    n_vars: Optional[int] = None
    m: Optional[int] = None
    vertices: Optional[int] = None


@dataclass(frozen=True)
class SolverAdapter:
    """How to invoke one external solver on a .dre instance."""

    name: str
    binary: str
    input_format: str  # "dre-stdin" feeds dreadnaut commands; "dimacs-arg" passes a converted file
    prelude: str = ""  # dreadnaut mode commands sent before the graph
    group_pattern: str = r"grpsize=([0-9.eE+]+)"


ADAPTERS: Dict[str, SolverAdapter] = {
    "traces": SolverAdapter("traces", "dreadnaut", "dre-stdin", prelude="At"),
    "nauty": SolverAdapter("nauty", "dreadnaut", "dre-stdin", prelude="As"),
    "bliss": SolverAdapter("bliss", "bliss", "dimacs-arg",
                           group_pattern=r"\|Aut\|\s*[:=]\s*([0-9.eE+*^ ]+)"),
    "conauto": SolverAdapter("conauto", "conauto", "dimacs-arg",
                             group_pattern=r"[Aa]utomorphism group size\s*[:=]?\s*([0-9.eE+]+)"),
}


def _parse_group_size(text: str, pattern: str) -> Optional[int]:
    match = re.search(pattern, text)
    if not match:
        return None
    token = match.group(1).strip()
    try:
        value = float(token)
    except ValueError:
        return None
    if not math.isfinite(value) or value < 1:
        return None
    return round(value)


def run_external(solver: str, dre_file: Union[str, Path], timeout: float) -> BenchResult:
    """Launch one solver on one .dre file; never raises on child failure."""
    if solver not in ADAPTERS:
        raise ValueError(f"unknown solver adapter {solver!r}; known: {sorted(ADAPTERS)}")
    adapter = ADAPTERS[solver]
    dre_path = Path(dre_file)
    instance = dre_path.parent.name or dre_path.stem
    if shutil.which(adapter.binary) is None:
        return BenchResult(instance, solver, 0.0, STATUS_ERROR, error=MISSING_SOLVER)
    try:
        dre_text = dre_path.read_text(encoding="utf-8")
    except OSError as exc:
        return BenchResult(instance, solver, 0.0, STATUS_ERROR, error=str(exc))

    tmp_path: Optional[Path] = None
    if adapter.input_format == "dre-stdin":
        argv = [adapter.binary]
        stdin_text = (adapter.prelude + "\n" if adapter.prelude else "") + dre_text + "x\nq\n"
    else:
        try:
            graph = from_dre(dre_text)
        except ValueError as exc:
            return BenchResult(instance, solver, 0.0, STATUS_ERROR, error=str(exc))
        tmp = tempfile.NamedTemporaryFile("w", suffix=".dimacs", delete=False, encoding="utf-8")
        tmp.write(to_dimacs_graph(graph))
        tmp.close()
        tmp_path = Path(tmp.name)
        argv = [adapter.binary, str(tmp_path)]
        stdin_text = ""

    start = time.monotonic()
    try:
        proc = subprocess.run(argv, input=stdin_text, capture_output=True,
                              text=True, timeout=timeout)
        elapsed = time.monotonic() - start
        output = proc.stdout + "\n" + proc.stderr
        if proc.returncode != 0:
            return BenchResult(instance, solver, elapsed, STATUS_ERROR,
                               error=f"exit {proc.returncode}: {proc.stderr.strip()[:200]}")
        return BenchResult(instance, solver, elapsed, STATUS_OK,
                           group_size=_parse_group_size(output, adapter.group_pattern))
    except subprocess.TimeoutExpired:
        return BenchResult(instance, solver, float(timeout), STATUS_TIMEOUT)
    except OSError as exc:
        return BenchResult(instance, solver, 0.0, STATUS_ERROR, error=str(exc))
    finally:
        if tmp_path is not None:
            tmp_path.unlink(missing_ok=True)


def check_limits(max_nodes: Optional[int], timeout: Optional[float] = None) -> None:
    """Refuse the scripts' node cap below 1, under which an internal search
    is recorded as TIMEOUT at once, and an external solver's time limit
    that is not a positive finite number of seconds (NaN included), which
    subprocess.run cannot wait for."""
    if max_nodes is not None and max_nodes < 1:
        raise ValueError(f"max nodes must be >= 1, got {max_nodes}")
    if timeout is not None and not 0 < timeout < math.inf:
        raise ValueError(f"timeout must be a positive finite number of seconds, got {timeout}")


def run_internal(
    g: Graph,
    instance: str = "",
    cell_strategy: str = CELL_FIRST_SMALLEST,
    max_nodes: Optional[int] = None,
) -> BenchResult:
    """IR solver run; node count is the machine-independent cost. A search
    stopped by its node cap is TIMEOUT with nodes == max_nodes + 1; every
    run records its measured elapsed time."""
    start = time.monotonic()
    report = ir_automorphisms(g, max_nodes=max_nodes, cell_strategy=cell_strategy)
    elapsed = time.monotonic() - start
    if report.status == STATUS_COMPLETE:
        return BenchResult(instance, INTERNAL_SOLVER, elapsed, STATUS_OK,
                           group_size=report.group_size, nodes=report.search_nodes)
    return BenchResult(instance, INTERNAL_SOLVER, elapsed, STATUS_TIMEOUT,
                       nodes=report.search_nodes)


CSV_COLUMNS = ("instance", "n_vars", "m", "vertices", "solver", "time", "status", "nodes")


def results_csv(results: Sequence[BenchResult]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(CSV_COLUMNS)
    for r in sorted(results, key=lambda r: (r.instance, r.solver)):
        writer.writerow([
            r.instance,
            "" if r.n_vars is None else r.n_vars,
            "" if r.m is None else r.m,
            "" if r.vertices is None else r.vertices,
            r.solver,
            f"{r.time_s:.6f}",
            r.status,
            "" if r.nodes is None else r.nodes,
        ])
    return buf.getvalue()


def _cost_points(results: Sequence[BenchResult]) -> Dict[str, List[Tuple[int, float, str]]]:
    """Each solver's sorted (vertices, cost, status) points. The cost is
    the node count when there is one, else the recorded time; ERROR runs
    and results without a vertex count are left out."""
    by_solver: Dict[str, List[Tuple[int, float, str]]] = {}
    for r in results:
        if r.status != STATUS_ERROR and r.vertices is not None:
            cost = r.time_s if r.nodes is None else float(r.nodes)
            by_solver.setdefault(r.solver, []).append((r.vertices, cost, r.status))
    return {solver: sorted(points) for solver, points in by_solver.items()}


def growth_report(results: Sequence[BenchResult]) -> str:
    """Per-solver log(cost) vs vertices fit over OK runs; a ratio line
    below 3 points, and neither when every point has one vertex count.
    A TIMEOUT run's cost is only a bound, so it is left out of the fit
    and counted."""
    lines = []
    for solver, points in sorted(_cost_points(results).items()):
        timed_out = sum(status == STATUS_TIMEOUT for _, _, status in points)
        points = [(v, c) for v, c, status in points if status == STATUS_OK and c > 0]
        if not points and not timed_out:
            continue
        if len(points) < 2:
            line = f"{solver}: {len(points)} point(s), nothing to compare"
        elif len({v for v, _ in points}) == 1:
            line = (f"{solver}: {len(points)} points, all at {points[0][0]} vertices; "
                    "the vertex counts do not vary, nothing to compare")
        elif len(points) < 3:
            (v0, c0), (v1, c1) = points[0], points[-1]
            line = f"{solver}: cost ratio {c1 / c0:.3f} from {v0} to {v1} vertices (no fit)"
        else:
            xs = np.array([p[0] for p in points], dtype=float)
            ys = np.log(np.array([p[1] for p in points], dtype=float))
            slope, intercept = np.polyfit(xs, ys, 1)
            line = f"{solver}: log-cost slope {slope:.6f} per vertex over {len(points)} points"
            line += (f" (cost doubles every {math.log(2) / slope:.1f} vertices)"
                     if slope > 0 else " (not growing)")
        if timed_out:
            line += f"; {timed_out} {STATUS_TIMEOUT} row(s) left out"
        lines.append(line)
    return "\n".join(lines) + "\n" if lines else "no data\n"


def write_summary(results: Sequence[BenchResult], out_dir: Union[str, Path]) -> None:
    """results.csv, growth.txt and per-solver '<solver>.dat' plot files."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _atomic_write(out / "results.csv", results_csv(results))
    _atomic_write(out / "growth.txt", growth_report(results))
    for solver, points in _cost_points(results).items():
        body = "".join(f"{v} {c:.6f}\n" for v, c, _ in points)
        _atomic_write(out / f"{solver}.dat", "# vertices cost\n" + body)
