"""The benchmark's workloads: seeded inputs, timed rounds, output checks.

A workload runs in rounds. Round r draws its inputs from the benchmark
seed and r alone, so the same (seed, r) always gives the same inputs
and the same exact counters. Each run first makes one untimed round 0,
which warms every cache and serves as the reference: a later round 0,
traced or not, must reproduce its counters exactly.

The program is driven in-process and in one thread, through its public
entry points: ``xorcfi.cli.main`` for generate and check,
``xorcfi.bench.run_internal`` for certification,
``xorcfi.canon.local_consistency`` for the pebble game and
``xorcfi.xorsat.solve`` for the Gauss-side check.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

import setup_probe

setup_probe.load_xorcfi()

from xorcfi import bench, canon, cli, formula, pipeline, sampler, xorsat  # noqa: E402

from layers import PER_LAYER, layer_metrics  # noqa: E402
from spans import NULL_TRACER, Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"
PROBE = Path(setup_probe.__file__).resolve()


@dataclass(frozen=True)
class Params:
    """Sizes of one workload. DEFAULTS holds the benchmark's; tests pass toy ones.

    hard:   one generate call of ``trials`` trials, certification of the
            first ``instances`` accepted graphs, then the first
            PREFIX_NODES nodes of an IR search on each of the first
            PREFIXES accepted graphs.
    scale:  ``instances`` generate calls of one trial that passes the
            uniqueness screen and ``rejected`` calls of one that fails
            it, then the Gauss-side solve of each accepted formula.
    pebble: one generate call of ``trials`` trials, then every pin of
            the first ``instances`` accepted formulas through the
            k-pebble checker.
    """

    n: int
    ratio: float
    gadget: str
    trials: int = 1
    instances: int = 1
    rejected: int = 0
    budget_decisions: Optional[int] = None
    k: int = 6
    max_states: int = 150_000
    setup_repeats: int = 4  # set-up probes per batch; a run takes two batches


DEFAULTS: Dict[str, Params] = {
    "hard": Params(n=30, ratio=1.0, gadget="core", trials=500, instances=1),
    "scale": Params(n=1000, ratio=2.0, gadget="full", instances=1, rejected=3,
                    budget_decisions=4096),
    "pebble": Params(n=12, ratio=2.0, gadget="full", trials=10, instances=1),
}
DEFAULT_SEEDS = {"hard": 5000, "scale": 5000, "pebble": 2208}
# Gauss-side solves of each accepted scale formula: a round has one
# accepted formula, and one ~0.3 s sample per round is too few to time.
SCALE_SOLVES = 3
# hard times the first PREFIX_NODES nodes of an IR search on each of the
# first PREFIXES accepted graphs of a round; see Runner._search_prefixes.
PREFIXES = 10
PREFIX_NODES = 63

# What one unit of the hardness phase is, per workload.
UNITS = {"hard": "IR search node of a search prefix", "scale": "Gauss-side solve",
         "pebble": "pinned system"}

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "gen_ms_per_trial": "ref_ms",
    "hardness_ms_per_unit": "ref_ms",
}


def derive_seed(seed: int, *parts: int) -> int:
    """A 63-bit pipeline seed for (seed, parts); round 0 of a workload uses seed itself."""
    digest = hashlib.sha256(":".join(str(x) for x in (seed, *parts)).encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


class Ledger:
    """Attempted and failed operations: trials, validations, certifications,
    Gauss-side solves, pins and counter comparisons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: List[str] = []

    def record(self, attempted: int, failed: int, note: str = "") -> None:
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.notes.append(note)
            print(f"perfbench: FAILED {failed}/{attempted}: {note}", file=sys.stderr)


# Nominal wall of Gauge.reference(); see Gauge.
REFERENCE_S = 0.005


class Gauge:
    """Times operations at a reference speed of the machine.

    A shared virtual machine can change speed by up to ~80% for seconds
    at a time, and the slow spells hit any fixed work too. So each timed
    operation is bracketed by reference walls, and its wall is scaled by
    REFERENCE_S over the mean of the two: a slow spell stretches both
    and cancels out. The reference is fixed work that no change to
    xorcfi can speed up or slow down: small numpy sorts and uniques plus
    a pure-Python dict and set loop, like the program's own mix. Process
    CPU time is no way out: it slows down with the wall. baseline.json
    (``validation``) keeps the spread over ten seeds of both the scaled
    and the plain walls. A disabled gauge (traced runs) reports the
    plain wall.
    """

    def __init__(self):
        self.enabled = False
        self._last: Optional[float] = None
        rng = np.random.default_rng(0)
        self._rows = rng.integers(0, 50, size=(180, 8))
        self._keys = rng.integers(0, 1000, size=1000)

    def reference(self) -> float:
        """Best of three walls of the fixed reference work, which sheds interrupts."""
        walls = []
        for _ in range(3):
            t0 = time.perf_counter()
            for _ in range(8):
                np.unique(self._rows, axis=0, return_inverse=True)
                np.lexsort((self._keys, self._keys % 7))
                np.bincount(self._keys)
            seen, first, acc = set(), {}, 0
            for i in range(10_000):
                k = (i * 2654435761) & 0x3FFF
                if k in seen:
                    acc ^= first[k]
                else:
                    seen.add(k)
                    first[k] = i
                acc = (acc * 31 + k) & 0xFFFFFFFF
            walls.append(time.perf_counter() - t0)
        return min(walls)

    def time(self, op: Callable):
        """(result, wall, wall at reference speed) of op()."""
        before = self._last if self._last is not None else (
            self.reference() if self.enabled else None)
        t0 = time.perf_counter()
        result = op()
        wall = time.perf_counter() - t0
        if not self.enabled:
            return result, wall, wall
        self._last = self.reference()
        return result, wall, wall * 2 * REFERENCE_S / (before + self._last)

    def lapse(self) -> None:
        """Forget the last reference wall once untimed work intervenes."""
        self._last = None


@dataclass
class RoundStats:
    counters: dict
    wall_s: float = 0.0
    gen_s: float = 0.0  # generate + check
    gen_ref_s: float = 0.0  # the same at reference speed
    trials: int = 0
    accepted: int = 0
    hard_s: float = 0.0  # the hardness phase
    hard_ref_s: float = 0.0
    units: int = 0
    op_walls: List[float] = field(default_factory=list)  # one per certification / solve / pin

    def add_units(self, wall: float, ref_wall: float, units: int) -> None:
        self.hard_s += wall
        self.hard_ref_s += ref_wall
        self.units += units


def tree_digest(root: Path) -> Tuple[str, int]:
    """sha256 over every file's relative path and bytes, and the byte total."""
    h = hashlib.sha256()
    total = 0
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        data = path.read_bytes()
        total += len(data)
        h.update(path.relative_to(root).as_posix().encode() + b"\0")
        h.update(len(data).to_bytes(8, "big") + data)
    return h.hexdigest(), total


_ACCEPTED = re.compile(r"^accepted (\d+)/(\d+) trials", re.M)
_VALID = re.compile(r"^(\d+)/(\d+) instances valid$", re.M)
_REJECTED = re.compile(r"^# rejected trial \d+: (\S+)$", re.M)


class Runner:
    """Makes and times the rounds of one workload."""

    def __init__(self, workload: str, seed: int, params: Params, work: Path, ledger: Ledger):
        if workload not in DEFAULTS:
            raise ValueError(f"unknown workload {workload!r}")
        self.workload = workload
        self.seed = seed
        self.p = params
        self.work = work
        self.ledger = ledger
        self.tracer = NULL_TRACER
        self.gauge = Gauge()
        self._inputs: Dict[int, List[int]] = {}

    # -- inputs --------------------------------------------------------------

    def inputs(self, r: int) -> List[int]:
        """Pipeline seeds of round r; for scale, screened so the mix is fixed."""
        if r not in self._inputs:
            if self.workload == "scale":
                self._inputs[r] = self._screen(r)
            else:
                self._inputs[r] = [self.seed if r == 0 else derive_seed(self.seed, r)]
        return self._inputs[r]

    def _screen(self, r: int) -> List[int]:
        """First `instances` seeds whose trial 0 is uniquely satisfiable
        (and so accepted), then first `rejected` seeds whose trial 0 is not.

        Drawing a fixed mix keeps the share of the costly accept path from
        swinging with binomial luck between seeds. A variable in no clause
        is a kernel vector, which settles most candidates without a rank.
        """
        p = self.p
        keep, drop = [], []
        j = 0
        while len(keep) < p.instances or len(drop) < p.rejected:
            s = derive_seed(self.seed, r, j)
            j += 1
            f = sampler.sample_homogeneous(sampler.SampleConfig(n=p.n, ratio=p.ratio, seed=s))
            if len({v for cl in f.clauses for v in cl.vars}) < p.n:
                unique = False
            elif len(keep) < p.instances:
                unique = formula.is_uniquely_satisfiable(f)
            else:
                continue  # a rank only to fill the rejected side is not worth it
            target, limit = (keep, p.instances) if unique else (drop, p.rejected)
            if len(target) < limit:
                target.append(s)
        return keep + drop

    # -- steps ---------------------------------------------------------------

    def _cli(self, argv: List[str]) -> Tuple[int, str]:
        buf = io.StringIO()
        try:
            with contextlib.redirect_stdout(buf):
                rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejects its input this way
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crash of one command is a failed operation, not of the run
            traceback.print_exc()
            rc = -1
        return rc, buf.getvalue()

    def _generate(self, rs: RoundStats, seed: int, count: int, out: Path) -> None:
        p = self.p
        argv = ["generate", "--n", str(p.n), "--ratio", repr(p.ratio), "--gadget", p.gadget,
                "--gauss-threshold", "1", "--seed", str(seed), "--count", str(count),
                "--out", str(out)]
        if p.budget_decisions is not None:
            argv += ["--budget-decisions", str(p.budget_decisions)]
        (rc, text), wall, ref_wall = self.gauge.time(lambda: self._cli(argv))
        rs.gen_s += wall
        rs.gen_ref_s += ref_wall
        rs.trials += count
        match = _ACCEPTED.search(text)
        self.ledger.record(count, 0 if rc == 0 and match else count,
                           f"generate --seed {seed} exited {rc}")
        if match:
            rs.accepted += int(match.group(1))

    def _check(self, rs: RoundStats, manifests: List[Path]) -> None:
        if not manifests:
            return
        (rc, text), wall, ref_wall = self.gauge.time(
            lambda: self._cli(["check", *map(str, manifests)]))
        rs.gen_s += wall
        rs.gen_ref_s += ref_wall
        match = _VALID.search(text)
        invalid = len(manifests) - int(match.group(1)) if match else len(manifests)
        if rc != 0 and invalid == 0:
            invalid = len(manifests)
        detail = "; ".join(ln for ln in text.splitlines() if ln.endswith("FAIL") or ": FAIL" in ln)
        self.ledger.record(len(manifests), invalid, f"check exited {rc}: {detail[:300]}")

    def _read(self, path: Path, parse):
        """Read one written artifact back; a bad file is a failed operation."""
        try:
            with self.tracer.span("perfbench", "read_back"):
                return parse(path.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            self.ledger.record(1, 1, f"cannot read back {path.name}: {exc}")
            return None

    def _gauss_check(self, rs: RoundStats, f, plain: bool) -> Tuple[float, float]:
        """The Gauss-side solve must refute with 0 decisions; returns its walls."""
        query = xorsat.nontrivial_query(f)
        st, wall, ref_wall = self.gauge.time(lambda: xorsat.solve(query, use_gauss=True))
        ok = st.result == xorsat.UNSAT and st.decisions == 0
        self.ledger.record(1, 0 if ok else 1,
                           f"Gauss-side solve gave {st.result} after {st.decisions} decisions")
        rs.counters["dpll"].append([st.decisions, st.propagations, st.conflicts])
        if plain:
            st = xorsat.solve(query)
            self.ledger.record(1, 0 if st.result == xorsat.UNSAT else 1,
                               f"plain solve gave {st.result}")
            rs.counters["dpll"].append([st.decisions, st.propagations, st.conflicts])
        return wall, ref_wall

    # -- rounds --------------------------------------------------------------

    def round(self, r: int) -> RoundStats:
        seeds = self.inputs(r)
        out = self.work / f"r{r}"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        counters = {"round": r, "seeds": seeds, "dpll": [], "ir_nodes": [], "prefix_nodes": [],
                    "consistent_pins": 0}
        rs = RoundStats(counters)
        self.gauge.lapse()
        t0 = time.perf_counter()
        manifests = self._generate_all(rs, seeds, out)
        self._check(rs, manifests)
        with self.tracer.span("perfbench", "digest"):
            self._count_outputs(rs, out, manifests)
        if self.workload == "hard":
            self._certify(rs, manifests[: self.p.instances])
            self._search_prefixes(rs, manifests[:PREFIXES])
        elif self.workload == "scale":
            self._solve(rs, manifests[: self.p.instances])
        else:
            self._pebble(rs, manifests[: self.p.instances])
        rs.wall_s = time.perf_counter() - t0
        shutil.rmtree(out, ignore_errors=True)
        return rs

    def _generate_all(self, rs: RoundStats, seeds: List[int], out: Path) -> List[Path]:
        if self.workload == "scale":
            # One single-trial call per screened seed, accept path first.
            for j, s in enumerate(seeds):
                self._generate(rs, s, 1, out / f"g{j}")
        else:
            self._generate(rs, seeds[0], self.p.trials, out / "g0")
        return sorted(out.glob(f"g*/*/{pipeline.MANIFEST_NAME}"))

    def _count_outputs(self, rs: RoundStats, out: Path, manifests: List[Path]) -> None:
        c = rs.counters
        c["tree_sha256"], c["bytes"] = tree_digest(out)
        c["trials"] = rs.trials
        c["accepted"] = len(manifests)
        rejects: Dict[str, int] = {}
        for index in sorted(out.glob("g*/index.txt")):
            for reason in _REJECTED.findall(index.read_text(encoding="utf-8")):
                rejects[reason] = rejects.get(reason, 0) + 1
        c["rejects"] = dict(sorted(rejects.items()))
        if rs.accepted != len(manifests):
            self.ledger.record(1, 1, f"generate reported {rs.accepted} accepted, "
                                     f"{len(manifests)} manifests on disk")

    def _certify(self, rs: RoundStats, manifests: List[Path]) -> None:
        for m in manifests:
            g = self._read(m.parent / pipeline.DRE_NAME, pipeline.from_dre)
            if g is None:
                continue
            self.gauge.lapse()
            res, wall, _ = self.gauge.time(lambda: bench.run_internal(g, instance=m.parent.name))
            rs.op_walls.append(wall)
            rs.counters["ir_nodes"].append(res.nodes)
            ok = res.status == bench.STATUS_OK and res.group_size == 1
            self.ledger.record(1, 0 if ok else 1,
                               f"certification of {m.parent.name}: {res.status}, "
                               f"|Aut| = {res.group_size}")
            f = self._read(m.parent / pipeline.FORMULA_NAME, formula.import_xor_dimacs)
            if f is not None:
                self._gauss_check(rs, f, plain=True)

    def _search_prefixes(self, rs: RoundStats, manifests: List[Path]) -> None:
        """Time the first PREFIX_NODES IR search nodes of each graph.

        The time per node of whole certifications swings with the size of
        the search tree drawn (shallow nodes cost more), so the hardness
        unit is a node of an equal-sized prefix of many searches.
        """
        for m in manifests:
            g = self._read(m.parent / pipeline.DRE_NAME, pipeline.from_dre)
            if g is None:
                continue
            self.gauge.lapse()
            res, wall, ref_wall = self.gauge.time(
                lambda: bench.run_internal(g, instance=m.parent.name, max_nodes=PREFIX_NODES))
            rs.add_units(wall, ref_wall, res.nodes)
            rs.counters["prefix_nodes"].append(res.nodes)

    def _solve(self, rs: RoundStats, manifests: List[Path]) -> None:
        for m in manifests:
            f = self._read(m.parent / pipeline.FORMULA_NAME, formula.import_xor_dimacs)
            if f is None:
                continue
            self.gauge.lapse()
            for _ in range(SCALE_SOLVES):
                wall, ref_wall = self._gauss_check(rs, f, plain=False)
                rs.add_units(wall, ref_wall, 1)
                rs.op_walls.append(wall)

    def _pebble(self, rs: RoundStats, manifests: List[Path]) -> None:
        for m in manifests:
            f = self._read(m.parent / pipeline.FORMULA_NAME, formula.import_xor_dimacs)
            if f is None:
                continue
            self.gauge.lapse()
            for i in range(1, f.n + 1):
                consistent, wall, ref_wall = self.gauge.time(lambda: self._pin(f, i))
                if consistent is None:
                    continue
                rs.add_units(wall, ref_wall, 1)
                rs.op_walls.append(wall)
                rs.counters["consistent_pins"] += int(consistent)

    def _pin(self, f, i: int) -> Optional[bool]:
        """Whether pinning X_i = 1 leaves f k-consistent; None when over budget."""
        try:
            consistent = canon.local_consistency(formula.pin(f, i, 1), self.p.k,
                                                 max_states=self.p.max_states)
        except canon.BudgetExceededError as exc:
            self.ledger.record(1, 1, f"pin {i}: {exc}")
            return None
        self.ledger.record(1, 0)
        return consistent


# ---------------------------------------------------------------------------
# Whole runs.


def measure_setup(repeats: int, ledger: Ledger) -> List[float]:
    """Walls of fresh interpreters that import xorcfi and warm up."""
    walls = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, str(PROBE)], cwd=ROOT, capture_output=True,
                              text=True, timeout=120)
        walls.append(time.perf_counter() - t0)
        ledger.record(1, 0 if proc.returncode == 0 else 1,
                      f"set-up probe exited {proc.returncode}: {proc.stderr.strip()[-300:]}")
    return walls


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class RunResult:
    workload: str
    seed: int
    trace: bool
    ledger: Ledger
    metrics: Dict[str, Tuple[float, str]]
    info: Dict[str, object]
    counters: List[dict]
    spans: list = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return self.ledger.failed == 0

    def summary(self) -> dict:
        return {
            "correct": self.correct,
            "attempted": self.ledger.attempted,
            "failed": self.ledger.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in self.metrics.items()},
        }


def _compare(ledger: Ledger, got: dict, want: dict, what: str) -> None:
    same = got == want
    ledger.record(1, 0 if same else 1, f"{what}: counters differ from the reference round 0")


def run(workload: str, seed: int, seconds: float, trace: bool,
        params: Optional[Params] = None, work_root: Path = WORK) -> RunResult:
    """One benchmark run: end-to-end metrics untraced, per-layer metrics traced."""
    params = params or DEFAULTS[workload]
    ledger = Ledger()
    work = work_root / f"{workload}-s{seed}-t{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    runner = Runner(workload, seed, params, work, ledger)
    try:
        setup_probe.warm_up()
        reference = runner.round(0)
        if trace:
            return _traced(runner, reference, seconds)
        runner.gauge.enabled = True
        return _untraced(runner, reference, seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _untraced(runner: Runner, reference: RoundStats, seconds: float) -> RunResult:
    # Set-up is probed after the reference round, once the machine runs at
    # its sustained speed rather than at the burst speed of a cold start,
    # and again after the measured rounds: slow spells last seconds, and
    # two batches far apart rarely fall into the same one.
    setup_walls = measure_setup(runner.p.setup_repeats, runner.ledger)
    rounds: List[RoundStats] = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        rs = runner.round(len(rounds))
        if not rounds:
            _compare(runner.ledger, rs.counters, reference.counters, "untraced round 0")
        rounds.append(rs)
    measured_s = time.perf_counter() - start
    setup_walls += measure_setup(runner.p.setup_repeats, runner.ledger)
    gen_s = sum(rs.gen_s for rs in rounds)
    gen_ref_s = sum(rs.gen_ref_s for rs in rounds)
    trials = sum(rs.trials for rs in rounds)
    accepted = sum(rs.accepted for rs in rounds)
    hard_s = sum(rs.hard_s for rs in rounds)
    hard_ref_s = sum(rs.hard_ref_s for rs in rounds)
    units = sum(rs.units for rs in rounds)
    walls = [w for rs in rounds for w in rs.op_walls]
    values = {
        "setup_s": statistics.median(setup_walls),
        "peak_rss_mb": peak_rss_mb(),
        "gen_ms_per_trial": 1e3 * gen_ref_s / trials if trials else 0.0,
        "hardness_ms_per_unit": 1e3 * hard_ref_s / units if units else 0.0,
    }
    metrics = {name: (values[name], unit) for name, unit in END_TO_END.items()}
    ledger = runner.ledger
    info = {
        "rounds": len(rounds),
        "measured_s": measured_s,
        "unit": UNITS[runner.workload],
        "units": units,
        "gen_wall_ms_per_trial": 1e3 * gen_s / trials if trials else 0.0,
        "hardness_wall_ms_per_unit": 1e3 * hard_s / units if units else 0.0,
        "trials": trials,
        "accepted": accepted,
        "accepted_per_s": accepted / gen_s if gen_s else 0.0,
        "ops": len(walls),
        "op_s_total": sum(walls),
        "op_s_p50": statistics.median(walls) if walls else 0.0,
        "ops_per_s": len(walls) / sum(walls) if walls else 0.0,
        "failed_ratio": ledger.failed / ledger.attempted if ledger.attempted else 0.0,
        "round_log": [[round(rs.gen_s, 4), round(rs.gen_ref_s, 4), rs.trials,
                       round(rs.hard_s, 4), round(rs.hard_ref_s, 4), rs.units] for rs in rounds],
    }
    return RunResult(runner.workload, runner.seed, False, ledger, metrics, info,
                     [reference.counters] + [rs.counters for rs in rounds])


def _traced(runner: Runner, reference: RoundStats, seconds: float) -> RunResult:
    """Round 0 again and again, untraced and traced in turn.

    trace.overhead_ratio is the median traced wall over the median
    untraced wall; interleaving keeps drift between samples from
    showing as a cost or a gain of tracing.
    """
    ledger = runner.ledger
    tracer = Tracer()
    untraced: List[RoundStats] = []
    repeats: List[Tuple[RoundStats, list]] = []
    start = time.perf_counter()
    while not repeats or time.perf_counter() - start < seconds:
        rs = runner.round(0)
        untraced.append(rs)
        _compare(ledger, rs.counters, reference.counters, "untraced round 0")
        runner.tracer = tracer
        try:
            with tracer.instrumented():
                rs = runner.round(0)
        finally:
            runner.tracer = NULL_TRACER
        repeats.append((rs, tracer.take()))
        _compare(ledger, rs.counters, reference.counters, "traced round 0")
    traced_s = statistics.median(rs.wall_s for rs, _ in repeats)
    untraced_s = statistics.median(rs.wall_s for rs in untraced)
    per_repeat = []
    for rs, spans in repeats:
        values = layer_metrics(spans, rs.wall_s)
        values["pipeline.bytes_written"] = rs.counters["bytes"]
        values["trace.overhead_ratio"] = traced_s / untraced_s
        per_repeat.append(values)
    metrics = {}
    for m in PER_LAYER:
        values = [v[m.name] for v in per_repeat]
        if m.exact:
            ledger.record(1, 0 if len(set(values)) == 1 else 1,
                          f"{m.name} differs between traced repeats: {sorted(set(values))}")
        metrics[m.name] = (statistics.median_low(values) if m.exact else statistics.median(values),
                           m.unit)
    info = {
        "repeats": len(repeats),
        "measured_s": time.perf_counter() - start,
        "untraced_round_s": untraced_s,
        "traced_round_s": traced_s,
        "failed_ratio": ledger.failed / ledger.attempted if ledger.attempted else 0.0,
    }
    return RunResult(runner.workload, runner.seed, True, ledger, metrics, info,
                     [reference.counters] + [rs.counters for rs in untraced]
                     + [rs.counters for rs, _ in repeats],
                     spans=repeats[0][1])
