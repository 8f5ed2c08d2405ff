"""Per-layer metrics derived from the spans of one traced round.

Layers are the ``xorcfi`` modules. ``busy_s`` is the time inside a
layer's outermost spans (children in other layers included); ``self_s``
excludes every child span. A metric marked exact is a count, or a ratio
of counts, that must repeat exactly whenever the same round runs again.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, NamedTuple

from spans import Span

LAYERS = ("sampler", "gf2", "formula", "xorsat", "cfi", "canon", "pipeline", "cli", "bench")
HARNESS = "perfbench"
REJECT_REASONS = ("phi_symmetric", "not_uniquely_satisfiable", "low_gauss_ratio",
                  "wl1_separates", "BUDGET")
GF2_ELIMINATIONS = frozenset({"gf2.rank", "gf2.reduced_system", "gf2.solve", "gf2.kernel_basis"})
CFI_BUILDS = frozenset({"cfi.build_core", "cfi.build_full"})


class Metric(NamedTuple):
    name: str
    unit: str
    better: str
    exact: bool


def _m(name, unit, better="lower", exact=False):
    return Metric(name, unit, better, exact)


PER_LAYER: List[Metric] = [
    _m("sampler.calls", "count", exact=True),
    _m("sampler.busy_s", "s"),
    _m("sampler.us_per_clause", "us"),
    _m("gf2.eliminations", "count", exact=True),
    _m("gf2.eliminations_per_trial", "count", exact=True),
    _m("gf2.busy_s", "s"),
    _m("gf2.ms_per_elimination", "ms"),
    _m("formula.self_s", "s"),
    _m("xorsat.plain.decisions", "count", exact=True),
    _m("xorsat.plain.propagations", "count", exact=True),
    _m("xorsat.plain.conflicts", "count", exact=True),
    _m("xorsat.plain.busy_s", "s"),
    _m("xorsat.plain.us_per_decision", "us"),
    _m("xorsat.gauss.busy_s", "s"),
    _m("xorsat.gauss.elapsed_share", "ratio", "higher"),
    _m("xorsat.budget_exhausted", "count", exact=True),
    _m("cfi.builds", "count", exact=True),
    _m("cfi.builds_per_accepted", "count", exact=True),
    _m("cfi.busy_s", "s"),
    _m("cfi.incidence.busy_s", "s"),
    _m("canon.phi.calls", "count", exact=True),
    _m("canon.phi.nodes", "count", exact=True),
    _m("canon.phi.busy_s", "s"),
    _m("canon.phi.us_per_node", "us"),
    _m("canon.certify.nodes", "count", exact=True),
    _m("canon.certify.busy_s", "s"),
    _m("canon.certify.us_per_node", "us"),
    _m("canon.consistency.calls", "count", exact=True),
    _m("canon.consistency.consistent", "count", "higher", exact=True),
    _m("canon.consistency.busy_s", "s"),
    _m("canon.consistency.s_per_pin", "s"),
    _m("pipeline.trials", "count", "higher", exact=True),
    _m("pipeline.accepted", "count", "higher", exact=True),
    _m("pipeline.accept_ratio", "ratio", "higher", exact=True),
    *[_m(f"pipeline.reject.{r}", "count", exact=True) for r in REJECT_REASONS],
    _m("pipeline.self_s", "s"),
    _m("pipeline.write_s", "s"),
    _m("pipeline.validate_s", "s"),
    _m("pipeline.bytes_written", "bytes", exact=True),
    *[_m(f"{layer}.self_s", "s") for layer in LAYERS + (HARNESS,)
      if layer not in ("formula", "pipeline")],
    _m("trace.coverage", "ratio", "higher"),
    _m("trace.overhead_ratio", "ratio"),
    _m("trace.spans", "count", exact=True),
]

def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: List[Span], wall_s: float) -> Dict[str, float]:
    """Every span-derived metric of PER_LAYER for one round of wall_s seconds.

    pipeline.bytes_written and trace.overhead_ratio are measured by the
    harness, not from spans, and are left for the caller to fill in.
    """
    self_s: Dict[str, float] = defaultdict(float)
    busy_s: Dict[str, float] = defaultdict(float)
    by_name: Dict[str, List[Span]] = defaultdict(list)
    for s in spans:
        self_s[s.layer] += s.self_s
        if s.outer:
            busy_s[s.layer] += s.dur
        by_name[s.name].append(s)

    def dur(group: List[Span]) -> float:
        return sum(s.dur for s in group)

    def attr_sum(group: List[Span], key: str) -> int:
        return sum(s.attrs[key] for s in group if s.attrs and key in s.attrs)

    out: Dict[str, float] = {f"{layer}.self_s": self_s[layer] for layer in LAYERS + (HARNESS,)}

    samples = by_name["sampler.sample_homogeneous"]
    out["sampler.calls"] = len(samples)
    out["sampler.busy_s"] = busy_s["sampler"]
    out["sampler.us_per_clause"] = _ratio(dur(samples) * 1e6, attr_sum(samples, "clauses"))

    trials = by_name["pipeline.run_trial"]
    elim = [s for s in spans if s.name in GF2_ELIMINATIONS and s.outer]
    out["gf2.eliminations"] = len(elim)
    out["gf2.eliminations_per_trial"] = _ratio(
        sum(1 for s in elim if s.ctx == "pipeline.run_trial"), len(trials))
    out["gf2.busy_s"] = busy_s["gf2"]
    out["gf2.ms_per_elimination"] = _ratio(dur(elim) * 1e3, len(elim))

    solves = [s for s in by_name["xorsat.solve"] if s.attrs and "gauss" in s.attrs]
    plain = [s for s in solves if not s.attrs["gauss"]]
    gauss = [s for s in solves if s.attrs["gauss"]]
    decisions = attr_sum(plain, "decisions")
    out["xorsat.plain.decisions"] = decisions
    out["xorsat.plain.propagations"] = attr_sum(plain, "propagations")
    out["xorsat.plain.conflicts"] = attr_sum(plain, "conflicts")
    out["xorsat.plain.busy_s"] = dur(plain)
    out["xorsat.plain.us_per_decision"] = _ratio(dur(plain) * 1e6, decisions)
    out["xorsat.gauss.busy_s"] = dur(gauss)
    # SolveStats.elapsed against the wall of the same call, seen from outside.
    out["xorsat.gauss.elapsed_share"] = _ratio(sum(s.attrs["elapsed"] for s in gauss), dur(gauss))
    out["xorsat.budget_exhausted"] = sum(1 for s in solves if s.attrs["result"] == "BUDGET_EXHAUSTED")

    accepted = sum(1 for s in trials if s.attrs and s.attrs.get("accepted"))
    builds = [s for s in spans if s.name in CFI_BUILDS and s.outer]
    out["cfi.builds"] = len(builds)
    out["cfi.builds_per_accepted"] = _ratio(len(builds), accepted)
    out["cfi.busy_s"] = busy_s["cfi"]
    out["cfi.incidence.busy_s"] = dur(by_name["cfi.incidence_graph"])

    searches = by_name["canon.ir_automorphisms"]
    for kind, ctx in (("phi", "pipeline.run_trial"), ("certify", "bench.run_internal")):
        group = [s for s in searches if s.ctx == ctx]
        nodes = attr_sum(group, "nodes")
        if kind == "phi":
            out["canon.phi.calls"] = len(group)
        out[f"canon.{kind}.nodes"] = nodes
        out[f"canon.{kind}.busy_s"] = dur(group)
        out[f"canon.{kind}.us_per_node"] = _ratio(dur(group) * 1e6, nodes)
    pins = by_name["canon.local_consistency"]
    out["canon.consistency.calls"] = len(pins)
    out["canon.consistency.consistent"] = sum(1 for s in pins if s.attrs and s.attrs.get("consistent"))
    out["canon.consistency.busy_s"] = dur(pins)
    out["canon.consistency.s_per_pin"] = _ratio(dur(pins), len(pins))

    out["pipeline.trials"] = len(trials)
    out["pipeline.accepted"] = accepted
    out["pipeline.accept_ratio"] = _ratio(accepted, len(trials))
    for reason in REJECT_REASONS:
        out[f"pipeline.reject.{reason}"] = sum(
            1 for s in trials if s.attrs and s.attrs.get("reason") == reason)
    out["pipeline.write_s"] = dur(by_name["pipeline.write_instance"])
    out["pipeline.validate_s"] = dur(by_name["pipeline.validate"])

    out["trace.coverage"] = _ratio(sum(self_s[layer] for layer in LAYERS), wall_s)
    out["trace.spans"] = len(spans)
    return out
