"""In-memory span tracer for the benchmark.

Spans are recorded from outside the program: every public function of
an ``xorcfi`` module is rebound, in each ``xorcfi`` module namespace
that holds it, to a wrapper that opens a span on entry and closes it on
exit. Callers look functions up in their own module globals, so this
catches calls across modules (``pipeline.rank``, ``formula.rank``,
``xorsat.reduced_system``) and within one (``pipeline.run_trial``).
Nothing under ``src/`` is edited, and ``restore`` undoes every rebinding.

A span's layer is the short name of the module that defines the
function. Self time is the span's duration minus the durations of its
direct children; the self times of one span tree add up to its root's
duration.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
import types
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

# Spans whose name marks the context of everything below them; the
# per-layer metrics tell, say, a phi-asymmetry IR search (under
# run_trial) from a certification (under run_internal) by context.
CONTEXT_NAMES = frozenset({
    "pipeline.run_trial",
    "pipeline.write_instance",
    "pipeline.validate",
    "bench.run_internal",
    "canon.local_consistency",
})


@dataclass
class Span:
    sid: int
    parent: int  # -1 for a root span
    layer: str
    name: str
    ctx: str  # nearest ancestor-or-self name in CONTEXT_NAMES, or ""
    outer: bool  # no ancestor of the same layer
    start: float
    end: float
    self_s: float
    attrs: Optional[dict]

    @property
    def dur(self) -> float:
        return self.end - self.start


class _Open:
    __slots__ = ("sid", "parent", "layer", "name", "ctx", "outer", "start", "child")

    def __init__(self, sid, parent, layer, name, ctx, outer, start):
        self.sid, self.parent, self.layer, self.name = sid, parent, layer, name
        self.ctx, self.outer, self.start, self.child = ctx, outer, start, 0.0


def _attrs_sample(args, kwargs, result):
    return {"clauses": result.m}


def _attrs_ir(args, kwargs, result):
    return {"nodes": result.search_nodes, "status": result.status}


def _attrs_solve(args, kwargs, result):
    gauss = kwargs.get("use_gauss", args[1] if len(args) > 1 else False)
    return {"gauss": bool(gauss), "result": result.result, "decisions": result.decisions,
            "propagations": result.propagations, "conflicts": result.conflicts,
            "elapsed": result.elapsed}


def _attrs_trial(args, kwargs, result):
    return {"accepted": result.accepted, "reason": result.reject_reason}


def _attrs_consistency(args, kwargs, result):
    return {"consistent": bool(result)}


# What each wrapper keeps from a call's result, keyed by "<layer>.<function>".
ATTRS: Dict[str, Callable] = {
    "sampler.sample_homogeneous": _attrs_sample,
    "canon.ir_automorphisms": _attrs_ir,
    "xorsat.solve": _attrs_solve,
    "pipeline.run_trial": _attrs_trial,
    "canon.local_consistency": _attrs_consistency,
}


class Tracer:
    """Collects spans while enabled; a disabled tracer records nothing."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.spans: List[Span] = []
        self._stack: List[_Open] = []
        self._layer_depth: Dict[str, int] = {}
        self._next = 0
        self._saved: List[Tuple[types.ModuleType, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _open(self, layer: str, name: str) -> None:
        parent = self._stack[-1] if self._stack else None
        ctx = name if name in CONTEXT_NAMES else (parent.ctx if parent else "")
        depth = self._layer_depth.get(layer, 0)
        self._layer_depth[layer] = depth + 1
        self._stack.append(_Open(self._next, parent.sid if parent else -1, layer, name,
                                 ctx, depth == 0, time.perf_counter()))
        self._next += 1

    def _close(self, attrs: Optional[dict]) -> None:
        end = time.perf_counter()
        rec = self._stack.pop()
        self._layer_depth[rec.layer] -= 1
        dur = end - rec.start
        if self._stack:
            self._stack[-1].child += dur
        self.spans.append(Span(rec.sid, rec.parent, rec.layer, rec.name, rec.ctx, rec.outer,
                               rec.start, end, dur - rec.child, attrs))

    @contextlib.contextmanager
    def span(self, layer: str, name: str):
        """A span around a block of the benchmark's own code."""
        if not self.enabled:
            yield
            return
        self._open(layer, f"{layer}.{name}")
        try:
            yield
        finally:
            self._close(None)

    def take(self) -> List[Span]:
        """Hand over the closed spans and start a fresh list."""
        spans, self.spans = self.spans, []
        return spans

    # -- instrumentation -----------------------------------------------------

    def _wrap(self, fn: types.FunctionType, layer: str) -> Callable:
        name = f"{layer}.{fn.__name__}"
        attrs_of = ATTRS.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer._open(layer, name)
            attrs = None
            try:
                result = fn(*args, **kwargs)
                if attrs_of is not None:
                    attrs = attrs_of(args, kwargs, result)
                return result
            except BaseException as exc:
                attrs = {"raised": type(exc).__name__}
                raise
            finally:
                tracer._close(attrs)

        return wrapper

    def instrument(self) -> None:
        """Rebind every public xorcfi function in every xorcfi namespace."""
        if self._saved:
            raise RuntimeError("already instrumented")
        wrappers: Dict[int, Callable] = {}
        prefix = "xorcfi."
        for modname in sorted(m for m in sys.modules if m.startswith(prefix)):
            module = sys.modules[modname]
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or not isinstance(value, types.FunctionType):
                    continue
                if not value.__module__.startswith(prefix) or value.__name__.startswith("_"):
                    continue
                if id(value) not in wrappers:
                    wrappers[id(value)] = self._wrap(value, value.__module__[len(prefix):])
                self._saved.append((module, attr, value))
                setattr(module, attr, wrappers[id(value)])

    def restore(self) -> None:
        for module, attr, value in reversed(self._saved):
            setattr(module, attr, value)
        self._saved.clear()

    @contextlib.contextmanager
    def instrumented(self):
        self.instrument()
        try:
            yield self
        finally:
            self.restore()


NULL_TRACER = Tracer(enabled=False)
