"""Per-layer spans recorded from outside cascadelab.

The benchmark wraps the public function of each layer that the workloads
reach and records one span per call: name, start, end, parent and a few
counts read from the call's return value.  Spans stay in memory and are
written out with the run record.

cascadelab binds many layer functions with ``from .x import f``, so the
same function object sits in several module namespaces (for example
``infection_set`` in ``cascade``, ``experiment``, ``cli`` and the package
itself).  :func:`installed` replaces the object under every name that
holds it in every loaded cascadelab module; a name left unwrapped would
lose its spans without any error.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    counts: dict = field(default_factory=dict)


class Tracer:
    """Collects nested spans of one thread, in call order."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def call(self, name, fn, args, kwargs, count):
        span = Span(name, time.perf_counter(),
                    parent=self._stack[-1] if self._stack else -1)
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
        if count is not None:
            span.counts.update(count(args, kwargs, result))
        return result


def _experiment_counts(args, kwargs, result):
    out_dir = kwargs.get("out_dir", args[1] if len(args) > 1 else None)
    written = [p for p in Path(out_dir).rglob("*") if p.is_file()] \
        if out_dir else []
    return {"cells": len(result.computed) + len(result.failed),
            "cells_failed": len(result.failed),
            "bytes_written": sum(p.stat().st_size for p in written)}


# (module, attribute, span name, counts read from (args, kwargs, result)).
# A span name may be a function of the call's arguments.
LAYER_FUNCTIONS = (
    ("generators", "generate", "generators.generate",
     lambda a, k, r: {"calls": 1, "edges": r.m}),
    ("graph", "serialize", "graph.serialize",
     lambda a, k, r: {"bytes": len(r)}),
    ("graph", "deserialize", "graph.deserialize",
     lambda a, k, r: {"bytes": len(a[0])}),
    ("graph", "largest_connected_component", "graph.largest_connected_component",
     lambda a, k, r: {"calls": 1}),
    ("cascade", "infection_set", "cascade.infection_set",
     lambda a, k, r: {"calls": 1, "rounds": r.rounds,
                      "infected": int(r.infected.shape[0])}),
    ("cascade", "random_thresholds", "cascade.random_thresholds", None),
    ("cascade", "top_degree_nodes", "cascade.top_degree_nodes", None),
    ("cascade", "injury_set", "cascade.injury_set",
     lambda a, k, r: {"calls": 1}),
    ("cascade", "security_threshold", "cascade.security_threshold",
     lambda a, k, r: {"calls": 1}),
    ("cascade", "count_vulnerable", "cascade.count_vulnerable",
     lambda a, k, r: {"calls": 1}),
    ("structure", "communities", "structure.communities", None),
    ("structure", "community_conductances", "structure.community_conductances",
     None),
    ("structure", "degree_priority_summary",
     "structure.degree_priority_summary", None),
    ("structure", "infection_priority_tree", "structure.infection_priority_tree",
     None),
    ("structure", "distance_stats", "structure.distance_stats", None),
    ("structure", "community_diameters", "structure.community_diameters", None),
    ("structure", "navigate", "structure.navigate",
     lambda a, k, r: {"calls": 1, "visited": r.visited}),
    ("experiment", "run_experiment", "experiment.run_experiment",
     _experiment_counts),
    ("experiment", "_compute_cell", "experiment.cell", None),
    ("cli", "main", "cli.main", None),
    ("cli", "_cmd_generate", "cli.generate", None),
    ("cli", "_cmd_cascade", "cli.cascade", None),
    ("cli", "_cmd_injure", "cli.injure", None),
    ("cli", "_cmd_analyze", lambda args: f"cli.analyze.{args.report}", None),
)


def _wrap(tracer, name, fn, count):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span_name = name if isinstance(name, str) else name(*args, **kwargs)
        return tracer.call(span_name, fn, args, kwargs, count)
    return wrapper


def _wrap_csr(tracer, method):
    """Spans only the cold build of the cached CSR matrix."""

    @functools.wraps(method)
    def csr(self):
        if "csr" in self._derived:
            return method(self)
        return tracer.call("graph.csr", method, (self,), {},
                           lambda a, k, r: {"calls": 1})
    return csr


def cascadelab_modules():
    return [mod for name, mod in list(sys.modules.items())
            if name == "cascadelab" or name.startswith("cascadelab.")]


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Wrap every layer function under every name that holds it."""
    modules = cascadelab_modules()
    graph_mod = importlib.import_module("cascadelab.graph")
    restore = []
    try:
        for mod_name, attr, span_name, count in LAYER_FUNCTIONS:
            original = getattr(importlib.import_module(f"cascadelab.{mod_name}"),
                               attr)
            wrapper = _wrap(tracer, span_name, original, count)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        restore.append((mod, key, original))
                        setattr(mod, key, wrapper)
        cls = graph_mod.LabeledGraph
        restore.append((cls, "csr", cls.csr))
        cls.csr = _wrap_csr(tracer, cls.csr)
        yield tracer
    finally:
        for owner, key, original in reversed(restore):
            setattr(owner, key, original)


# Spans of these layers report one self time for the whole layer, and
# their named spans report inclusive times (a command, a whole experiment).
_LAYER_SELF = {"experiment": "experiment.self.s", "cli": "cli.self.s"}
_INCLUSIVE = ("experiment.run_experiment", "cli.generate", "cli.cascade",
              "cli.injure", "cli.analyze.communities",
              "cli.analyze.degree-priority")
_COUNT_NAMES = {
    "graph.serialize.bytes": "graph.bytes_written",
    "graph.deserialize.bytes": "graph.bytes_read",
    "experiment.run_experiment.cells": "experiment.cells",
    "experiment.run_experiment.cells_failed": "experiment.cells_failed",
    "experiment.run_experiment.bytes_written": "experiment.bytes_written",
}


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.end - s.start
    return own


def layer_metrics(spans: list[Span], wall: float) -> dict[str, float]:
    """Per-layer busy times and counts of one traced repetition.

    Every span's self time lands in exactly one ``*.s`` self-time metric,
    so those metrics plus ``bench.uncovered.s`` add up to ``wall``.
    """
    out: dict[str, float] = {}

    def add(key, value):
        out[key] = out.get(key, 0) + value

    own = self_times(spans)
    for s, self_s in zip(spans, own):
        layer = s.name.split(".", 1)[0]
        add(_LAYER_SELF.get(layer, f"{s.name}.s"), self_s)
        if s.name in _INCLUSIVE:
            add(f"{s.name}.s", s.end - s.start)
        for key, value in s.counts.items():
            name = f"{s.name}.{key}"
            add(_COUNT_NAMES.get(name, name), value)
    # the threshold scan's own loop is cheap; its cost is the cascades it runs
    nested = [s for s in spans if s.name == "cascade.infection_set"
              and s.parent >= 0
              and spans[s.parent].name == "cascade.security_threshold"]
    calls = out.get("cascade.security_threshold.calls", 0)
    out["cascade.security_threshold.cascades_per_call"] = \
        len(nested) / calls if calls else 0.0
    out["cascade.security_threshold.cascades_s"] = sum(
        s.end - s.start for s in nested)
    gen_s = out.get("generators.generate.s", 0.0)
    out["generators.edges_per_s"] = \
        out.pop("generators.generate.edges", 0) / gen_s if gen_s else 0.0
    out["bench.uncovered.s"] = wall - sum(own)
    out["bench.traced_wall_s"] = wall
    return out
