"""Span recorder for the traced benchmark run.

Spans are recorded from the benchmark's side only.  For the length of one
traced pass, the public names through which one layer of the package calls
another are replaced by timing wrappers, and the originals are put back
afterwards; nothing inside the package is edited.  Spans stay in memory
until the run ends.
"""

from __future__ import annotations

import inspect
import itertools
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Optional

import unimodal.backward as backward
import unimodal.chainoracle as chainoracle
import unimodal.cli as cli

# Every span name a traced pass can record, in call order.  The roots are
# the benchmark's own calls into the package; the rest are the wrapped names.
SPAN_NAMES = (
    "cli.main",
    "cli.chain_classes",
    "chainoracle.build_grid",
    "chainoracle.recurrent_cells",
    "cli.conley_graph",
    "cli.verify_tower",
    "cli.analytic_nodes",
    "cli.match_nodes",
    "cli.compare_salpha",
    "backward.salpha",
    "backward.build_backward_tree",
    "cli.expansion_time",
    "cli.three_band_window",
    "cli.band_count",
    "cli.render_bifurcation",
    "cli.make_tu",
    "cli.tu_cycle",
)

RUNGS = ("32", "8", "2")


@dataclass
class Span:
    sid: int
    name: str
    op: int                 # the root call this span belongs to
    parent: Optional[int]
    start: float
    end: float = 0.0
    error: Optional[str] = None
    hidden: float = 0.0     # tracer bookkeeping done inside this span
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans = []
        self.taps = []          # (name, op, thread ident, value); any thread appends
        self._ids = itertools.count()
        self._ops = itertools.count()
        self._op = -1
        self._local = threading.local()
        self._patched = []

    def _stack(self):
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        sp = Span(next(self._ids), name, self._op,
                  stack[-1].sid if stack else None, time.perf_counter())
        self.spans.append(sp)
        stack.append(sp)
        try:
            yield sp
        except BaseException as err:
            sp.error = type(err).__name__
            raise
        finally:
            sp.end = time.perf_counter()
            stack.pop()

    @contextmanager
    def op(self, name: str):
        """Root span of one call from the benchmark into the package."""
        self._op = next(self._ops)
        with self.span(name) as sp:
            yield sp

    def _bookkeep(self, fn):
        # Work the tracer does between a child's end and its parent's end
        # is charged to the parent as hidden, so it never counts as self time.
        t = time.perf_counter()
        out = fn()
        stack = self._stack()
        if stack:
            stack[-1].hidden += time.perf_counter() - t
        return out

    def _patch(self, module, attr, wrapper):
        self._patched.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def wrap(self, module, attr: str, name: str, count=None):
        """Replace module.attr by a span-recording wrapper.  count(arguments,
        result) returns attributes for the span, computed after it ends."""
        orig = getattr(module, attr)
        sig = inspect.signature(orig)

        def wrapper(*args, **kwargs):
            with self.span(name) as sp:
                result = orig(*args, **kwargs)
            if count is not None:
                def attrs():
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    return count(bound.arguments, result)
                sp.attrs.update(self._bookkeep(attrs))
            return result

        self._patch(module, attr, wrapper)

    def tap(self, module, attr: str, name: str, count):
        """Count at a boundary without a span: the time stays with the caller."""
        orig = getattr(module, attr)
        sig = inspect.signature(orig)

        def wrapper(*args, **kwargs):
            result = orig(*args, **kwargs)

            def record():
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                self.taps.append((name, self._op, threading.get_ident(),
                                  count(bound.arguments, result)))
            self._bookkeep(record)
            return result

        self._patch(module, attr, wrapper)

    def restore(self):
        while self._patched:
            module, attr, orig = self._patched.pop()
            setattr(module, attr, orig)

    def self_times(self) -> dict:
        """sid -> duration minus child spans and hidden bookkeeping."""
        child = defaultdict(float)
        for sp in self.spans:
            if sp.parent is not None:
                child[sp.parent] += sp.duration
        return {sp.sid: sp.duration - child[sp.sid] - sp.hidden for sp in self.spans}

    def to_json(self) -> dict:
        t0 = self.spans[0].start if self.spans else 0.0
        return {"spans": [{"id": sp.sid, "name": sp.name, "op": sp.op, "parent": sp.parent,
                           "start": sp.start - t0, "end": sp.end - t0,
                           "error": sp.error, "attrs": sp.attrs} for sp in self.spans],
                "taps": [list(t) for t in self.taps]}


def _rung(g) -> str:
    # eps of a grid in multiples of its cell width: 32, 8 or 2 by default
    return f"{g.eps * g.n:.0f}"


def instrument(tracer: Tracer):
    """Wrap every layer boundary a verify, band scan or render crosses."""
    tracer.wrap(cli, "chain_classes", "cli.chain_classes",
                lambda a, cc: {"classes": len(cc),
                               "cells": sum(len(c) for c in cc.classes)})
    tracer.wrap(chainoracle, "build_grid", "chainoracle.build_grid",
                lambda a, g: {"rung": _rung(g),
                              "edges": int((g.jhi - g.jlo + 1).clip(min=0).sum())})
    tracer.wrap(chainoracle, "recurrent_cells", "chainoracle.recurrent_cells",
                lambda a, r: {"rung": _rung(a["g"])})
    tracer.wrap(cli, "conley_graph", "cli.conley_graph")
    tracer.wrap(cli, "verify_tower", "cli.verify_tower")
    tracer.wrap(cli, "analytic_nodes", "cli.analytic_nodes",
                lambda a, nodes: {"nodes": len(nodes)})
    tracer.wrap(cli, "match_nodes", "cli.match_nodes")
    tracer.wrap(cli, "compare_salpha", "cli.compare_salpha")
    tracer.wrap(backward, "salpha", "backward.salpha",
                lambda a, est: {"survivors": est.n_points})
    tracer.wrap(backward, "build_backward_tree", "backward.build_backward_tree",
                lambda a, t: {"points": sum(len(r) for r in t.levels),
                              "truncated": int(t.truncated)})
    tracer.tap(backward, "_returns_mask", "backward.probe_points",
               lambda a, keep: len(keep))
    tracer.wrap(cli, "expansion_time", "cli.expansion_time")
    tracer.wrap(cli, "band_count", "cli.band_count")
    tracer.wrap(cli, "make_tu", "cli.make_tu")
    tracer.wrap(cli, "tu_cycle", "cli.tu_cycle")
    tracer.tap(cli, "_orbit_histogram", "cli.histogram_steps",
               lambda a, counts: len(a["scales"]) * (a["transient"] + a["samples"]))


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics of one traced pass: name -> (value, unit)."""
    by_name = defaultdict(list)
    for sp in tracer.spans:
        by_name[sp.name].append(sp)
    selfs = tracer.self_times()

    def total(name, rung=None):
        return sum((sp.duration for sp in by_name[name]
                    if rung is None or sp.attrs.get("rung") == rung), 0.0)

    def self_total(name):
        return sum((selfs[sp.sid] for sp in by_name[name]), 0.0)

    def attr(name, key, rung=None):
        return sum(sp.attrs.get(key, 0) for sp in by_name[name]
                   if rung is None or sp.attrs.get("rung") == rung)

    def tapped(name):
        return [t for t in tracer.taps if t[0] == name]

    render_ops = {sp.op for sp in by_name["cli.render_bifurcation"]}
    probed = sum(t[3] for t in tapped("backward.probe_points"))
    survivors = attr("backward.salpha", "survivors")

    out = {}
    for r in RUNGS:
        out[f"chainoracle.rung_{r}h.recurrent_s"] = (total("chainoracle.recurrent_cells", r), "s")
        out[f"chainoracle.rung_{r}h.edges"] = (attr("chainoracle.build_grid", "edges", r), "count")
    out.update({
        "chainoracle.build_grid_s": (total("chainoracle.build_grid"), "s"),
        "chainoracle.grouping_s": (self_total("cli.chain_classes"), "s"),
        "chainoracle.recurrent_cells": (attr("cli.chain_classes", "cells"), "count"),
        "chainoracle.classes": (attr("cli.chain_classes", "classes"), "count"),
        "chainoracle.conley_s": (total("cli.conley_graph"), "s"),
        "chainoracle.match_s": (total("cli.match_nodes"), "s"),
        "chainoracle.expansion_s": (total("cli.expansion_time"), "s"),
        "structure.analytic_nodes_s": (total("cli.analytic_nodes"), "s"),
        "structure.nodes": (attr("cli.analytic_nodes", "nodes"), "count"),
        "backward.tree_s": (total("backward.build_backward_tree"), "s"),
        "backward.tree_points": (attr("backward.build_backward_tree", "points"), "count"),
        "backward.truncated_trees": (attr("backward.build_backward_tree", "truncated"), "count"),
        "backward.probe_s": (self_total("backward.salpha"), "s"),
        "backward.probe_points": (probed, "count"),
        "backward.survivor_ratio": (survivors / probed if probed else 0.0, "ratio"),
        "backward.compare_salpha_s": (total("cli.compare_salpha"), "s"),
        "cli.three_band_window_s": (total("cli.three_band_window"), "s"),
        "cli.band_count_s": (total("cli.band_count"), "s"),
        "cli.band_count_calls": (len(by_name["cli.band_count"]), "count"),
        "cli.render_s": (total("cli.render_bifurcation"), "s"),
        "cli.render_threads": (len({t[2] for t in tapped("cli.histogram_steps")
                                    if t[1] in render_ops}), "count"),
        "cli.histogram_steps": (sum(t[3] for t in tapped("cli.histogram_steps")), "count"),
        "maps.make_tu_s": (total("cli.make_tu"), "s"),
        "structure.tu_cycle_s": (total("cli.tu_cycle"), "s"),
        "structure.tu_cycle_misses": (sum(sp.error is not None for sp in by_name["cli.tu_cycle"]),
                                      "count"),
    })
    for name in SPAN_NAMES:
        out[f"self.{name}_s"] = (self_total(name), "s")
    out["trace.bookkeeping_s"] = (sum((sp.hidden for sp in tracer.spans), 0.0), "s")
    return out
