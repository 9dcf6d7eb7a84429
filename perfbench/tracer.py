"""Timing spans around horolab's public functions, installed from outside.

``Tracer.install()`` replaces each target with a wrapper in every loaded
``horolab`` module namespace that holds it (``from ... import`` copies
included) and on its class for methods.  A span records its name, start,
end, parent span and operation id, plus counts taken from the call's
arguments and return value.  Spans stay in memory until ``write``.

Counting runs after the span's end is stamped and is charged to no layer:
it is excluded from the parent's self time and shows up only in the
traced pass's unwrapped remainder and in ``trace.overhead_s``.  A call
whose arguments or result no longer fit its counter is counted as
``<name>.uncounted``; a target that is gone is listed as absent.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from dataclasses import dataclass, field
from typing import Callable


def _family(ret) -> dict:
    family = ret[0]
    shapes = set()
    for member in family:
        local = {v: i for i, v in enumerate(member.vertices)}
        shapes.add((len(local), tuple(sorted((local[u], local[v]) for u, v in member.edges))))
    return {"members": len(family), "distinct_shapes": len(shapes)}


def _dijkstra_sources(args, kwargs) -> int:
    indices = kwargs.get("indices", args[2] if len(args) > 2 else None)
    if indices is None:
        return int(args[0].shape[0])
    try:
        return len(indices)
    except TypeError:  # a single source index
        return 1


# target name -> (module, attribute path, counter function(args, kwargs, ret) -> dict)
TARGETS: dict[str, tuple[str, str, Callable[..., dict]]] = {
    "graph.Graph": ("horolab.graph", "Graph.__init__", lambda a, k, r: {}),
    "graph.bfs_distances": ("horolab.graph", "bfs_distances", lambda a, k, r: {}),
    "graph.dijkstra": ("horolab.graph", "dijkstra",
                       lambda a, k, r: {"sources": _dijkstra_sources(a, k)}),
    "graph.enumerate_geodesics": ("horolab.graph", "enumerate_geodesics",
                                  lambda a, k, r: {"paths": len(r[0]), "truncated": int(bool(r[1]))}),
    "groups.cayley_ball": ("horolab.groups", "cayley_ball",
                           lambda a, k, r: {"vertices": r.graph.num_vertices}),
    "groups.coset_family": ("horolab.groups", "coset_family", lambda a, k, r: {"members": len(r)}),
    "horoball.build_augmented": ("horolab.horoball", "build_augmented",
                                 lambda a, k, r: {"carrier_vertices": r.carrier.num_vertices,
                                                  "carrier_edges": int(r.carrier.num_edges)}),
    "horoball.build_restricted_horoball": ("horolab.horoball", "build_restricted_horoball",
                                           lambda a, k, r: {"carrier_vertices": r.carrier.num_vertices}),
    "experiments.parabolic_family": ("horolab.experiments", "parabolic_family",
                                     lambda a, k, r: _family(r)),
    "experiments.family_distance_matrices": ("horolab.experiments", "family_distance_matrices",
                                             lambda a, k, r: {}),
    "experiments._carrier_rows": ("horolab.experiments", "_carrier_rows",
                                  lambda a, k, r: {"rows": int(r.shape[0]), "cells": int(r.size)}),
    "experiments.scan_parabolic": ("horolab.experiments", "scan_parabolic",
                                   lambda a, k, r: {"pairs": r.pairs_checked}),
    "experiments.convexify_experiment": ("horolab.experiments", "convexify_experiment",
                                         lambda a, k, r: {}),
    "experiments.milnor_svarc_experiment": ("horolab.experiments", "milnor_svarc_experiment",
                                            lambda a, k, r: {}),
    "experiments.run_experiment": ("horolab.experiments", "run_experiment", lambda a, k, r: {}),
    "analysis.four_point_delta": ("horolab.analysis", "four_point_delta",
                                  lambda a, k, r: {"quadruples": r.quadruples_checked}),
    "analysis.convexity_defect": ("horolab.analysis", "convexity_defect",
                                  lambda a, k, r: {"pairs": r.pairs_checked}),
    "analysis.displacement_generating_set": ("horolab.analysis", "displacement_generating_set",
                                             lambda a, k, r: {}),
    "analysis.qi_distortion": ("horolab.analysis", "qi_distortion",
                               lambda a, k, r: {"pairs": r.pairs_checked}),
    "shortcut.bilipschitz_cycle_search": ("horolab.shortcut", "bilipschitz_cycle_search",
                                          lambda a, k, r: {"nodes": r.nodes_expanded,
                                                           "exhaustive": int(bool(r.exhaustive))}),
    "io.canonical_json": ("horolab.io", "canonical_json",
                          lambda a, k, r: {"bytes": len(r.encode("utf-8"))}),
    "io.graph_to_json": ("horolab.io", "graph_to_json", lambda a, k, r: {}),
    "io.read_graph": ("horolab.io", "read_graph", lambda a, k, r: {}),
    "cli.main": ("horolab.cli", "main", lambda a, k, r: {}),
}


@dataclass
class Span:
    name: str
    op: int
    parent: int  # index into Tracer.spans, -1 for a root span
    start: float = 0.0
    end: float = 0.0
    excluded: float = 0.0  # time of wrapped children and their counting
    counts: dict = field(default_factory=dict)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self.op = 0
        self._stack: list[int] = []  # open spans; ops run on one thread

    def _wrap(self, name: str, fn, count: Callable[..., dict]):
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1] if stack else -1
            span = Span(name, tracer.op, parent)
            index = len(tracer.spans)
            tracer.spans.append(span)
            stack.append(index)
            span.start = time.perf_counter()
            try:
                ret = fn(*args, **kwargs)
                span.end = time.perf_counter()
                try:
                    span.counts = count(args, kwargs, ret)
                except (AttributeError, TypeError, IndexError, KeyError):
                    span.counts = {"uncounted": 1}  # the function's interface changed
                return ret
            finally:
                span.end = span.end or time.perf_counter()
                stack.pop()
                if parent >= 0:
                    tracer.spans[parent].excluded += time.perf_counter() - span.start

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every target; a target horolab no longer has is recorded in
        ``absent`` instead of failing."""
        loaded = [m for n, m in sorted(sys.modules.items()) if n == "horolab" or n.startswith("horolab.")]
        for name, (module_name, attr, count) in TARGETS.items():
            try:
                owner = importlib.import_module(module_name)
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, leaf)
            except (ImportError, AttributeError):
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original, count)
            if path:  # a method: patch the class it lives on
                setattr(owner, leaf, wrapper)
                continue
            for module in loaded:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)

    def rows(self) -> list[list]:
        return [[s.name, s.op, s.parent, s.start, s.end, s.excluded, s.counts] for s in self.spans]

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "op", "parent", "start", "end", "excluded", "counts"],
                       "absent": self.absent, "spans": self.rows()}, fh)


def summarize(spans: list[list], absent: list[str]) -> dict[str, float]:
    """Per-target totals over one traced pass: ``<name>.calls``,
    ``<name>.self_s`` and the sum of every count a span recorded."""
    out: dict[str, float] = {}
    for name, _op, _parent, start, end, excluded, counts in spans:
        out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + 1
        out[f"{name}.self_s"] = out.get(f"{name}.self_s", 0.0) + (end - start - excluded)
        for key, value in counts.items():
            out[f"{name}.{key}"] = out.get(f"{name}.{key}", 0) + value
    for name in absent:
        out[f"{name}.absent"] = 1
    return out


def stage_table(totals: dict[str, float], wall: float) -> list[str]:
    """Readable lines, one per wrapped function that ran, by self time."""
    stages = sorted({k[:-len(".self_s")] for k in totals if k.endswith(".self_s")},
                    key=lambda n: -totals[f"{n}.self_s"])
    lines = [f"  {'stage':<42}{'self s':>9}{'share':>8}{'calls':>9}  counts"]
    for stage in stages:
        self_s = totals[f"{stage}.self_s"]
        if not totals.get(f"{stage}.calls"):
            continue
        counts = " ".join(f"{k[len(stage) + 1:]}={v:g}" for k, v in totals.items()
                          if k.startswith(stage + ".") and not k.endswith((".self_s", ".calls")))
        lines.append(f"  {stage:<42}{self_s:9.3f}{self_s / wall:8.1%}{totals[f'{stage}.calls']:9g}  {counts}")
    return lines
