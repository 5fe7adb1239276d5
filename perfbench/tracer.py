"""Span recorder that wraps the library's layer functions from outside.

Every wrapped function gets a span (name, start, end, parent) per call, kept
in memory, plus counters derived only from the call's arguments and return
value.  Patching rebinds every module attribute of the ``labyrinths``
package that refers to the wrapped function, so ``from .x import f``
copies in other modules are traced too.  A function that no longer exists
is reported as missing instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

import numpy as np


def _roadmap(a, rm):
    return {"verifier.roadmap_nodes": len(rm.nodes),
            "verifier.roadmap_rim_nodes": rm.n_rim,
            "verifier.roadmap_edges": rm.graph.nnz // 2}


def _collide(a, mask):
    return {"verifier.collide_segments": len(a["A"]),
            "verifier.collide_hits": int(np.count_nonzero(mask))}


def _escape(a, path):
    return {"verifier.shortest_escape_calls": 1,
            "verifier.paths_found": int(path is not None)}


def _shortcut(a, path):
    return {"verifier.shortcut_gain": a["path"].length - path.length}


def _verify_path(a, ok):
    return {"verifier.verify_path_pairs":
            (len(a["path"].polyline) - 1) * len(a["lab"].components)}


def _audit(a, report):
    return {"verifier.audit_checks": len(report["checks"]),
            "verifier.audit_checks_failed":
            sum(not c["passed"] for c in report["checks"])}


def _lp(a, plane):
    rows = len(np.atleast_2d(a["first"])) + len(np.atleast_2d(a["second"])) + 1
    return {"geometry.lp_calls": 1, "geometry.lp_rows": rows}


def _greedy(a, net):
    return {"nets.greedy_net_calls": 1, "nets.net_points": len(net)}


def _fps(a, idx):
    return {"sampling.fps_evals": len(a["points"]) * len(idx)}


def _labyrinth(a, lab):
    return {"shells.components": len(lab)}


def _bytes(a, _):
    return {"io.bytes_written": os.path.getsize(a["path"])}


@dataclass(frozen=True)
class SpanSpec:
    module: str
    attr: str
    span: str
    counts: Callable[[dict, object], dict] | None = None


SPECS = (
    SpanSpec("labyrinths.cli", "cmd_generate", "cli.generate"),
    SpanSpec("labyrinths.cli", "cmd_verify", "cli.verify"),
    SpanSpec("labyrinths.cli", "cmd_export", "cli.export"),
    SpanSpec("labyrinths.cli", "cmd_report", "cli.report"),
    SpanSpec("labyrinths.verifier", "build_roadmap", "verifier.build_roadmap",
             _roadmap),
    SpanSpec("labyrinths.verifier", "_segments_collide", "verifier.collide",
             _collide),
    SpanSpec("labyrinths.verifier", "shortest_escape",
             "verifier.shortest_escape", _escape),
    SpanSpec("labyrinths.verifier", "shortcut", "verifier.shortcut", _shortcut),
    SpanSpec("labyrinths.verifier", "verify_path", "verifier.verify_path",
             _verify_path),
    SpanSpec("labyrinths.verifier", "audit_labyrinth", "verifier.audit", _audit),
    SpanSpec("labyrinths.geometry", "separating_hyperplane",
             "geometry.separating_hyperplane", _lp),
    SpanSpec("labyrinths.nets", "covering_radius", "nets.covering_radius"),
    SpanSpec("labyrinths.nets", "greedy_net", "nets.greedy_net", _greedy),
    SpanSpec("labyrinths.nets", "color_net", "nets.color_net"),
    SpanSpec("labyrinths.sampling", "farthest_point_order",
             "sampling.farthest_point_order", _fps),
    SpanSpec("labyrinths.shells", "build_labyrinth", "shells.build_labyrinth",
             _labyrinth),
    SpanSpec("labyrinths.domains", "patch_cover", "domains.patch_cover"),
    SpanSpec("labyrinths.domains", "assemble_patch_labyrinth",
             "domains.assemble_patch_labyrinth"),
    SpanSpec("labyrinths.io", "load_labyrinth", "io.load_labyrinth"),
    SpanSpec("labyrinths.io", "save_labyrinth", "io.save_labyrinth", _bytes),
    SpanSpec("labyrinths.io", "save_report", "io.save_report", _bytes),
    SpanSpec("labyrinths.io", "export_svg", "io.export", _bytes),
    SpanSpec("labyrinths.io", "export_csv", "io.export", _bytes),
)

SPAN_NAMES = tuple(dict.fromkeys(s.span for s in SPECS))

# (numerator, denominator, ratio name): every ratio is printed with its base
RATIOS = (
    ("verifier.collide_hits", "verifier.collide_segments",
     "verifier.collide_hit_ratio"),
    ("verifier.paths_found", "verifier.shortest_escape_calls",
     "verifier.paths_found_ratio"),
)

COUNTS = (
    "verifier.collide_segments", "verifier.collide_hits",
    "verifier.roadmap_nodes", "verifier.roadmap_rim_nodes",
    "verifier.roadmap_edges", "verifier.shortest_escape_calls",
    "verifier.paths_found", "verifier.shortcut_gain",
    "verifier.verify_path_pairs", "verifier.audit_checks",
    "verifier.audit_checks_failed", "geometry.lp_calls", "geometry.lp_rows",
    "nets.greedy_net_calls", "nets.net_points", "sampling.fps_evals",
    "shells.components", "io.bytes_written",
)

COUNT_UNITS = {
    "verifier.shortcut_gain": "len",
    "io.bytes_written": "B",
}


class Tracer:
    """In-memory spans and counters for the wrapped layer functions."""

    def __init__(self):
        self.spans: list[tuple[int, str, float, float, int | None]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, fn, spec: SpanSpec):
        sig = inspect.signature(fn)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else None
            tracer.spans.append(None)  # reserve the id; filled on return
            tracer._stack.append(sid)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans[sid] = (sid, spec.span, start, end, parent)
            if spec.counts is not None:
                bound = sig.bind(*args, **kwargs)
                for key, val in spec.counts(bound.arguments, out).items():
                    tracer.counts[key] += val
            return out

        return traced

    def install(self, specs=SPECS) -> None:
        for spec in specs:
            try:
                original = getattr(importlib.import_module(spec.module),
                                   spec.attr)
            except (ImportError, AttributeError):
                self.missing.append(f"{spec.module}.{spec.attr}")
                continue
            wrapper = self._wrap(original, spec)
            for name, mod in list(sys.modules.items()):
                if mod is None or not (name == "labyrinths"
                                       or name.startswith("labyrinths.")):
                    continue
                for key, val in list(vars(mod).items()):
                    if val is original:
                        setattr(mod, key, wrapper)
                        self._patched.append((mod, key, original))

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched.clear()

    def self_times(self) -> dict[str, tuple[float, float, int]]:
        """Per span name: (total time, self time, calls).

        Spans nest strictly (one thread), so a span's self time is its
        duration minus the summed durations of its direct children.
        """
        child = defaultdict(float)
        for _, _, start, end, parent in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: dict[str, list] = {}
        for sid, name, start, end, _ in self.spans:
            tot = out.setdefault(name, [0.0, 0.0, 0])
            tot[0] += end - start
            tot[1] += end - start - child[sid]
            tot[2] += 1
        return {k: tuple(v) for k, v in out.items()}

    def dump(self) -> list[dict]:
        return [{"id": sid, "name": name, "start": start, "end": end,
                 "parent": parent}
                for sid, name, start, end, parent in self.spans]


def layer_metrics(tracer: Tracer, iterations: int) -> dict[str, tuple[float, str]]:
    """Per-iteration totals of every span and counter; ratios of totals."""
    times = tracer.self_times()
    out = {}
    for name in SPAN_NAMES:
        total, own, _ = times.get(name, (0.0, 0.0, 0))
        out[f"{name}_s"] = (total / iterations, "s")
        out[f"{name}_self_s"] = (own / iterations, "s")
    for key in COUNTS:
        out[key] = (tracer.counts.get(key, 0) / iterations,
                    COUNT_UNITS.get(key, "count"))
    for num, den, name in RATIOS:
        base = tracer.counts.get(den, 0)
        out[name] = (tracer.counts.get(num, 0) / base if base else 0.0, "ratio")
    return out
