"""Spans around the pipeline's layer entry points, kept in memory.

A ``Tracer`` replaces module attributes of ``polywang`` with wrappers that
record one span per call (name, start, end, parent span, op id and counts)
and puts the originals back when the traced op ends.  The spans are
recorded from the benchmark's side of each call, so the program itself is
unchanged.  An entry point the program no longer has is not wrapped, and
its metrics read 0.

In a memory op the tracer also runs ``tracemalloc`` and records each span's
peak heap growth: the most the traced heap (Python objects and numpy
buffers) grew above its size at the call's start.  ``tracemalloc`` makes
the op several times slower, so memory ops are not timed.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
import tracemalloc
from contextlib import contextmanager

MB = 1024 * 1024


def _io_counts(args, result) -> dict:
    """Bytes of the files a ``cli.run`` argv reads and the one it writes."""
    argv = args[0]
    out = argv[argv.index("-o") + 1]
    read = sum(os.path.getsize(a) for a in argv if a != out and os.path.isfile(a))
    return {"bytes_read": read, "bytes_written": os.path.getsize(out)}


# (module under polywang, attribute, span name, counts of one call)
WRAPPED = (
    ("cli", "run", "cli.run", _io_counts),
    ("compiler", "compile_pieces", "compiler.compile_pieces",
     lambda a, r: {"piece_cells": sum(len(p.cells) for p in r.pieces)}),
    ("simulate", "emit_placements", "simulate.emit_placements",
     lambda a, r: {"placements": len(r.placements)}),
    ("solver", "check_tiling", "solver.check_tiling",
     lambda a, r: {"defects_out": len(r.uncovered) + len(r.overlaps)
                   + len(r.out_of_region)}),
    ("_kernels", "coverage_counts", "kernels.coverage_counts",
     lambda a, r: {"points": len(a[0])}),
    ("_kernels", "reduce_points", "kernels.reduce_points", None),
    ("solver", "build_universe", "solver.build_universe",
     lambda a, r: {"universe_rows": len(r.placements)}),
    # The benchmark searches in count mode, where solve returns the count.
    ("solver", "solve", "solver.solve", lambda a, r: {"solutions": r}),
    ("render", "render_svg", "render.render_svg",
     lambda a, r: {"svg_bytes": len(r.encode())}),
)

# Per-layer metric -> (unit, better, span name, what to take from the spans)
METRICS = {
    "cli.self_s": ("s", "lower", "cli.run", "self"),
    "cli.bytes_read": ("bytes", "lower", "cli.run", "bytes_read"),
    "cli.bytes_written": ("bytes", "lower", "cli.run", "bytes_written"),
    "compiler.compile_pieces_s": ("s", "lower", "compiler.compile_pieces", "time"),
    "compiler.piece_cells": ("count", "lower", "compiler.compile_pieces", "piece_cells"),
    "simulate.emit_placements_s": ("s", "lower", "simulate.emit_placements", "time"),
    "simulate.placements": ("count", "lower", "simulate.emit_placements", "placements"),
    "solver.check_tiling_s": ("s", "lower", "solver.check_tiling", "time"),
    "solver.check_tiling_self_s": ("s", "lower", "solver.check_tiling", "self"),
    "solver.check_tiling_rss_growth_mb": ("MB", "lower", "solver.check_tiling", "heap"),
    "solver.defects_out": ("count", "lower", "solver.check_tiling", "defects_out"),
    "kernels.coverage_counts_s": ("s", "lower", "kernels.coverage_counts", "time"),
    "kernels.reduce_points_s": ("s", "lower", "kernels.reduce_points", "time"),
    "kernels.points": ("count", "lower", "kernels.coverage_counts", "points"),
    "solver.build_universe_s": ("s", "lower", "solver.build_universe", "time"),
    "solver.universe_rows": ("count", "lower", "solver.build_universe", "universe_rows"),
    "solver.solve_s": ("s", "lower", "solver.solve", "time"),
    "solver.solve_rss_growth_mb": ("MB", "lower", "solver.solve", "heap"),
    "solver.solutions": ("count", "lower", "solver.solve", "solutions"),
    "render.render_svg_s": ("s", "lower", "render.render_svg", "time"),
    "render.svg_bytes": ("bytes", "lower", "render.render_svg", "svg_bytes"),
    "render.rss_growth_mb": ("MB", "lower", "render.render_svg", "heap"),
}
LAYERS = ("cli", "compiler", "simulate", "solver", "kernels", "render")
for _layer in LAYERS:
    METRICS[f"{_layer}.errors"] = ("count", "lower", _layer, "errors")
METRICS["trace.overhead_frac"] = ("frac", "lower", None, "overhead")


class Tracer:
    """Records spans of the wrapped entry points while ``tracing`` is open."""

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []
        self._op: int | None = None
        self._memory = False
        # Per open span in a memory op: [heap at its start, its peak so far]
        self._heap: list[list[int]] = []

    @contextmanager
    def tracing(self, op: int, memory: bool = False):
        """Wrap every entry point for the duration of op ``op``; with
        ``memory``, under ``tracemalloc``."""
        originals = []
        self._op, self._memory = op, memory
        try:
            for module_name, attr, name, counter in WRAPPED:
                try:
                    module = importlib.import_module(f"polywang.{module_name}")
                    fn = getattr(module, attr)
                except (ImportError, AttributeError):
                    continue
                originals.append((module, attr, fn))
                setattr(module, attr, self._wrap(name, fn, counter))
            if memory:
                tracemalloc.start()
            yield
        finally:
            if memory:
                tracemalloc.stop()
            for module, attr, fn in reversed(originals):
                setattr(module, attr, fn)
            self._op, self._memory = None, False

    def _fold_peak(self) -> int:
        """Fold the heap peak since the last reset into every open span."""
        peak = tracemalloc.get_traced_memory()[1]
        for entry in self._heap:
            entry[1] = max(entry[1], peak)
        return peak

    def _wrap(self, name, fn, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"name": name, "op": self._op, "memory": self._memory,
                    "parent": self._open[-1] if self._open else None,
                    "error": None, "counts": {}}
            self._open.append(len(self.spans))
            self.spans.append(span)
            if self._memory:
                self._fold_peak()
                tracemalloc.reset_peak()
                heap = tracemalloc.get_traced_memory()[0]
                self._heap.append([heap, heap])
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span["error"] = repr(exc)
                raise
            finally:
                span["end"] = time.perf_counter()
                if self._memory:
                    self._fold_peak()
                    start, peak = self._heap.pop()
                    span["heap_growth_mb"] = (peak - start) / MB
                self._open.pop()
            if counter is not None:
                try:
                    span["counts"] = counter(args, result)
                except (AttributeError, LookupError, OSError, TypeError, ValueError):
                    pass  # a changed result or no output: the counts read 0
            return result
        return traced

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        own = [s["end"] - s["start"] for s in self.spans]
        for s in self.spans:
            if s["parent"] is not None:
                own[s["parent"]] -= s["end"] - s["start"]
        return own

    def layer_metrics(self, scales: dict[int, float],
                      overhead_frac: float) -> dict:
        """Per-layer metrics, ``scales`` mapping each timed traced op's id
        to its factor to reference speed: times (scaled) and counts as
        means per timed op, heap growth as the maximum over memory ops,
        errors as the total over all traced ops."""
        own = self.self_times()
        values = {}
        for metric, (unit, _, span_name, what) in METRICS.items():
            if what == "overhead":
                value = overhead_frac
            elif what == "errors":
                value = sum(1 for s in self.spans
                            if s["error"] and s["name"].split(".")[0] == span_name)
            elif what == "heap":
                value = max([s["heap_growth_mb"] for s in self.spans
                             if s["memory"] and s["name"] == span_name]
                            or [0.0])
            else:
                total = 0.0
                for i, s in enumerate(self.spans):
                    if s["name"] != span_name or s["op"] not in scales:
                        continue
                    if what == "time":
                        total += (s["end"] - s["start"]) * scales[s["op"]]
                    elif what == "self":
                        total += own[i] * scales[s["op"]]
                    else:
                        total += s["counts"].get(what, 0)
                value = total / len(scales)
            values[metric] = {"value": value, "unit": unit}
        return values
