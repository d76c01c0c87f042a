"""Spans around the calls into each wpoly module, recorded from outside.

The program's source is not touched.  `instrument` swaps the module-level
names the program resolves at call time (for example `wpoly.cli.build`,
or `wpoly.classify._hull_cycle`) for wrappers that record a span; the
originals are restored on exit.  A span is (id, name, start, end, parent
id, operation id).  Self time is a span's duration minus the part of it
that child spans cover.  Spans are kept in memory, up to SPAN_CAP of
them, and written out by the caller at the end; self times, calls and
counts cover every span, kept or not.
"""
from __future__ import annotations

import importlib
from collections import Counter, defaultdict
from contextlib import contextmanager
from math import comb
from time import perf_counter

SPAN_CAP = 50_000


def _triple_rank(p, triple) -> int:
    """Position (1-based) of the returned row triple in lexicographic
    combination order: the number of 3x3 determinants tried."""
    index = {pt: k for k, pt in enumerate(p.points)}
    i, j, k = sorted(index[row] for row in triple)
    n = p.n
    before = sum(comb(n - 1 - a, 2) for a in range(i))
    before += sum(comb(n - 1 - b, 1) for b in range(i + 1, j))
    before += k - j - 1
    return before + 1


def _count_scan(counts, args, result):
    counts["quadruples.scan_found"] += len(result)


def _count_build(counts, args, result):
    counts["wpolytope.points"] += result.n


def _count_triple(counts, args, result):
    counts["wpolytope.triple_minors"] += _triple_rank(args[0], result)


def _count_hull(counts, args, result):
    counts["polygon2d.lattice_points"] += len(getattr(result, "lattice_points", ()))


def _count_grow(counts, args, result):
    counts["classify.grow_accepted"] += result is not None


def _enumerate_name(args, kwargs) -> str:
    method = args[1] if len(args) > 1 else kwargs.get("method", "inductive")
    return f"classify.{method}"


# (module, attribute, span name or function of the call's arguments, counter)
TARGETS = (
    ("wpoly.cli", "group_by_class", "classify.group", None),
    ("wpoly.cli", "enumerate_classes", _enumerate_name, None),
    ("wpoly.cli", "build", "wpolytope.build", _count_build),
    ("wpoly.cli", "verify_case_identities", "wpolytope.case", None),
    ("wpoly.cli", "find_unimodular_triple", "wpolytope.triple", _count_triple),
    ("wpoly.cli", "project", "polygon2d.project", None),
    ("wpoly.cli", "canonical_form", "polygon2d.canonical", None),
    ("wpoly.classify", "enumerate_g_good", "quadruples.scan", _count_scan),
    ("wpoly.classify", "build", "wpolytope.build", _count_build),
    ("wpoly.classify", "find_unimodular_triple", "wpolytope.triple", _count_triple),
    ("wpoly.classify", "_canonical_cycle", "polygon2d.canonical", None),
    ("wpoly.classify", "_build_polygon", "polygon2d.hull", _count_hull),
    ("wpoly.classify", "_hull_cycle", "polygon2d.hull", None),
    ("wpoly.classify", "_grow_cycle", "classify.grow", _count_grow),
    ("wpoly.classify", "_pick_counts", "classify.pick", None),
    ("wpoly.polygon2d", "project", "polygon2d.project", None),
    ("wpoly.polygon2d", "projection_coordinates", "polygon2d.coords", None),
    ("wpoly.polygon2d", "convex_hull", "polygon2d.hull", _count_hull),
    ("wpoly.wpolytope", "validate", "quadruples.validate", None),
)


# Every span name; a layer that a workload does not reach reads 0.
LAYERS = (
    "quadruples.scan", "quadruples.validate", "wpolytope.build", "wpolytope.case",
    "wpolytope.triple", "polygon2d.coords", "polygon2d.project", "polygon2d.hull",
    "polygon2d.canonical", "classify.group", "classify.inductive", "classify.box",
    "classify.grow", "classify.pick",
)
COUNTS = (
    "quadruples.scan_found", "wpolytope.points", "wpolytope.triple_minors",
    "polygon2d.lattice_points", "classify.grow_accepted",
)


class Tracer:
    """Open spans on a stack; closed ones feed self times, calls and counts."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.root_self: list[float] = []  # self time of each operation's root span
        self.dropped = 0
        self.self_time: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.op_id = 0
        self._next_id = 0
        self._stack: list[list] = []  # [span id, name, start, time covered by children]

    def enter(self, name: str) -> list:
        frame = [self._next_id, name, perf_counter(), 0.0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def exit(self, frame: list) -> float:
        """Close the innermost span; returns its self time."""
        end = perf_counter()
        self._stack.pop()
        span_id, name, start, covered = frame
        duration = end - start
        own = duration - covered
        self.self_time[name] += own
        self.calls[name] += 1
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += duration
        if len(self.spans) < SPAN_CAP:
            self.spans.append((span_id, name, start, end, parent[0] if parent else None, self.op_id))
        else:
            self.dropped += 1
        return own

    def per_layer(self, passes: int, scale: float) -> dict[str, float]:
        """Self time (wall seconds times `scale`), calls and counts of each
        layer, per traced pass."""
        metrics = {f"{layer}_s": self.self_time[layer] * scale / passes for layer in LAYERS}
        metrics.update({key: self.counts[key] / passes for key in COUNTS})
        metrics["polygon2d.hull_calls"] = self.calls["polygon2d.hull"] / passes
        metrics["polygon2d.canonical_calls"] = self.calls["polygon2d.canonical"] / passes
        metrics["classify.grow_tried"] = self.calls["classify.grow"] / passes
        metrics["trace.spans"] = sum(self.calls.values()) / passes
        return metrics

    def wrap(self, fn, name, counter):
        def traced(*args, **kwargs):
            frame = self.enter(name if isinstance(name, str) else name(args, kwargs))
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit(frame)
            if counter is not None:
                counter(self.counts, args, result)
            return result

        return traced


@contextmanager
def instrument(tracer: Tracer):
    """Wrap every TARGETS name that exists; yields the names found absent."""
    saved = []
    absent = []
    try:
        for module_name, attr, name, counter in TARGETS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                absent.append(f"{module_name}.{attr}")
                continue
            saved.append((module, attr, fn))
            setattr(module, attr, tracer.wrap(fn, name, counter))
        yield absent
    finally:
        for module, attr, fn in reversed(saved):
            setattr(module, attr, fn)
