"""Span tracing from outside the program, and the per-layer metrics built
from the spans.

`Tracer.install` swaps every module-level binding of a traced poisekit
function for a wrapper that records a span: name, start, end, parent span and
instance id, plus a work count taken from the result.  Functions imported into
several modules (``bfs_parents`` lives in ``graph`` but is bound in
``directed`` and ``undirected`` too) are replaced in every module that binds
them, so calls through any name are seen.  `Tracer.uninstall` restores the
originals; nothing in poisekit is edited.
"""

from __future__ import annotations

import functools
import gzip
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

# Public functions of each layer, plus the two private helpers the layer
# metrics need (the multi-source shortest-path forest of the cover step).
TRACED: dict[str, tuple[str, ...]] = {
    "graph": (
        "bfs_distances", "bfs_parents", "shortest_path_tree", "prune_beyond",
        "tree_metrics", "eccentricity",
    ),
    "directed": (
        "coverage_tree", "greedy_packing", "solve_many_trees", "complete",
        "_multi_source_spt_arcs", "solve_directed",
    ),
    "cover": ("pm_cover", "build_coverage_instance", "greedy_matroid_max"),
    "undirected": ("solve_undirected", "small", "find_good_vertex_wrt_super"),
    "scheduling": ("tree_broadcast_schedule", "validate_schedule", "broadcast_rounds"),
    "oracle": ("exact_min_poise_ktree", "exact_multicast_rounds"),
    "driver": ("run_sweep", "solve_guess"),
}

# Work count stored on a span, read from the traced call's result.
COUNTS: dict[str, Callable[[Any], int]] = {
    "graph.bfs_distances": len,
    "graph.bfs_parents": lambda r: len(r[0]),
    "directed.greedy_packing": lambda r: len(r[0]),
    "cover.build_coverage_instance": lambda r: len(r.pairs),
    "cover.greedy_matroid_max": len,
    "undirected.find_good_vertex_wrt_super": lambda r: int(r is not None),
}

ROOT = "bench.op"
BFS = ("graph.bfs_distances", "graph.bfs_parents")

# Span fields, in the order stored.
NAME, START, END, PARENT, INSTANCE, COUNT, OK = range(7)


class Tracer:
    """In-memory span recorder for one benchmark process."""

    def __init__(self) -> None:
        self.names: list[str] = [ROOT]
        self.spans: list[list] = []
        self._stack: list[int] = [-1]
        self._instance = -1
        self._patched: list[tuple[Any, str, Any]] = []

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "poisekit"]
        for layer, functions in TRACED.items():
            home = sys.modules[f"poisekit.{layer}"]
            for fname in functions:
                original = getattr(home, fname)
                name = f"{layer}.{fname}"
                if name not in self.names:
                    self.names.append(name)
                wrapper = self._wrap(self.names.index(name), original, COUNTS.get(name))
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _wrap(self, name_id: int, fn: Callable, count: Callable[[Any], int] | None) -> Callable:
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name_id, 0.0, 0.0, stack[-1], self._instance, 0, False]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                stack.pop()
            span[OK] = True
            if count is not None:
                span[COUNT] = count(result)
            return result

        return traced

    def root(self, instance: int, op: Callable[[], Any]) -> Any:
        """Run one benchmark operation under a root span for ``instance``."""
        self._instance = instance
        span = [0, 0.0, 0.0, -1, instance, 0, False]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[START] = perf_counter()
        try:
            result = op()
        finally:
            span[END] = perf_counter()
            self._stack.pop()
        span[OK] = True
        return result

    def write(self, path: Path) -> None:
        """Spans as gzipped tab-separated lines: id, name, start, end,
        parent, instance, count, ok."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id\tname\tstart\tend\tparent\tinstance\tcount\tok\n")
            names = self.names
            for i, s in enumerate(self.spans):
                fh.write(
                    f"{i}\t{names[s[NAME]]}\t{s[START]!r}\t{s[END]!r}\t{s[PARENT]}"
                    f"\t{s[INSTANCE]}\t{s[COUNT]}\t{int(s[OK])}\n"
                )


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Calls run on one thread, so a span's children lie inside it and do not
    overlap each other.
    """
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def layer_metrics(tracer: Tracer, instances: int) -> dict[str, float]:
    """Per-layer metrics, each a mean per traced instance (one instance is one
    benchmark operation: a full sweep plus scheduling, and the oracles on
    ``certify``).  A layer that a workload never enters reports 0 calls and
    0 s there.
    """
    spans = tracer.spans
    names = tracer.names
    own = self_times(spans)
    calls: dict[str, int] = defaultdict(int)
    oks: dict[str, int] = defaultdict(int)
    total: dict[str, float] = defaultdict(float)
    selfs: dict[str, float] = defaultdict(float)
    counts: dict[str, int] = defaultdict(int)
    candidates = bfs_calls = bfs_reached = cover_iterations = 0
    for i, s in enumerate(spans):
        name = names[s[NAME]]
        parent = names[spans[s[PARENT]][NAME]] if s[PARENT] >= 0 else None
        calls[name] += 1
        oks[name] += s[OK]
        total[name] += s[END] - s[START]
        selfs[name] += own[i]
        counts[name] += s[COUNT]
        if name == "directed.coverage_tree" and parent == "directed.greedy_packing":
            candidates += 1
        # One greedy pick per cover iteration, counted also in pm_cover calls
        # that raise because coverage stalled.
        if name == "cover.greedy_matroid_max" and parent == "cover.pm_cover":
            cover_iterations += 1
        if name in BFS and parent not in BFS:
            bfs_calls += 1
            bfs_reached += s[COUNT]
    root_s = total[ROOT]
    bfs_self = selfs[BFS[0]] + selfs[BFS[1]]

    def per(value: float) -> float:
        return value / instances

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    search = "undirected.find_good_vertex_wrt_super"
    return {
        "graph.bfs_calls": per(bfs_calls),
        "graph.bfs_reached": per(bfs_reached),
        "graph.bfs_self_s": per(bfs_self),
        "graph.bfs_ns_per_reached": 1e9 * ratio(bfs_self, bfs_reached),
        "graph.prune_calls": per(calls["graph.prune_beyond"]),
        "graph.prune_self_s": per(selfs["graph.prune_beyond"]),
        "graph.spt_self_s": per(selfs["graph.shortest_path_tree"]),
        "directed.pack_calls": per(calls["directed.greedy_packing"]),
        "directed.pack_s": per(total["directed.greedy_packing"]),
        "directed.pack_candidates": per(candidates),
        "directed.pack_trees": per(counts["directed.greedy_packing"]),
        "directed.pack_yield": ratio(counts["directed.greedy_packing"], candidates),
        "directed.complete_s": per(total["directed.complete"]),
        "directed.stitch_s": per(total["directed.solve_many_trees"]),
        "cover.spt_forest_s": per(total["directed._multi_source_spt_arcs"]),
        "cover.pm_cover_calls": per(calls["cover.pm_cover"]),
        "cover.iterations": per(cover_iterations),
        "cover.pairs_built": per(counts["cover.build_coverage_instance"]),
        "cover.picks": per(counts["cover.greedy_matroid_max"]),
        "cover.build_self_s": per(selfs["cover.build_coverage_instance"]),
        "cover.greedy_self_s": per(selfs["cover.greedy_matroid_max"]),
        "undirected.small_calls": per(calls["undirected.small"]),
        "undirected.super_search_calls": per(calls[search]),
        "undirected.super_search_self_s": per(selfs[search]),
        "undirected.super_search_hit_ratio": ratio(counts[search], calls[search]),
        "oracle.poise_calls": per(calls["oracle.exact_min_poise_ktree"]),
        "oracle.rounds_calls": per(calls["oracle.exact_multicast_rounds"]),
        "oracle.poise_s": per(total["oracle.exact_min_poise_ktree"]),
        "oracle.rounds_s": per(total["oracle.exact_multicast_rounds"]),
        "scheduling.schedule_s": per(total["scheduling.tree_broadcast_schedule"]),
        "scheduling.validate_s": per(total["scheduling.validate_schedule"]),
        "driver.cells": per(calls["driver.solve_guess"]),
        "driver.feasible_cells": per(oks["driver.solve_guess"]),
        "driver.solve_guess_s": per(total["driver.solve_guess"]),
        "driver.sweep_self_s": per(selfs["driver.run_sweep"]),
        "trace.root_s": per(root_s),
        "trace.spans": per(len(spans)),
    }
