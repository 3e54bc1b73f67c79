"""Guess sweeps over (B, D) budgets and the benchmark suites."""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field
from typing import Any

from .directed import Round, stage_directed
from .errors import GenerationError, InfeasibleGuessError
from .generators import generate_instance
from .graph import (
    MulticastInstance,
    PoiseTree,
    TreeMetrics,
    bfs_distances,
    prune_beyond,
    spt_metrics,
    tree_metrics,
)
from .oracle import DEFAULT_LIMIT_N, exact_min_poise_ktree
from .scheduling import tree_broadcast_schedule
from .undirected import stage_undirected


@dataclass
class SweepReport:
    grid: dict[str, int]
    records: list[dict[str, Any]] = field(default_factory=list)
    best: dict[str, Any] | None = None

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)


def stage_budget(
    instance: MulticastInstance,
    D: int,
    mode: str = "auto",
    root_dist: dict[int, int] | None = None,
) -> Round:
    """The work shared by every guess with height budget D: prune to radius
    D, then stage the solver's first round, a `Round`; raises
    InfeasibleGuessError when pruning or staging finds the whole row
    infeasible.  ``stage.solve(B)`` solves the guess (B, D) into its tree,
    and ``stage.trace(B)``, on request, takes that same solve and returns
    its tree with the trace.  ``root_dist`` is passed on to `prune_beyond`.

    The instance must already be in normalized shape (leaf terminals).
    """
    # the mode is checked before pruning, which may already find D infeasible
    return _stager(instance, mode)(prune_beyond(instance, D, root_dist), D)


def _stager(instance: MulticastInstance, mode: str):
    """The stage function of the solver ``mode`` names for this instance
    ("auto" picks by orientation); raises ValueError for an unknown mode or
    the undirected solver on a directed graph."""
    if mode == "auto":
        mode = "directed" if instance.graph.directed else "undirected"
    stagers = {"directed": stage_directed, "undirected": stage_undirected}
    if mode not in stagers:
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "undirected" and instance.graph.directed:
        raise ValueError("the undirected solver requires an undirected graph")
    return stagers[mode]


def solve_guess(stage: Round, B: int) -> PoiseTree:
    """Solve one (B, D) guess: ``stage``, the row's D-only stage from
    `stage_budget`, solved at degree budget B.  `run_sweep` solves every
    cell of a staged row through this one call.
    """
    return stage.solve(B)


def run_sweep(
    instance: MulticastInstance,
    mode: str = "auto",
) -> tuple[SweepReport, PoiseTree | None]:
    """Try every guess with D in [1, ecc(root)] and B in [1, t].

    Returns the report plus the feasible tree of minimum poise (ties broken by
    smallest (B, D)).  One BFS from the root gives the eccentricity and the
    distances every row prunes from.  The sweep runs one D row at a time and
    stages the row's first round once; the first cell of each row carries the
    stage's time in its ``wall_ms``.  A row that `stage_budget` finds
    infeasible records the error's message in every cell without solving.  A
    row's cells share tree objects (a stitched tree, or a tree a round kept
    for the same cover picks or region), so each tree is measured once per
    row: a map from each tree object to its metrics lives, with the trees it
    holds, until the row ends.  Every tree a stage returns was built by
    `shortest_path_tree`, so `spt_metrics` reads its metrics off the BFS
    parent map; the best tree alone goes through the checking
    `tree_metrics`, and a disagreement raises RuntimeError.  Records are
    reported in (B, D) order.  The mode is checked up front, so a bad one
    raises even when the root reaches nothing and there is no row.
    """
    _stager(instance, mode)
    root_dist = bfs_distances(instance.graph, [instance.root])
    ecc = max(root_dist.values())
    t = len(instance.terminals)
    report = SweepReport(grid={"D_max": ecc, "B_max": t})
    records: dict[tuple[int, int], dict[str, Any]] = {}
    best_key = None
    best_tree = None
    best_metrics = None
    for D in range(1, ecc + 1):
        start = time.perf_counter()
        try:
            stage, reason = stage_budget(instance, D, mode, root_dist), None
        except InfeasibleGuessError as exc:
            stage, reason = None, str(exc)  # the text only: no traceback kept
        measured: dict[int, tuple[PoiseTree, TreeMetrics]] = {}  # keeps each id's tree
        for B in range(1, t + 1):
            tree = None
            if stage is None:
                rec = {"B": B, "D": D, "feasible": False, "reason": reason}
            else:
                try:
                    tree = solve_guess(stage, B)
                    if id(tree) not in measured:
                        measured[id(tree)] = tree, spt_metrics(tree, instance.terminals)
                    m = measured[id(tree)][1]
                    rec = {
                        "B": B,
                        "D": D,
                        "feasible": True,
                        "poise": m.poise,
                        "max_out_degree": m.max_out_degree,
                        "height": m.height,
                        "terminals_covered": m.terminals_covered,
                    }
                except InfeasibleGuessError as exc:
                    rec = {"B": B, "D": D, "feasible": False, "reason": str(exc)}
            now = time.perf_counter()
            rec["wall_ms"] = round((now - start) * 1000.0, 3)
            start = now
            records[(B, D)] = rec
            if rec["feasible"] and (best_key is None or (rec["poise"], B, D) < best_key):
                best_key, best_tree, best_metrics = (rec["poise"], B, D), tree, m
                report.best = dict(rec)
        del stage, measured  # not held while the next row builds its own
    if best_tree is not None:
        checked = tree_metrics(best_tree, instance)
        if checked != best_metrics:
            raise RuntimeError(f"best tree measures {checked}, the sweep read {best_metrics}")
    report.records = [records[key] for key in sorted(records)]
    return report, best_tree


_DESK_ROWS: list[tuple[str, dict[str, Any]]] = [
    ("star-of-stars", {"branch": 2, "leaf": 2, "k": 4}),
    ("star-of-stars", {"branch": 3, "leaf": 2, "k": 5}),
    ("grid", {"w": 2, "h": 2, "k": 2}),
    ("grid", {"w": 3, "h": 3, "k": 3}),
    ("layered-dag", {"width": 3, "depth": 2, "t": 3, "k": 2}),
    ("random-digraph", {"n": 7, "m": 16, "t": 3, "k": 2}),
    ("random-digraph", {"n": 7, "m": 18, "t": 3, "k": 3}),
    ("random-digraph", {"n": 8, "m": 20, "t": 3, "k": 2}),
    ("random-digraph", {"n": 7, "m": 12, "t": 3, "k": 2, "directed": False, "connected": True}),
    ("random-digraph", {"n": 8, "m": 14, "t": 3, "k": 3, "directed": False, "connected": True}),
    ("random-digraph", {"n": 18, "m": 60, "t": 5, "k": 4}),
    ("random-digraph", {"n": 20, "m": 55, "t": 6, "k": 4, "directed": False, "connected": True}),
]

_QUICK_ROWS = _DESK_ROWS[:3]

SUITES = {"desk": _DESK_ROWS, "quick": _QUICK_ROWS}

BENCH_COLUMNS = [
    "suite", "row", "model", "params", "directed", "n", "t", "k", "seed",
    "best_B", "best_D", "solver_poise", "oracle_poise", "ratio", "rounds",
]


def bench_rows(suite: str, seed: int, with_timing: bool = False) -> list[dict[str, Any]]:
    """Deterministic benchmark rows: sweep each suite instance, compare with
    the exact oracle where it fits, and schedule the best tree."""
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {', '.join(sorted(SUITES))}")
    rows = []
    for idx, (model, base) in enumerate(SUITES[suite]):
        params = dict(base)
        params["seed"] = seed * 1000 + idx
        try:
            instance = generate_instance(model, params)
        except GenerationError as exc:
            raise GenerationError(f"suite row {idx} ({model}): {exc}") from exc
        started = time.perf_counter()
        report, tree = run_sweep(instance)
        elapsed = (time.perf_counter() - started) * 1000.0
        row: dict[str, Any] = {
            "suite": suite,
            "row": idx,
            "model": model,
            "params": ";".join(f"{k}={base[k]}" for k in sorted(base)),
            "directed": int(instance.graph.directed),
            "n": instance.graph.n,
            "t": len(instance.terminals),
            "k": instance.k,
            "seed": params["seed"],
        }
        if report.best is None:
            row.update(best_B="", best_D="", solver_poise="", oracle_poise="", ratio="", rounds="")
        else:
            row["best_B"] = report.best["B"]
            row["best_D"] = report.best["D"]
            row["solver_poise"] = report.best["poise"]
            if instance.graph.n <= DEFAULT_LIMIT_N:
                optimum = exact_min_poise_ktree(instance)
                row["oracle_poise"] = optimum.poise_star
                row["ratio"] = f"{report.best['poise'] / optimum.poise_star:.4f}"
            else:
                row["oracle_poise"] = ""
                row["ratio"] = ""
            assert tree is not None
            row["rounds"] = len(tree_broadcast_schedule(tree).rounds)
        if with_timing:
            row["time_ms"] = f"{elapsed:.1f}"
        rows.append(row)
    return rows
