"""Telephone-model schedules: tree broadcast, validation and lower bounds.

A schedule is an ordered list of rounds; each round is a matching from
informed senders to uninformed receivers along arcs of the graph.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Any

from .graph import MulticastInstance, PoiseTree, check_k


@dataclass(frozen=True)
class Schedule:
    rounds: tuple[tuple[tuple[int, int], ...], ...]


@dataclass
class ValidationReport:
    valid: bool
    violations: list[dict[str, Any]] = field(default_factory=list)
    informed_terminals: int = 0
    rounds: int = 0

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)


def _broadcast_order(tree: PoiseTree) -> tuple[dict[int, int], dict[int, list[int]]]:
    """b(v) for every vertex of the tree (`broadcast_rounds`), and each
    vertex's children in the order it calls them: by b descending, ties to
    the lowest id; raises ValueError as `PoiseTree.depths` does."""
    depths = tree.depths()
    children: dict[int, list[int]] = {v: [] for v in depths}
    for v, p in tree.parent.items():
        children[p].append(v)
    b: dict[int, int] = {}
    for v, _ in sorted(depths.items(), key=lambda item: -item[1]):
        kids = children[v]
        kids.sort(key=lambda c: (-b[c], c))
        b[v] = max((i + 1 + b[c] for i, c in enumerate(kids)), default=0)
    return b, children


def broadcast_rounds(tree: PoiseTree) -> dict[int, int]:
    """Bottom-up round counts b(v): rounds needed to inform v's whole subtree.

    b(leaf) = 0; otherwise sort children by b descending (ties to the lowest
    id) and take max over the 1-based position i of (i + b(child_i)).  b(root)
    is the minimum round count of any telephone schedule confined to the
    tree's arcs.
    """
    return _broadcast_order(tree)[0]


def tree_broadcast_schedule(tree: PoiseTree) -> Schedule:
    """Optimal telephone schedule restricted to the tree's arcs.

    Each vertex transmits to its children in decreasing-b order, one per
    round, starting the round after it becomes informed.  Total rounds equal
    b(root).
    """
    b, children = _broadcast_order(tree)
    informed_at = {tree.root: 0}
    rounds: dict[int, list[tuple[int, int]]] = {}
    stack = [tree.root]
    while stack:
        v = stack.pop()
        for i, c in enumerate(children[v]):
            when = informed_at[v] + i + 1
            informed_at[c] = when
            rounds.setdefault(when, []).append((v, c))
            stack.append(c)
    total = b[tree.root]
    ordered = tuple(tuple(sorted(rounds.get(i, []))) for i in range(1, total + 1))
    return Schedule(ordered)


def validate_schedule(instance: MulticastInstance, schedule: Schedule, k: int) -> ValidationReport:
    """Replay a schedule from {root} and report the first violated rule.

    Checked per round: the matching property (distinct senders, distinct
    receivers, no vertex on both sides), arc existence with orientation,
    sender already informed, receiver not yet informed.  At the end the
    number of informed terminals must reach k, which must lie in
    1..|terminals| (ValueError otherwise).
    """
    check_k(k, len(instance.terminals))
    g = instance.graph
    informed = {instance.root}
    report = ValidationReport(valid=True, rounds=len(schedule.rounds))

    def fail(round_idx: int, rule: str, detail: str) -> ValidationReport:
        report.valid = False
        report.violations.append({"round": round_idx, "rule": rule, "detail": detail})
        report.informed_terminals = len(informed & instance.terminals)
        return report

    for i, rnd in enumerate(schedule.rounds):
        senders = [s for s, _ in rnd]
        receivers = [r for _, r in rnd]
        if len(set(senders)) != len(senders) or len(set(receivers)) != len(receivers):
            return fail(i, "matching", "repeated sender or receiver in one round")
        if set(senders) & set(receivers):
            return fail(i, "matching", "a vertex both sends and receives in one round")
        for s, r in rnd:
            if not g.has_arc(s, r):
                return fail(i, "arc", f"({s}, {r}) is not a usable arc (missing or misoriented)")
            if s not in informed:
                return fail(i, "sender-uninformed", f"sender {s} does not know the message yet")
            if r in informed:
                return fail(i, "receiver-informed", f"receiver {r} already knows the message")
        informed.update(receivers)
    report.informed_terminals = len(informed & instance.terminals)
    if report.informed_terminals < k:
        return fail(len(schedule.rounds), "coverage", f"only {report.informed_terminals} of {k} terminals informed")
    return report


def round_lower_bounds(
    instance: MulticastInstance, tree: PoiseTree | None = None
) -> tuple[int, int | None]:
    """(doubling bound, optional poise/2 bound) on the round count.

    The informed set at most doubles per round, so k terminals need at least
    ceil(log2(k + 1)) rounds.  The poise/2 figure is a valid bound only when
    computed from an optimal tree; for heuristic trees it is informational.
    """
    doubling = math.ceil(math.log2(instance.k + 1))
    poise_half = None
    if tree is not None:
        degree = max(tree.out_degrees().values(), default=0)
        poise_half = -(-(degree + tree.height()) // 2)
    return doubling, poise_half
