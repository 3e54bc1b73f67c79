"""Maximum coverage under a partition matroid, and the iterated cover loop.

Coverage instances pair boundary arcs (a, c) with the element set reachable
from c inside the far side of the partition; one uncapped `reach_labels` pass
from the elements' representatives gives every c's set at once, where a BFS
per boundary vertex would cost O(boundary * m).  The greedy picker is a
1/2-approximation for maximum coverage under one matroid constraint: the
partition matroid whose parts are the pairs' anchors a, each taking at most
a capacity of pairs.  The iterated loop re-runs it on the uncovered
remainder, which halves the shortfall each round.  The system is built once
per (A, C, D); a sweep keeps it for a whole row of degree budgets in a
`CoverRow`, and the degree budget enters only as the capacity.

Each system keeps, as int bitmasks, one uncapped greedy order O from nothing
covered, and the greedy replays O instead of searching again.  Two facts make
that exact.  From the coverage of a prefix O[:p] the uncapped greedy picks
O[p:], since the prefix's pairs have no gain left.  With fresh loads and a
capacity, the greedy picks O[p:m], m the first position whose pair falls in a
full part, as long as O ends there or no pair of a part under capacity has
gain there.  A cover starts from nothing covered and each replayed iteration
ends on a prefix's coverage, so with one part each cover at capacity B cuts
O into blocks of B; any other call runs the lazy heap.
"""

from __future__ import annotations

import functools
import heapq
from typing import Any, Hashable, Iterable, Mapping

from .errors import InfeasibleGuessError
from .graph import ArcKeys, Graph, bfs_parents, chain_parents, reach_labels, row_keys

Element = Hashable
Pair = tuple[int, int]
# One cover iteration: its pair indices in ascending order, the mask of the
# elements it newly covered and its picks per part.
Step = tuple[list[int], int, dict[int, int]]


class CoverageSystem:
    """Ground elements plus (a, c, covered) pairs, unique and sorted by (a, c),
    kept as int bitmasks with their uncapped greedy order.

    Element j of ``elements`` (the ground set in repr order) is bit j, so a
    pair's gain over a covered mask is ``(mask & ~covered).bit_count()`` and
    a mask decodes to its elements in repr order.  ``masks[i]`` and
    ``parts[i]`` are pair i's coverage and anchor; ``part_union`` ORs each
    part's pair masks.  ``order`` is the uncapped greedy's picks from nothing
    covered; ``states[p]`` is the coverage of the prefix order[:p] and
    ``position`` maps it back to p.
    """

    def __init__(self, ground: Iterable[Element], pairs: Iterable[tuple[int, int, frozenset]]):
        self.ground = frozenset(ground)
        dedup: dict[Pair, frozenset] = {}
        for a, c, covered in pairs:
            covered = frozenset(covered)
            if not covered <= self.ground:
                raise ValueError(f"pair ({a}, {c}) covers elements outside the ground set")
            if (a, c) in dedup:
                raise ValueError(f"duplicate pair ({a}, {c})")
            dedup[(a, c)] = covered
        self.pairs = tuple((a, c, dedup[(a, c)]) for a, c in sorted(dedup))
        self.elements = sorted(self.ground, key=repr)
        self.bit = {e: 1 << j for j, e in enumerate(self.elements)}
        self.parts = [a for a, _, _ in self.pairs]
        self.masks = [sum(map(self.bit.__getitem__, cov)) for _, _, cov in self.pairs]
        self.part_union: dict[int, int] = {}
        for a, m in zip(self.parts, self.masks):
            self.part_union[a] = self.part_union.get(a, 0) | m
        self.order = _lazy_greedy(self.masks, self.parts, len(self.masks), 0)
        self.states = [0]
        for i in self.order:
            self.states.append(self.states[-1] | self.masks[i])
        self.position = {state: p for p, state in enumerate(self.states)}

    def mask(self, elements: Iterable[Element]) -> int:
        """The bitmask of ``elements``; any outside the ground set are ignored."""
        bit, mask = self.bit, 0
        for e in elements:
            mask |= bit.get(e, 0)
        return mask

    def elements_of(self, mask: int) -> list[Element]:
        """The elements whose bits ``mask`` sets, in repr order."""
        out = []
        while mask:
            low = mask & -mask
            out.append(self.elements[low.bit_length() - 1])
            mask ^= low
        return out

    def replay(self, p: int, capacity: int) -> list[int] | None:
        """The capped greedy's picks from the coverage of order[:p], or None
        when the order cannot give them (fact 2 of `greedy_matroid_max`)."""
        load: dict[int, int] = {}
        for j in range(p, len(self.order)):
            a = self.parts[self.order[j]]
            if load.get(a, 0) >= capacity:
                left = ~self.states[j]
                if any(m & left for b, m in self.part_union.items() if load.get(b, 0) < capacity):
                    return None
                return self.order[p:j]
            load[a] = load.get(a, 0) + 1
        return self.order[p:]


class CoverSelection:
    """The boundary arcs a cover loop chose, the bitmask of the elements they
    cover and ``peak_load``, the most pairs any one part took in one
    iteration: while it stays below the capacity, the capacity never bound a
    pick.  ``covered_elements`` and the ``log`` are decoded from the
    iterations' ``steps`` on first read."""

    def __init__(self, system: CoverageSystem, steps: list[Step], covered_mask: int, peak_load: int):
        self.system, self.steps = system, steps
        self.covered_mask, self.peak_load = covered_mask, peak_load
        self.iterations = len(steps)
        self.chosen = frozenset(system.pairs[i][:2] for picks, _, _ in steps for i in picks)

    @functools.cached_property
    def covered_elements(self) -> set:
        return set(self.system.elements_of(self.covered_mask))

    @functools.cached_property
    def log(self) -> list[dict[str, Any]]:
        """One record per iteration: its number, its arcs in (a, c) order,
        the elements it newly covered in repr order and its picks per part."""
        pairs, decode = self.system.pairs, self.system.elements_of
        return [
            {
                "iteration": it,
                "chosen": [pairs[i][:2] for i in picks],
                "covered": decode(newly),
                "per_part": per_part,
            }
            for it, (picks, newly, per_part) in enumerate(self.steps, 1)
        ]


def build_coverage_instance(
    graph: Graph,
    A: Iterable[int],
    C: Iterable[int],
    elements: Iterable[Element],
    element_location: Mapping[Element, Iterable[int]],
    D: int,
    root: int,
) -> CoverageSystem:
    """One pair per boundary arc (a in A, c in C); a pair covers an element
    when c is within D hops of one of the element's representative vertices
    inside the induced subgraph on C, read from one `reach_labels` pass.
    """
    A = frozenset(A)
    C = frozenset(C)
    if root not in A:
        raise ValueError("root must belong to A")
    if A & C:
        raise ValueError("A and C must be disjoint")
    if A | C != set(graph.vertices()):
        raise ValueError("A and C must partition the vertex set")
    boundary: set[Pair] = set()
    for a in A:
        for c in graph.out_neighbors(a):
            if c in C:
                boundary.add((a, c))
    elements = list(elements)
    held = reach_labels(graph, C, {e: element_location[e] for e in elements}, D)
    covered = {c: frozenset(held.get(c, ())) for _, c in boundary}  # shared by c's pairs
    pairs = [(a, c, covered[c]) for a, c in sorted(boundary)]
    return CoverageSystem(elements, pairs)


def greedy_matroid_max(
    system: CoverageSystem,
    capacity: int,
    already_covered: Iterable[Element] | int = (),
) -> set[int]:
    """Greedy maximum coverage under the partition matroid whose parts are
    the pairs' anchors, each taking at most ``capacity`` pairs, over the
    elements ``already_covered``: an iterable of elements or, as an int, the
    system's bitmask of them.

    Repeatedly adds the pair of largest marginal coverage whose part still has
    spare capacity, ties broken by (a, c) order; stops at zero marginal gain.
    The result covers at least half as much as any independent selection.

    The picks are replayed from the system's uncapped greedy order O when
    ``already_covered`` is the coverage of a prefix O[:p], which is exact:

    1. Prefix consistency: from that coverage the uncapped greedy picks
       O[p:], since the pairs of O[:p] have no gain left.
    2. Capacity: with fresh loads the capped greedy picks O[p:m], m the first
       position whose pair falls in a part already holding ``capacity``
       picks, provided O ends at m or no pair of a part still under capacity
       has gain there.

    Otherwise the greedy runs lazily (Minoux 1978): a heap holds each pair's
    last known gain, and a popped pair is re-evaluated and taken only if it
    still leads the heap.
    """
    if capacity < 0:
        raise ValueError("capacity must be nonnegative")
    covered = already_covered if isinstance(already_covered, int) else system.mask(already_covered)
    p = system.position.get(covered)
    picks = None if p is None else system.replay(p, capacity)
    if picks is None:
        picks = _lazy_greedy(system.masks, system.parts, capacity, covered)
    return set(picks)


def _lazy_greedy(masks: list[int], parts: list[int], capacity: int, covered: int) -> list[int]:
    """The lazy heap greedy on bitmask pairs from the ``covered`` mask; the
    picks in the order taken.  Stops once every part that had a pair with
    gain is full."""
    uncovered = ~covered
    heap = [(-g, i) for i, m in enumerate(masks) if (g := (m & uncovered).bit_count())]
    heapq.heapify(heap)
    live = len({parts[i] for _, i in heap})
    full = 0
    load: dict[int, int] = {}
    picks: list[int] = []
    while heap and full < live:
        _, i = heapq.heappop(heap)
        a = parts[i]
        if load.get(a, 0) >= capacity:
            continue
        gain = (masks[i] & uncovered).bit_count()
        if not gain:
            continue
        if heap and (-gain, i) > heap[0]:
            heapq.heappush(heap, (-gain, i))
            continue
        picks.append(i)
        load[a] = load.get(a, 0) + 1
        full += load[a] == capacity
        uncovered &= ~masks[i]
    return picks


def default_iteration_cap(target: int) -> int:
    """Iterations at which a halving cover loop must reach a feasible target:
    ceil(log2(target)) + 1."""
    return (target - 1).bit_length() + 1 if target >= 1 else 1


def pm_cover_system(
    system: CoverageSystem,
    capacity: int,
    target: int | None,
    max_iterations: int | None = None,
) -> CoverSelection:
    """The iterated cover loop on a fixed system: run the greedy picker over
    the still-uncovered elements, accumulate, stop at the target or the
    iteration cap.  Every recorded selection takes at most ``capacity`` pairs
    from any anchor's part.

    With ``target=None`` (cover-all mode) a zero-gain iteration simply ends the
    loop; with a numeric target it raises, certifying the budget infeasible.
    """
    if max_iterations is None:
        if target is None:
            raise ValueError("cover-all mode needs an explicit max_iterations")
        max_iterations = default_iteration_cap(target)
    if max_iterations < 1:
        raise ValueError("max_iterations must be at least 1")
    if capacity < 0:
        raise ValueError("capacity must be nonnegative")
    total = len(system.elements)
    steps: list[Step] = []
    covered = peak_load = 0
    while len(steps) < max_iterations:
        count = covered.bit_count()
        if count == total or (target is not None and count >= target):
            break
        picks = sorted(greedy_matroid_max(system, capacity, covered))
        union = 0
        per_part: dict[int, int] = {}
        for i in picks:
            a = system.parts[i]
            per_part[a] = per_part.get(a, 0) + 1
            union |= system.masks[i]
        newly = union & ~covered
        peak_load = max(peak_load, *per_part.values(), 0)
        steps.append((picks, newly, per_part))
        if not newly:
            if target is not None:
                raise InfeasibleGuessError(
                    "coverage stalled: an iteration covered no new elements"
                )
            break
        covered |= newly
    return CoverSelection(system, steps, covered, peak_load)


def pm_cover(
    graph: Graph,
    root: int,
    A: Iterable[int],
    C: Iterable[int],
    elements: Iterable[Element],
    element_location: Mapping[Element, Iterable[int]],
    target: int | None,
    B: int,
    D: int,
    max_iterations: int | None = None,
    system: CoverageSystem | None = None,
) -> CoverSelection:
    """Iterated partition-matroid coverage across the (A, C) boundary.

    Builds the coverage instance once and runs `pm_cover_system` on it with
    capacity B: a pair's gain over the elements covered so far is what it
    would cover in an instance rebuilt over the uncovered ones.
    ``target=None`` keeps everything coverable within the iteration cap
    instead of aiming for a count.  ``system``, when given, is the instance
    these arguments build (a sweep row keeps it) and is used as is.
    """
    if target is not None and target < 1:
        raise ValueError("target must be at least 1 (or None for cover-all mode)")
    if system is None:
        system = build_coverage_instance(graph, A, C, elements, element_location, D, root)
    return pm_cover_system(system, B, target, max_iterations)


class CoverRow:
    """The cover work that reads only the graph, the (A, C) partition and the
    height budget D.  A sweep row keeps one and covers from it at every
    degree budget.

    The elements are the keys of ``element_location``, which maps each to
    its representative vertices: a terminal is its own only representative,
    a super-terminal has its packed tree's vertices.  Distinct elements have
    disjoint representatives.
    Nothing is computed until first asked for: the coverage system on the
    first cover, c's arcs on the first ``arcs(c)``.

    The row is the one place the degree budget B reaches, as the capacity of
    its covers, and the greedy reads the capacity only once a part holds that
    many picks.  So a cover whose ``peak_load`` stayed below B never met its
    capacity, and every budget above that ``peak_load`` replays the same
    picks: the row keeps the last such selection per (target,
    max_iterations) and returns it for those budgets without covering again.
    """

    def __init__(
        self,
        graph: Graph,
        root: int,
        A: Iterable[int],
        C: Iterable[int],
        element_location: Mapping[Element, Iterable[int]],
        D: int,
    ):
        self.graph, self.root, self.D = graph, root, D
        self.A, self.C = frozenset(A), frozenset(C)
        self.location = element_location
        self._arcs: dict[int, ArcKeys] = {}
        self._unbound: dict[tuple[int | None, int | None], CoverSelection] = {}

    @functools.cached_property
    def system(self) -> CoverageSystem:
        return build_coverage_instance(
            self.graph, self.A, self.C, self.location, self.location, self.D, self.root
        )

    @functools.cached_property
    def _owner(self) -> dict[int, Element]:
        return {w: e for e, reps in self.location.items() for w in reps}

    def cover(
        self, target: int | None, B: int, max_iterations: int | None = None
    ) -> CoverSelection:
        """`pm_cover` at degree budget B on this row's system, or the kept
        selection when B is above its ``peak_load``; callers share it and
        must not modify it."""
        key = (target, max_iterations)
        kept = self._unbound.get(key)
        if kept is not None and B > kept.peak_load:
            return kept
        selection = pm_cover(
            self.graph, self.root, self.A, self.C, self.location, self.location,
            target, B, self.D, max_iterations, system=self.system,
        )
        if selection.peak_load < B:
            self._unbound[key] = selection
        return selection

    def arcs(self, c: int) -> ArcKeys:
        """The keys of the arcs that realise c's coverage: the BFS paths in
        G[C] from c to the closest representative of each element within D
        hops."""
        keys = self._arcs.get(c)
        if keys is None:
            dist, parent = bfs_parents(self.graph, [c], restriction=self.C, max_depth=self.D)
            targets = [w for _, w in _closest_representatives(dist, self._owner).values()]
            paths = chain_parents(parent, targets)
            keys = self._arcs[c] = row_keys(self.graph, zip(paths.values(), paths))
        return keys


def _closest_representatives(
    dist: dict[int, int], owner: Mapping[int, Element]
) -> dict[Element, tuple[int, int]]:
    """Each element reached in ``dist`` -> (distance, vertex) of its closest
    representative, ties to the lowest vertex id.  ``owner`` maps a
    representative to its element."""
    closest: dict[Element, tuple[int, int]] = {}
    for w, d in dist.items():
        e = owner.get(w)
        if e is not None and (e not in closest or (d, w) < closest[e]):
            closest[e] = (d, w)
    return closest

