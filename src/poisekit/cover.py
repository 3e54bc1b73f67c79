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
"""

from __future__ import annotations

import functools
import heapq
from dataclasses import dataclass, field
from typing import Any, Callable, Hashable, Iterable, Mapping

from .errors import InfeasibleGuessError
from .graph import Graph, PoiseTree, bfs_parents, chain_parents, reach_labels

Element = Hashable
Pair = tuple[int, int]


@dataclass(frozen=True)
class CoverageSystem:
    """Ground elements plus (a, c, covered) pairs, unique and sorted by (a, c)."""

    ground: frozenset
    pairs: tuple[tuple[int, int, frozenset], ...]

    def __init__(self, ground: Iterable[Element], pairs: Iterable[tuple[int, int, frozenset]]):
        ground = frozenset(ground)
        dedup: dict[Pair, frozenset] = {}
        for a, c, covered in pairs:
            covered = frozenset(covered)
            if not covered <= ground:
                raise ValueError(f"pair ({a}, {c}) covers elements outside the ground set")
            if (a, c) in dedup:
                raise ValueError(f"duplicate pair ({a}, {c})")
            dedup[(a, c)] = covered
        object.__setattr__(self, "ground", ground)
        object.__setattr__(
            self, "pairs", tuple((a, c, dedup[(a, c)]) for a, c in sorted(dedup))
        )


@dataclass
class CoverSelection:
    """Accumulated boundary arcs, the elements they cover and the iteration
    log.  ``peak_load`` is the most pairs any one part took in one iteration:
    while it stays below the capacity, the capacity never bound a pick."""

    chosen: set[Pair]
    covered_elements: set
    iterations: int
    log: list[dict[str, Any]] = field(default_factory=list)
    peak_load: int = 0


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
    already_covered: Iterable[Element] = (),
) -> set[int]:
    """Greedy maximum coverage under the partition matroid whose parts are
    the pairs' anchors, each taking at most ``capacity`` pairs.

    Repeatedly adds the pair of largest marginal coverage whose part still has
    spare capacity, ties broken by (a, c) order; stops at zero marginal gain.
    The result covers at least half as much as any independent selection.

    Gains only shrink as coverage grows, so the scan is lazy (Minoux 1978): a
    heap holds each pair's last known gain, and a popped pair is re-evaluated
    and taken only if it still leads the heap.
    """
    if capacity < 0:
        raise ValueError("capacity must be nonnegative")
    pairs = system.pairs
    covered = set(already_covered)
    load: dict[int, int] = {}
    chosen: set[int] = set()
    heap = [(-g, i) for i, (_, _, cov) in enumerate(pairs) if (g := len(cov - covered))]
    heapq.heapify(heap)
    while heap:
        _, i = heapq.heappop(heap)
        a, _, cov = pairs[i]
        if load.get(a, 0) >= capacity:
            continue
        gain = len(cov - covered)
        if not gain:
            continue
        if heap and (-gain, i) > heap[0]:
            heapq.heappush(heap, (-gain, i))
            continue
        chosen.add(i)
        load[a] = load.get(a, 0) + 1
        covered |= cov
    return chosen


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
    selection = CoverSelection(chosen=set(), covered_elements=set(), iterations=0)
    covered = selection.covered_elements
    while selection.iterations < max_iterations:
        if target is not None and len(covered) >= target:
            break
        if len(covered) == len(system.ground):
            break
        picks = greedy_matroid_max(system, capacity, covered)
        newly: set = set()
        arcs = []
        per_part: dict[int, int] = {}
        for i in sorted(picks):
            a, c, cov = system.pairs[i]
            arcs.append((a, c))
            per_part[a] = per_part.get(a, 0) + 1
            newly |= cov
        newly -= covered
        selection.iterations += 1
        selection.peak_load = max(selection.peak_load, *per_part.values(), 0)
        selection.log.append(
            {
                "iteration": selection.iterations,
                "chosen": arcs,
                "covered": sorted(newly, key=repr),
                "per_part": per_part,
            }
        )
        if not newly:
            if target is not None and len(covered) < target:
                raise InfeasibleGuessError(
                    "coverage stalled: an iteration covered no new elements"
                )
            break
        selection.chosen.update(arcs)
        covered |= newly
    return selection


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
        self._arcs: dict[int, frozenset[Pair]] = {}

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
        """`pm_cover` at degree budget B on this row's system."""
        return pm_cover(
            self.graph, self.root, self.A, self.C, self.location, self.location,
            target, B, self.D, max_iterations, system=self.system,
        )

    def arcs(self, c: int) -> frozenset[Pair]:
        """The arcs that realise c's coverage: the BFS paths in G[C] from c to
        the closest representative of each element within D hops."""
        if c not in self._arcs:
            dist, parent = bfs_parents(self.graph, [c], restriction=self.C, max_depth=self.D)
            targets = [w for _, w in _closest_representatives(dist, self._owner).values()]
            self._arcs[c] = frozenset((p, v) for v, p in chain_parents(parent, targets).items())
        return self._arcs[c]


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


@dataclass(frozen=True)
class Solved:
    """One solve of a (B, D) cell: its tree, the largest `peak_load` of its
    covers (0 without a cover), and its trace (see the README's file
    formats)."""

    tree: PoiseTree
    peak: int
    trace: dict[str, Any]


class SaturatedTree:
    """A sweep row's tree once its degree budget no longer binds.

    A stage reads the degree budget B only as the capacity of its covers'
    partition matroid, and the greedy reads the capacity only once a part
    holds that many picks.  So when every cover of one solve peaked below B
    (`Solved.peak`), the capacity never bound, and every budget above that
    peak replays the same picks and builds the same tree.  A stage keeps that
    one tree and returns it for those budgets unsolved.
    """

    def __init__(self) -> None:
        self.peak = 0
        self.tree: PoiseTree | None = None

    def finish(self, B: int, solve: Callable[[int], Solved]) -> PoiseTree:
        """The tree at degree budget B; ``solve(B)`` solves the cell."""
        if self.tree is not None and B > self.peak:
            return self.tree
        solved = solve(B)
        if solved.peak < B:
            self.peak, self.tree = solved.peak, solved.tree
        return solved.tree
