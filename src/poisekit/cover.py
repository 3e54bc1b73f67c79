"""Maximum coverage under a partition matroid, and the iterated cover loop.

Coverage instances pair boundary arcs (a, c) with the element set reachable
from c inside the far side of the partition.  The greedy picker is a
1/2-approximation for maximum coverage under one matroid constraint; the
iterated loop re-runs it on the uncovered remainder, which halves the
shortfall each round.  The system is built once per (A, C, D); a sweep
keeps it for a whole row of degree budgets in a `CoverRow`.
"""

from __future__ import annotations

import functools
import heapq
from dataclasses import dataclass, field
from typing import Any, Callable, Hashable, Iterable, Mapping

from .errors import InfeasibleGuessError
from .graph import Graph, PoiseTree, bfs_distances, bfs_parents, chain_parents

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


@dataclass(frozen=True)
class PartitionMatroid:
    """Pair indices partitioned by their A-side anchor, uniform capacity."""

    parts: tuple[tuple[int, tuple[int, ...]], ...]
    capacity: int

    def __init__(self, parts: Mapping[int, Iterable[int]], capacity: int):
        if capacity < 0:
            raise ValueError("capacity must be nonnegative")
        seen: set[int] = set()
        norm = []
        for a in sorted(parts):
            idxs = tuple(sorted(parts[a]))
            if seen & set(idxs):
                raise ValueError("matroid parts must be disjoint")
            seen.update(idxs)
            norm.append((a, idxs))
        object.__setattr__(self, "parts", tuple(norm))
        object.__setattr__(self, "capacity", capacity)

    @classmethod
    def for_system(cls, system: CoverageSystem, capacity: int) -> "PartitionMatroid":
        parts: dict[int, list[int]] = {}
        for i, (a, _, _) in enumerate(system.pairs):
            parts.setdefault(a, []).append(i)
        return cls(parts, capacity)

    def part_of(self) -> dict[int, int]:
        """Pair index -> anchor vertex of its part."""
        owner = {}
        for a, idxs in self.parts:
            for i in idxs:
                owner[i] = a
        return owner

    def covers_all_indices(self, count: int) -> bool:
        return sorted(i for _, idxs in self.parts for i in idxs) == list(range(count))


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
    inside the induced subgraph on C.
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
    located: dict[int, list[Element]] = {}
    for e in elements:
        for w in element_location[e]:
            located.setdefault(w, []).append(e)
    covered_from: dict[int, frozenset] = {}
    pairs = []
    for a, c in sorted(boundary):
        if c not in covered_from:
            reach = bfs_distances(graph, [c], restriction=C, max_depth=D)
            covered_from[c] = frozenset(e for w in reach for e in located.get(w, ()))
        pairs.append((a, c, covered_from[c]))
    return CoverageSystem(elements, pairs)


def greedy_matroid_max(
    system: CoverageSystem,
    matroid: PartitionMatroid,
    already_covered: Iterable[Element] = (),
) -> set[int]:
    """Greedy maximum coverage under the partition matroid.

    Repeatedly adds the pair of largest marginal coverage whose part still has
    spare capacity, ties broken by (a, c) order; stops at zero marginal gain.
    The result covers at least half as much as any independent selection.

    Gains only shrink as coverage grows, so the scan is lazy (Minoux 1978): a
    heap holds each pair's last known gain, and a popped pair is re-evaluated
    and taken only if it still leads the heap.
    """
    if not matroid.covers_all_indices(len(system.pairs)):
        raise ValueError("matroid must index exactly the system's pairs")
    owner = matroid.part_of()
    covered = set(already_covered)
    load: dict[int, int] = {}
    chosen: set[int] = set()
    heap = [(-g, i) for i, (_, _, cov) in enumerate(system.pairs) if (g := len(cov - covered))]
    heapq.heapify(heap)
    while heap:
        _, i = heapq.heappop(heap)
        if load.get(owner[i], 0) >= matroid.capacity:
            continue
        cov = system.pairs[i][2]
        gain = len(cov - covered)
        if not gain:
            continue
        if heap and (-gain, i) > heap[0]:
            heapq.heappush(heap, (-gain, i))
            continue
        chosen.add(i)
        load[owner[i]] = load.get(owner[i], 0) + 1
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
    matroid = PartitionMatroid.for_system(system, capacity)
    selection = CoverSelection(chosen=set(), covered_elements=set(), iterations=0)
    covered = selection.covered_elements
    while selection.iterations < max_iterations:
        if target is not None and len(covered) >= target:
            break
        if len(covered) == len(system.ground):
            break
        picks = greedy_matroid_max(system, matroid, covered)
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
