"""Undirected minimum-poise k-trees via super-terminal contraction.

The solver grows a covered region R from the root.  Each round it packs small
trees of exactly ceil(t^(1/3)) terminals; if fewer than that many exist the
partition completes directly, otherwise the small trees contract into
super-terminals that are either aggregated by one large tree or covered by the
iterated matroid cover, discarding a t^(2/3)-sized terminal batch per round.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Any, Iterable

from .cover import CoverRow, SaturatedTree, Solved, _closest_representatives
from .directed import GoodTree, Round, _cover_forest
from .errors import InfeasibleGuessError
from .graph import (
    Graph,
    MulticastInstance,
    PoiseGuess,
    PoiseTree,
    bfs_parents,
    chain_parents,
    shortest_path_tree,
)

Arc = tuple[int, int]


@dataclass(frozen=True)
class SuperTerminal:
    """A contracted small tree: coverable through any of its vertices."""

    id: int
    tree: GoodTree
    representatives: frozenset[int]


@dataclass
class CoveredRegion:
    """The root region grown so far and its oriented arcs.  ``keys`` holds
    each arc's undirected edge (`_edge_key`); `_merge_arcs`, which grows the
    arcs, keeps it in step."""

    R: set[int]
    arcs: set[Arc] = field(default_factory=set)
    keys: set[Arc] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.keys = {_edge_key(a) for a in self.arcs}


def _edge_key(arc: Arc) -> Arc:
    """The undirected edge of an arc: its endpoints in ascending order."""
    u, v = arc
    return (u, v) if u < v else (v, u)


def _ceil_cbrt(t: int) -> int:
    r = 1
    while r * r * r < t:
        r += 1
    return r


def _ceil_log2(x: int) -> int:
    return (x - 1).bit_length() if x >= 1 else 0


def small(
    graph: Graph,
    C: Iterable[int],
    terminals: Iterable[int],
    t: int,
    k_remaining: int,
    B: int,
    D: int,
    root: int,
) -> PoiseTree | list[GoodTree]:
    """Pack trees of exactly ceil(t^(1/3)) terminals inside C.

    When fewer than that many trees exist the packing is an additive
    partition anchored at the root plus the packed vertices, so the cover
    completion finishes the whole job and the finished tree is returned.
    Otherwise the packed trees come back for contraction.

    The solver does not call this: its first iteration is the stage's
    `SuperRound`.  It stays as the first iteration on its own, for the tests
    and for the benchmark's tracer, which counts calls to it.
    """
    packing = Round(graph, root, {root}, (), C, terminals, _ceil_cbrt(t), D)
    if len(packing.trees) >= packing.rho:
        return list(packing.trees)
    return packing.complete(k_remaining, B).tree


def find_good_vertex_wrt_super(
    graph: Graph,
    C: Iterable[int],
    supers: list[SuperTerminal],
    threshold: int,
    D: int,
) -> tuple[int, PoiseTree] | None:
    """First vertex of C (ascending) reaching ``threshold`` super-terminals
    within D hops in G[C], together with the tree aggregating them.

    Distance to a super-terminal is the minimum over its representatives; the
    aggregate tree joins the BFS path to the closest representative of each of
    the first ``threshold`` reached supers with those supers' own edges.
    """
    if not supers:
        raise ValueError("supers must be nonempty")
    C = frozenset(C)
    owner = {w: s.id for s in supers for w in s.representatives}
    by_id = {s.id: s for s in supers}
    for v in sorted(C):
        dist, parent = bfs_parents(graph, [v], restriction=C, max_depth=D)
        closest = _closest_representatives(dist, owner)
        if len(closest) < threshold:
            continue
        chosen = sorted((d, i, w) for i, (d, w) in closest.items())[:threshold]
        union = {(p, u) for u, p in chain_parents(parent, [w for _, _, w in chosen]).items()}
        for _, i, _ in chosen:
            union |= by_id[i].tree.edges
        return v, shortest_path_tree(graph, union, v)
    return None


def _merge_arcs(region: CoveredRegion, groups: Iterable[Iterable[Arc]]) -> list[Arc]:
    """Append arcs to the region, one orientation per undirected edge, in
    group order; returns the freshly added arcs."""
    keys = region.keys
    added: list[Arc] = []
    for group in groups:
        for arc in group:
            key = _edge_key(arc)
            if key in keys:
                continue
            keys.add(key)
            added.append(arc)
    region.arcs.update(added)
    for p, c in added:
        region.R.update((p, c))
    return added


def _degree_deltas(added: Iterable[Arc], r_before: frozenset[int]) -> tuple[int, int]:
    """(max delta inside R, max delta outside R), attributing each added arc
    to its region-nearer endpoint (the arc's stored parent)."""
    delta: dict[int, int] = {}
    for p, _ in added:
        delta[p] = delta.get(p, 0) + 1
    d_r = max((d for v, d in delta.items() if v in r_before), default=0)
    d_c = max((d for v, d in delta.items() if v not in r_before), default=0)
    return d_r, d_c


class SuperRound(Round):
    """An undirected packing round outside the covered region R.  When it
    packs at least rho trees they contract into super-terminals, searched
    for a vertex aggregating rho of them, joined to R when found, or else
    covered from the super-terminal row; each of these is built on first
    use.  R is the region when the round was packed, so a stage's first
    round serves every degree budget's first iteration."""

    @functools.cached_property
    def supers(self) -> list[SuperTerminal]:
        return [SuperTerminal(i, tr, frozenset(tr.vertices())) for i, tr in enumerate(self.trees)]

    @functools.cached_property
    def found(self) -> tuple[int, PoiseTree] | None:
        return find_good_vertex_wrt_super(self.graph, self.C, self.supers, self.rho, self.D)

    @functools.cached_property
    def aggregate(self) -> tuple[list[Arc], list[Arc]]:
        """The arcs that join the found tree to R: the BFS path from R to its
        nearest vertex, then the tree's own arcs, sorted.  Raises
        InfeasibleGuessError when no vertex of the tree is reachable."""
        _, big = self.found
        dist, parent = bfs_parents(self.graph, sorted(self.R))
        candidates = [(dist[w], w) for w in big.vertices() if w in dist]
        if not candidates:
            raise InfeasibleGuessError("aggregated tree unreachable from the region")
        _, attach = min(candidates)
        path = [(p, u) for u, p in chain_parents(parent, [attach]).items()]
        return path, sorted(big.arcs())

    @functools.cached_property
    def super_row(self) -> CoverRow:
        """The cover row over the super-terminals, each represented by its
        packed tree's vertices."""
        return CoverRow(
            self.graph, self.root, self.R, self.C,
            {s.id: s.representatives for s in self.supers}, self.D,
        )


@dataclass(frozen=True)
class UndirectedStage:
    """The undirected solver's work that reads only the height budget D.

    On an instance pruned to radius D it holds the first iteration's round,
    packed while the region is just the root, with its super-terminal
    search, aggregation path and cover rows.  `solve` runs the iterations
    for one degree budget B, and `finish` does so until the budget
    saturates (`SaturatedTree`); each later iteration packs a fresh round
    outside the region grown so far.  The final tree is a function of the
    region's arcs alone, so ``assembled`` keeps each by those arcs: budgets
    that grow the same region share one tree object for as long as the
    stage lives.
    """

    instance: MulticastInstance
    D: int
    first: SuperRound
    saturated: SaturatedTree = field(default_factory=SaturatedTree, compare=False)
    assembled: dict[frozenset[Arc], PoiseTree] = field(
        default_factory=dict, compare=False, repr=False
    )

    def finish(self, B: int) -> PoiseTree:
        return self.saturated.finish(B, self.solve)

    def solve(self, B: int) -> Solved:
        instance, D = self.instance, self.D
        g = instance.graph
        root, k = instance.root, instance.k
        t = len(instance.terminals)
        rho = _ceil_cbrt(t)
        region = CoveredRegion(R={root})
        s_prime = set(instance.terminals)
        k_rem = k
        log: list[dict[str, Any]] = []
        trace = {"solver": "undirected", "rho": rho, "iterations": log}
        detail: list[dict[str, Any]] = []
        small_trace: dict[str, Any] = {}
        peak = 0
        iteration = 0
        while k_rem > 0:
            iteration += 1
            if iteration > t + 2:
                raise InfeasibleGuessError("no progress across iterations")
            if k_rem > len(s_prime):
                raise InfeasibleGuessError(
                    f"{len(s_prime)} terminals remain but {k_rem} are still required"
                )
            packing = self.first if iteration == 1 else SuperRound(
                g, root, region.R, frozenset(region.arcs), set(g.vertices()) - region.R,
                s_prime, rho, D,
            )
            if len(packing.trees) < rho:
                solved = packing.complete(k_rem, B)
                log.append(_small_record(iteration, solved.tree, region, s_prime))
                tree, small_trace = solved.tree, solved.trace
                peak = max(peak, solved.peak)
                break
            supers = packing.supers
            r_before = frozenset(region.R)
            if packing.found is not None:
                _, big = packing.found
                added = _merge_arcs(region, packing.aggregate)
                covered = big.vertices() & s_prime
                discarded = set(covered)
                branch = "large"
            else:
                row = packing.super_row
                cap = min(_ceil_log2(k), _ceil_log2(len(supers))) + 1
                selection = row.cover(None, B, cap)
                peak = max(peak, selection.peak_load)
                covered_ids = sorted(selection.covered_elements)
                t_c = _cover_forest(g, row, selection.chosen)
                covered_tree_arcs: list[Arc] = []
                covered: set[int] = set()
                for i in covered_ids:
                    covered_tree_arcs.extend(sorted(supers[i].tree.edges))
                    covered |= supers[i].tree.terminals
                added = _merge_arcs(
                    region, [sorted(selection.chosen), sorted(t_c), covered_tree_arcs]
                )
                discarded = s_prime & set().union(*(tr.terminals for tr in packing.trees))
                branch = "pmcover"
            if not covered and not discarded:
                raise InfeasibleGuessError("iteration neither covered nor discarded terminals")
            detail.append({"iter": iteration, "branch": branch, "covered_terminals": sorted(covered),
                           "discarded_terminals": sorted(discarded)})
            s_prime -= discarded
            k_rem -= len(covered)
            d_r, d_c = _degree_deltas(added, r_before)
            log.append({
                "iter": iteration, "branch": branch, "supers": len(supers), "covered": len(covered),
                "discarded": len(discarded), "max_degree_delta_R": d_r, "max_degree_delta_C": d_c,
            })
        else:  # every required terminal is covered
            arcs = frozenset(region.arcs)
            if arcs not in self.assembled:
                self.assembled[arcs] = shortest_path_tree(g, arcs, root)
            tree = self.assembled[arcs]
        if detail:
            trace["detail"] = detail
        return Solved(tree, peak, trace | small_trace)


def stage_undirected(instance: MulticastInstance, D: int) -> UndirectedStage:
    """Pack the first iteration's round, which reads only the height budget.
    Expects a normalized instance pruned to radius D."""
    g = instance.graph
    if g.directed:
        raise ValueError("the undirected solver requires an undirected graph")
    root, terminals = instance.root, instance.terminals
    first = SuperRound(
        g, root, {root}, (), set(g.vertices()) - {root}, terminals, _ceil_cbrt(len(terminals)), D
    )
    return UndirectedStage(instance, D, first)


def solve_undirected(instance: MulticastInstance, guess: PoiseGuess) -> PoiseTree:
    """Minimum-poise k-tree heuristic for an undirected instance at one budget.

    Expects a normalized instance pruned to radius guess.D.  Iterates small-tree
    packing, large-tree aggregation and matroid covering of super-terminals;
    covers at least k terminals with max degree
    (ceil(log2 k) + 1) * B * ceil(t^(1/3)) + 2*ceil(t^(1/3)) + 2 whenever the
    budget dominates an optimal tree, else raises InfeasibleGuessError.
    """
    return stage_undirected(instance, guess.D).finish(guess.B)


def _small_record(
    iteration: int,
    tree: PoiseTree,
    region: CoveredRegion,
    s_prime: set[int],
) -> dict[str, Any]:
    keys = region.keys
    added = [a for a in tree.arcs() if _edge_key(a) not in keys]
    d_r, d_c = _degree_deltas(added, frozenset(region.R))
    covered = len(tree.vertices() & s_prime)
    return {
        "iter": iteration, "branch": "small", "supers": 0, "covered": covered,
        "discarded": covered, "max_degree_delta_R": d_r, "max_degree_delta_C": d_c,
    }
