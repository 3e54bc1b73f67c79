"""Greedy tree packing plus matroid coverage for directed (and undirected)
minimum-poise k-trees.

The solver guesses a (B, D) budget, greedily packs vertex-disjoint trees that
each hold exactly rho terminals within height D, and either stitches rho of
them to the root (many-trees case) or completes a partition with the iterated
matroid cover (few-trees case).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .cover import CoverRow, CoverSelection, SaturatedTree, Solved
from .errors import InfeasibleGuessError
from .graph import (
    Graph,
    MulticastInstance,
    PoiseGuess,
    PoiseTree,
    bfs_parents,
    chain_parents,
    shortest_path_tree,
    subset_bfs_parents,
)

Arc = tuple[int, int]


@dataclass(frozen=True)
class GoodTree:
    """A packed tree: root q, its arcs, and the exactly-rho terminals it holds."""

    root_vertex: int
    edges: frozenset[Arc]
    terminals: frozenset[int]

    def vertices(self) -> set[int]:
        verts = {self.root_vertex}
        for u, v in self.edges:
            verts.update((u, v))
        return verts


@dataclass(frozen=True)
class AdditivePartition:
    """Disjoint (A, C) where A anchors the root plus the packed trees and C
    contains no rho-good vertex."""

    A: frozenset[int]
    C: frozenset[int]
    trees: tuple[GoodTree, ...]
    rho: int


def coverage_tree(
    graph: Graph,
    C: Iterable[int],
    c: int,
    terminals: Iterable[int],
    D: int,
) -> PoiseTree:
    """BFS tree of c inside the induced subgraph on C, truncated to depth D and
    pruned of branches holding no terminal.

    Leaves of the result are exactly the terminals within D hops of c in G[C];
    when there are none the result is the single vertex c.
    """
    C = frozenset(C)
    if c not in C:
        raise ValueError("c must belong to C")
    terminals = frozenset(terminals)
    dist, parent = bfs_parents(graph, [c], restriction=C, max_depth=D)
    return PoiseTree(c, chain_parents(parent, (t for t in terminals if t in dist)))


def _terminals_of(tree: PoiseTree, terminals: frozenset[int]) -> set[int]:
    return tree.vertices() & terminals


def is_rho_good(
    graph: Graph,
    C: Iterable[int],
    c: int,
    terminals: Iterable[int],
    rho: int,
    D: int,
) -> bool:
    """True when c reaches at least rho terminals within D hops inside G[C]."""
    tree = coverage_tree(graph, C, c, terminals, D)
    return len(_terminals_of(tree, frozenset(terminals))) >= rho


def rho_good_vertices(
    graph: Graph,
    C: Iterable[int],
    terminals: Iterable[int],
    rho: int,
    D: int,
) -> frozenset[int]:
    """The vertices of C that reach at least rho terminals of C within D hops
    inside G[C], found in one screen instead of one BFS per vertex.

    A level-synchronous reverse BFS from the terminals in C, D levels deep,
    where every terminal carries its own label and a vertex accepts a label
    only while it holds fewer than rho of them; each accepted (vertex, label)
    pair is forwarded once, so a screen costs O(rho * m).  No count below rho
    is missed: a vertex on a shortest path to a terminal that refuses the
    terminal's label is already full, and its rho labels reach every vertex
    before it on the path within the same depth.
    """
    C = frozenset(C)
    held: dict[int, set[int]] = {}
    frontier: dict[int, list[int]] = {}
    for t in terminals:
        if t in C:
            held[t] = {t}
            frontier[t] = [t]
    for _ in range(D):
        accepted: dict[int, list[int]] = {}
        for v, labels in frontier.items():
            for u in graph.in_neighbors(v):
                if u not in C:
                    continue
                have = held.get(u)
                if have is None:
                    have = held[u] = set()
                for t in labels:
                    if len(have) >= rho:
                        break
                    if t not in have:
                        have.add(t)
                        accepted.setdefault(u, []).append(t)
        frontier = accepted
    return frozenset(v for v, have in held.items() if len(have) >= rho)


def trim_to_terminals(tree: PoiseTree, terminals: Iterable[int], rho: int) -> GoodTree:
    """Keep the rho terminals of smallest (depth, id), drop the rest, and
    re-prune non-terminal leaves."""
    terminals = frozenset(terminals)
    depths = tree.depths()
    ranked = sorted(
        (v for v in tree.vertices() if v in terminals), key=lambda v: (depths[v], v)
    )
    if len(ranked) < rho:
        raise ValueError(f"tree holds {len(ranked)} terminals, cannot trim to {rho}")
    kept_terms = ranked[:rho]
    parent = chain_parents(tree.parent, kept_terms)
    return GoodTree(tree.root, frozenset((p, v) for v, p in parent.items()), frozenset(kept_terms))


def greedy_packing(
    graph: Graph,
    start_C: Iterable[int],
    terminals: Iterable[int],
    rho: int,
    D: int,
) -> tuple[list[GoodTree], frozenset[int], frozenset[int]]:
    """Extract rho-good trees from C until none remain.

    Scans C once in ascending vertex order; each rho-good vertex's coverage
    tree is trimmed to exactly rho terminals and its vertices move from C into
    the packed set.  This extracts the same trees as restarting from the lowest
    id after each extraction: a vertex that is not rho-good in G[C] stays so
    when C shrinks.  For the same reason a `rho_good_vertices` screen of an
    earlier, larger C rules candidates out: only the vertices it marks good
    get a coverage tree, and the screen is recomputed when one of them turns
    out no longer rho-good.  Returns (trees, packed vertices, final C); the
    final C is a rho-packing.
    """
    if rho < 1:
        raise ValueError("rho must be at least 1")
    C = set(start_C)
    terminals = frozenset(terminals)
    packed: set[int] = set()
    trees: list[GoodTree] = []
    screen = rho_good_vertices(graph, C, terminals, rho, D)
    for c in sorted(C):
        if c not in screen or c not in C:
            continue
        tree = coverage_tree(graph, C, c, terminals, D)
        if len(_terminals_of(tree, terminals)) < rho:
            screen = rho_good_vertices(graph, C, terminals, rho, D)
            continue
        good = trim_to_terminals(tree, terminals, rho)
        verts = good.vertices()
        C -= verts
        packed |= verts
        trees.append(good)
    return trees, frozenset(packed), frozenset(C)


def _paths_to_tree_roots(
    graph: Graph, sources: Iterable[int], trees: Sequence[GoodTree]
) -> set[Arc]:
    if not trees:
        return set()
    dist, parent = bfs_parents(graph, sources)
    for tr in trees:
        if tr.root_vertex not in dist:
            raise InfeasibleGuessError(
                f"packed-tree root {tr.root_vertex} is unreachable from the root region"
            )
    return {(p, v) for v, p in chain_parents(parent, [tr.root_vertex for tr in trees]).items()}


def solve_many_trees(
    graph: Graph, root: int, trees: list[GoodTree], rho: int
) -> PoiseTree:
    """Stitch the first rho packed trees to the root by shortest paths.

    The union has out-degree at most 2*rho and radius at most twice the height
    budget; the shortest-path tree over it keeps those bounds and contains at
    least rho^2 terminals.
    """
    if len(trees) < rho:
        raise ValueError(f"need at least rho={rho} trees, got {len(trees)}")
    chosen = trees[:rho]
    H: set[Arc] = set()
    for tr in chosen:
        H |= tr.edges
    H |= _paths_to_tree_roots(graph, [root], chosen)
    return shortest_path_tree(graph, H, root)


def _multi_source_spt_arcs(
    graph: Graph, arc_subset: set[Arc], sources: Iterable[int]
) -> set[Arc]:
    """Arcs of a shortest-path forest over ``arc_subset`` rooted at the source
    set (lowest-id parent), i.e. the in-C part of a tree hung off a virtual
    root joined to every source."""
    return {(p, v) for v, p in subset_bfs_parents(graph, arc_subset, sources).items()}


def _cover_forest(graph: Graph, row: CoverRow, chosen: Iterable[Arc]) -> set[Arc]:
    """The in-C arcs that realise a cover's picks: a shortest-path forest from
    the picked boundary vertices over the union of their row arcs."""
    chosen_cs = sorted({c for _, c in chosen})
    union: set[Arc] = set()
    for c in chosen_cs:
        union.update(row.arcs(c))
    return _multi_source_spt_arcs(graph, union, chosen_cs)


def complete(
    graph: Graph,
    partition: AdditivePartition,
    root: int,
    k_remaining: int,
    B: int,
    D: int,
    terminals: Iterable[int],
    root_region: Iterable[int] | None = None,
    region_arcs: Iterable[Arc] = (),
    row: CoverRow | None = None,
) -> tuple[PoiseTree, CoverSelection | None]:
    """Finish a rho-additive partition: cover k_remaining terminals of C via
    the iterated matroid cover and return the shortest-path tree over the
    assembled subgraph, with the cover's selection (None when no terminal
    was left to cover).

    ``root_region``/``region_arcs`` let a caller anchor A at an already-built
    region instead of the bare root (paths to packed-tree roots then start
    from the nearest region vertex and the region's arcs join the subgraph).
    ``row`` is the partition's terminal cover row (`Round.row`), when the
    caller keeps one across degree budgets; otherwise it is built here.
    """
    terminals = frozenset(terminals)
    region = frozenset(root_region) if root_region is not None else frozenset({root})
    if root not in region:
        raise ValueError("root must belong to the root region")
    H: set[Arc] = set(region_arcs)
    for tr in partition.trees:
        H |= tr.edges
    H |= _paths_to_tree_roots(graph, sorted(region), partition.trees)
    selection: CoverSelection | None = None
    if k_remaining > 0:
        if row is None:
            C = partition.C
            reps = {t: (t,) for t in sorted(terminals & C)}
            row = CoverRow(graph, root, partition.A, C, reps, D)
        selection = row.cover(k_remaining, B)
        if len(selection.covered_elements) < k_remaining:
            raise InfeasibleGuessError(
                "matroid cover hit its iteration cap below the coverage target"
            )
        H |= selection.chosen
        H |= _cover_forest(graph, row, selection.chosen)
    return shortest_path_tree(graph, H, root), selection


class Round:
    """One packing round: trees of exactly rho terminals packed greedily
    inside C, and the additive partition they leave, anchored at the region R
    plus the packed vertices.

    The solvers pack everything outside R.  All of it reads only (R, its arcs
    ``arcs``, D), so a sweep row keeps the round at R = {root} for every
    degree budget; the partition's terminal cover row is built on first use.
    """

    def __init__(
        self, graph: Graph, root: int, R: Iterable[int], arcs: Iterable[Arc],
        C: Iterable[int], terminals: Iterable[int], rho: int, D: int,
    ):
        self.graph, self.root, self.rho, self.D = graph, root, rho, D
        self.R, self.arcs, self.C = frozenset(R), arcs, frozenset(C)
        self.terminals = frozenset(terminals)
        trees, self.packed, _ = greedy_packing(graph, self.C, self.terminals, rho, D)
        self.trees = tuple(trees)
        A = self.R | self.packed
        self.partition = AdditivePartition(A, frozenset(graph.vertices()) - A, self.trees, rho)

    @functools.cached_property
    def row(self) -> CoverRow:
        """The partition's cover row over the terminals in C, each its own
        only representative: the row `complete` builds when given none."""
        C = self.partition.C
        return CoverRow(
            self.graph, self.root, self.partition.A, C,
            {t: (t,) for t in sorted(self.terminals & C)}, self.D,
        )

    def complete(self, k_remaining: int, B: int) -> Solved:
        """`complete` the partition at degree budget B: k_remaining terminals
        are still required, of which the packed trees hold some.  The trace
        holds the cover loop's log and the count left to cover."""
        k_remaining -= len(self.packed & self.terminals)
        tree, selection = complete(
            self.graph, self.partition, self.root, k_remaining, B, self.D, self.terminals,
            root_region=self.R, region_arcs=self.arcs, row=self.row,
        )
        log, peak = ([], 0) if selection is None else (selection.log, selection.peak_load)
        return Solved(tree, peak, {"pmcover": log, "k_remaining": k_remaining})


@dataclass(frozen=True)
class DirectedStage:
    """The directed solver's work that reads only the height budget D.

    On an instance pruned to radius D it holds the packing round at {root}
    and, when that yields at least rho trees, their stitched tree, which then
    answers every degree budget.  Otherwise `solve` completes the round's
    few-trees partition for one degree budget B; `finish` does so until the
    budget saturates (`SaturatedTree`).
    """

    instance: MulticastInstance
    D: int
    round: Round
    stitched: PoiseTree | None
    saturated: SaturatedTree = field(default_factory=SaturatedTree, compare=False)

    def finish(self, B: int) -> PoiseTree:
        return self.saturated.finish(B, self.solve)

    def solve(self, B: int) -> Solved:
        packing = self.round
        trees = packing.trees
        good = [{"root": t.root_vertex, "terminals": sorted(t.terminals)} for t in trees]
        sizes = {"trees": len(trees), "vertices": len(packing.packed),
                 "terminals": sum(len(t.terminals) for t in trees)}
        trace = {"solver": "directed", "rho": packing.rho, "good_trees": good, "packing": sizes}
        if self.stitched is not None:
            trace["branch"] = "many-trees"
            return Solved(self.stitched, 0, trace)
        trace["branch"] = "few-trees"
        trace["packed"] = sorted(packing.packed)
        solved = packing.complete(self.instance.k, B)
        return Solved(solved.tree, solved.peak, trace | solved.trace)


def stage_directed(instance: MulticastInstance, D: int) -> DirectedStage:
    """Pack rho-terminal trees within height D and, when there are at least
    rho of them, stitch them to the root; otherwise the round completes its
    partition at every degree budget.

    Expects a normalized instance already pruned to radius D.  Raises
    InfeasibleGuessError when stitching finds a packed tree unreachable, which
    makes every degree budget infeasible.
    """
    g, root, k = instance.graph, instance.root, instance.k
    rho = math.isqrt(k) if math.isqrt(k) ** 2 == k else math.isqrt(k) + 1
    packing = Round(g, root, {root}, (), set(g.vertices()) - {root}, instance.terminals, rho, D)
    trees = list(packing.trees)
    stitched = solve_many_trees(g, root, trees, rho) if len(trees) >= rho else None
    return DirectedStage(instance, D, packing, stitched)


def solve_directed(instance: MulticastInstance, guess: PoiseGuess) -> PoiseTree:
    """Minimum-poise k-tree heuristic for a directed instance at one budget.

    Expects a normalized instance already pruned to radius guess.D.  Covers at
    least k terminals with out-degree at most (ceil(log2 k) + 1)*B + 2*ceil(sqrt k)
    and height at most 3*D + 1 whenever the guess dominates an optimal tree;
    otherwise raises InfeasibleGuessError.
    """
    return stage_directed(instance, guess.D).finish(guess.B)
