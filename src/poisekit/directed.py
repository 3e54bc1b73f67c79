"""Greedy tree packing plus matroid coverage for directed (and undirected)
minimum-poise k-trees.

The solver guesses a (B, D) budget, greedily packs vertex-disjoint trees that
each hold exactly rho terminals within height D, and either stitches rho of
them to the root (many-trees case) or completes a partition with the iterated
matroid cover (few-trees case).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Any, Iterable

from .cover import CoverSelection, pm_cover
from .errors import InfeasibleGuessError
from .graph import (
    Graph,
    MulticastInstance,
    PoiseGuess,
    PoiseTree,
    bfs_parents,
    path_arcs,
    shortest_path_tree,
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
    keep: set[int] = {c}
    for t in terminals:
        if t in dist:
            v = t
            while v not in keep:
                keep.add(v)
                v = parent[v]
    return PoiseTree(c, {v: parent[v] for v in keep if v != c})


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
    keep: set[int] = {tree.root}
    for t in kept_terms:
        v = t
        while v not in keep:
            keep.add(v)
            v = tree.parent[v]
    parent = {v: tree.parent[v] for v in keep if v != tree.root}
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
    when C shrinks.  Returns (trees, packed vertices, final C); the final C is
    a rho-packing.
    """
    if rho < 1:
        raise ValueError("rho must be at least 1")
    C = set(start_C)
    terminals = frozenset(terminals)
    packed: set[int] = set()
    trees: list[GoodTree] = []
    for c in sorted(C):
        if c not in C:
            continue
        tree = coverage_tree(graph, C, c, terminals, D)
        if len(_terminals_of(tree, terminals)) < rho:
            continue
        good = trim_to_terminals(tree, terminals, rho)
        verts = good.vertices()
        C -= verts
        packed |= verts
        trees.append(good)
    return trees, frozenset(packed), frozenset(C)


def _paths_to_tree_roots(
    graph: Graph, sources: Iterable[int], trees: Iterable[GoodTree]
) -> set[Arc]:
    dist, parent = bfs_parents(graph, sources)
    arcs: set[Arc] = set()
    for tr in trees:
        if tr.root_vertex not in dist:
            raise InfeasibleGuessError(
                f"packed-tree root {tr.root_vertex} is unreachable from the root region"
            )
        arcs.update(path_arcs(parent, tr.root_vertex))
    return arcs


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
    out: dict[int, list[int]] = {}
    inc: dict[int, list[int]] = {}
    for u, v in arc_subset:
        pairs = [(u, v)] if graph.directed else [(u, v), (v, u)]
        for a, b in pairs:
            out.setdefault(a, []).append(b)
            inc.setdefault(b, []).append(a)
    dist = {s: 0 for s in sources}
    queue = deque(sorted(dist))
    while queue:
        u = queue.popleft()
        for v in sorted(set(out.get(u, ()))):
            if v not in dist:
                dist[v] = dist[u] + 1
                queue.append(v)
    arcs: set[Arc] = set()
    for v, d in dist.items():
        if d == 0:
            continue
        arcs.add((min(u for u in set(inc.get(v, ())) if dist.get(u) == d - 1), v))
    return arcs


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
    trace: dict[str, Any] | None = None,
) -> PoiseTree:
    """Finish a rho-additive partition: cover k_remaining terminals of C via
    the iterated matroid cover and return the shortest-path tree over the
    assembled subgraph.

    ``root_region``/``region_arcs`` let a caller anchor A at an already-built
    region instead of the bare root (paths to packed-tree roots then start
    from the nearest region vertex and the region's arcs join the subgraph).
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
        elements = sorted(terminals & partition.C)
        location = {e: (e,) for e in elements}
        selection = pm_cover(
            graph, root, partition.A, partition.C, elements, location,
            target=k_remaining, B=B, D=D,
        )
        if len(selection.covered_elements) < k_remaining:
            raise InfeasibleGuessError(
                "matroid cover hit its iteration cap below the coverage target"
            )
        chosen_cs = sorted({c for _, c in selection.chosen})
        union: set[Arc] = set()
        for c in chosen_cs:
            union |= coverage_tree(graph, partition.C, c, elements, D).arcs()
        H |= selection.chosen
        H |= _multi_source_spt_arcs(graph, union, chosen_cs)
    if trace is not None:
        trace["pmcover"] = selection.log if selection is not None else []
        trace["k_remaining"] = k_remaining
    return shortest_path_tree(graph, H, root)


@dataclass(frozen=True)
class DirectedStage:
    """The directed solver's work that reads only the height budget D.

    On an instance pruned to radius D it holds the greedy packing and, when
    that yields at least rho trees, their stitched tree, which then answers
    every degree budget.  `finish` does the rest for one degree budget B.
    """

    instance: MulticastInstance
    D: int
    rho: int
    trees: tuple[GoodTree, ...]
    packed: frozenset[int]
    C: frozenset[int]
    stitched: PoiseTree | None

    def finish(self, B: int, trace: dict[str, Any] | None = None) -> PoiseTree:
        instance, trees, rho = self.instance, self.trees, self.rho
        if trace is not None:
            trace["solver"] = "directed"
            trace["rho"] = rho
            trace["good_trees"] = [
                {"root": t.root_vertex, "terminals": sorted(t.terminals)} for t in trees
            ]
            trace["packing"] = {
                "trees": len(trees),
                "vertices": len(self.packed),
                "terminals": sum(len(t.terminals) for t in trees),
            }
        if self.stitched is not None:
            if trace is not None:
                trace["branch"] = "many-trees"
            return self.stitched
        if trace is not None:
            trace["branch"] = "few-trees"
            trace["packed"] = sorted(self.packed)
        A = frozenset({instance.root} | self.packed)
        partition = AdditivePartition(A, self.C, trees, rho)
        k_remaining = instance.k - len(A & instance.terminals)
        return complete(
            instance.graph, partition, instance.root, k_remaining, B, self.D,
            instance.terminals, trace=trace,
        )


def stage_directed(instance: MulticastInstance, D: int) -> DirectedStage:
    """Pack rho-terminal trees within height D and, when there are at least
    rho of them, stitch them to the root.

    Expects a normalized instance already pruned to radius D.  Raises
    InfeasibleGuessError when stitching finds a packed tree unreachable, which
    makes every degree budget infeasible.
    """
    g = instance.graph
    k = instance.k
    rho = math.isqrt(k) if math.isqrt(k) ** 2 == k else math.isqrt(k) + 1
    trees, packed, C = greedy_packing(
        g, set(g.vertices()) - {instance.root}, instance.terminals, rho, D
    )
    stitched = solve_many_trees(g, instance.root, trees, rho) if len(trees) >= rho else None
    return DirectedStage(instance, D, rho, tuple(trees), packed, C, stitched)


def solve_directed(
    instance: MulticastInstance,
    guess: PoiseGuess,
    trace: dict[str, Any] | None = None,
) -> PoiseTree:
    """Minimum-poise k-tree heuristic for a directed instance at one budget.

    Expects a normalized instance already pruned to radius guess.D.  Covers at
    least k terminals with out-degree at most (ceil(log2 k) + 1)*B + 2*ceil(sqrt k)
    and height at most 3*D + 1 whenever the guess dominates an optimal tree;
    otherwise raises InfeasibleGuessError.
    """
    return stage_directed(instance, guess.D).finish(guess.B, trace)
