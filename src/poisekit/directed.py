"""Greedy tree packing plus matroid coverage for directed (and undirected)
minimum-poise k-trees.

The solver guesses a (B, D) budget, greedily packs vertex-disjoint trees that
each hold exactly rho terminals within height D, and either stitches rho of
them to the root (many-trees case) or completes a partition with the iterated
matroid cover (few-trees case).  The packing, the paths from the region to
the packed trees and the cover row read only D and are kept per `Round`; the
degree budget B reaches only the cover.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Any, Iterable, Sequence

from .cover import CoverRow, CoverSelection
from .errors import InfeasibleGuessError
from .graph import (
    ArcKeys,
    Graph,
    MulticastInstance,
    PoiseGuess,
    PoiseTree,
    bfs_parents,
    chain_parents,
    reach_labels,
    require_keys,
    row_keys,
    shortest_path_tree,
    subset_bfs_parents,
)

Arc = tuple[int, int]


@dataclass
class GoodTree(PoiseTree):
    """A packed tree: a `PoiseTree` with the exactly-rho terminals it holds."""

    terminals: frozenset[int] = frozenset()


def coverage_tree(
    graph: Graph,
    C: Iterable[int],
    c: int,
    terminals: Iterable[int],
    rho: int,
    D: int,
) -> GoodTree | None:
    """The packed tree of candidate c: the rho terminals of smallest (distance,
    id) within D hops of c inside G[C] (c itself at distance 0) with their
    lowest-id BFS parent chains up to c, or None when fewer than rho lie
    within D.  The one BFS stops after the level of the rho-th terminal,
    where every distance and parent it keeps is final, so the tree is the
    full depth-D BFS tree trimmed to those rho terminals.
    """
    C = frozenset(C)
    if c not in C:
        raise ValueError("c must belong to C")
    terminals = frozenset(terminals)
    dist, parent = bfs_parents(graph, [c], restriction=C, max_depth=D, targets=(terminals, rho))
    reached = [v for v in dist if v in terminals]
    if len(reached) < rho:
        return None
    reached.sort(key=lambda v: (dist[v], v))
    kept = reached[:rho]
    return GoodTree(c, chain_parents(parent, kept), frozenset(kept))


def rho_good_vertices(
    graph: Graph,
    C: Iterable[int],
    terminals: Iterable[int],
    rho: int,
    D: int,
) -> frozenset[int]:
    """The vertices of C that reach at least rho terminals of C within D hops
    inside G[C], found in one `reach_labels` pass capped at rho instead of one
    BFS per vertex: O(rho * m) per screen."""
    if rho < 1:
        raise ValueError("rho must be at least 1")
    held = reach_labels(graph, C, {t: (t,) for t in terminals}, D, rho)
    return frozenset(v for v, have in held.items() if len(have) >= rho)


def greedy_packing(
    graph: Graph,
    start_C: Iterable[int],
    terminals: Iterable[int],
    rho: int,
    D: int,
    max_trees: int | None = None,
) -> tuple[list[GoodTree], frozenset[int], frozenset[int]]:
    """Extract rho-good trees from C until none remain, or until
    ``max_trees`` (a positive count) are out.

    Scans C once in ascending vertex order; each rho-good vertex's
    `coverage_tree` of exactly rho terminals moves its vertices from C into
    the packed set.  This extracts the same trees as restarting from the lowest
    id after each extraction: a vertex that is not rho-good in G[C] stays so
    when C shrinks.  For the same reason a `rho_good_vertices` screen of an
    earlier, larger C rules candidates out.  The first screen waits for the
    first candidate whose `coverage_tree` is None, and each later miss
    recomputes it: only the vertices the latest screen marks good are tried,
    so every screen follows exactly one miss.  A stopped packing is the
    prefix of the full one.  Returns (trees, packed vertices, final C); the
    final C is a rho-packing unless the scan stopped at ``max_trees``.
    """
    if rho < 1:
        raise ValueError("rho must be at least 1")
    if max_trees is not None and max_trees < 1:
        raise ValueError("max_trees must be at least 1")
    C = set(start_C)
    terminals = frozenset(terminals)
    packed: set[int] = set()
    trees: list[GoodTree] = []
    screen = None
    for c in sorted(C):
        if c not in C or (screen is not None and c not in screen):
            continue
        good = coverage_tree(graph, C, c, terminals, rho, D)
        if good is None:
            screen = rho_good_vertices(graph, C, terminals, rho, D)
            continue
        verts = good.vertices()
        C -= verts
        packed |= verts
        trees.append(good)
        if len(trees) == max_trees:
            break
    return trees, frozenset(packed), frozenset(C)


def _stitch_keys(graph: Graph, sources: Iterable[int], trees: Sequence[GoodTree]) -> ArcKeys:
    """The keys of the packed ``trees``' arcs and of the shortest paths from
    the sources to their roots, all parent arcs read off the graph's rows;
    raises InfeasibleGuessError when a root is unreachable."""
    if not trees:
        return ArcKeys()
    dist, parent = bfs_parents(graph, sources)
    for tr in trees:
        if tr.root not in dist:
            raise InfeasibleGuessError(
                f"packed-tree root {tr.root} is unreachable from the root region"
            )
    maps = [*(tr.parent for tr in trees), chain_parents(parent, [tr.root for tr in trees])]
    return row_keys(graph, [(p, v) for m in maps for v, p in m.items()])


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
    return shortest_path_tree(graph, _stitch_keys(graph, [root], trees[:rho]), root)


def _multi_source_spt_arcs(
    graph: Graph, arc_subset: ArcKeys, sources: Iterable[int]
) -> dict[int, int]:
    """A shortest-path forest over ``arc_subset`` rooted at the source set,
    as its parent map (lowest-id parent): the in-C part of a tree hung off
    a virtual root joined to every source.  It has a name of its own so that
    the benchmark's per-layer `cover.spt_forest_s` can time the forest."""
    return subset_bfs_parents(graph, arc_subset, sources)


def _cover_forest(graph: Graph, row: CoverRow, chosen: Iterable[Arc]) -> dict[int, int]:
    """The in-C arcs that realise a cover's picks, as a parent map: a
    shortest-path forest from the picked boundary vertices over the union
    of their row arcs."""
    chosen_cs = sorted({c for _, c in chosen})
    union = ArcKeys(frozenset().union(*[row.arcs(c) for c in chosen_cs]))
    return _multi_source_spt_arcs(graph, union, chosen_cs)


def complete(
    graph: Graph,
    root: int,
    base: ArcKeys,
    row: CoverRow,
    k_remaining: int,
    B: int,
    assembled: dict[frozenset[Arc], PoiseTree] | None = None,
) -> tuple[PoiseTree, CoverSelection | None]:
    """Finish a rho-additive partition at degree budget B: cover k_remaining
    terminals from ``row`` with the iterated matroid cover, add the picks and
    their in-C forest to the ``base`` keys (an `ArcKeys`, else TypeError),
    and return the shortest-path tree over the union with the cover's
    selection (None when no terminal was left to cover).

    The tree is a function of the picks alone, so ``assembled`` (one per
    base and row, `Round.assembled`) keeps each tree by its picks, the empty
    set when none were needed: a budget whose cover picks what another
    budget's did gets that budget's tree object, unbuilt.
    """
    require_keys(base)
    selection = None
    if k_remaining > 0:
        selection = row.cover(k_remaining, B)
        if selection.covered_mask.bit_count() < k_remaining:
            raise InfeasibleGuessError(
                "matroid cover hit its iteration cap below the coverage target"
            )
    chosen = selection.chosen if selection else frozenset()
    if assembled is None:
        assembled = {}
    if chosen not in assembled:
        H = base
        if chosen:
            # the picks are boundary pairs and the forest a BFS's parent
            # arcs, both read off the graph's rows
            forest = _cover_forest(graph, row, chosen)
            H = ArcKeys(H.union(row_keys(graph, [*chosen, *zip(forest.values(), forest)])))
        assembled[chosen] = shortest_path_tree(graph, H, root)
    return assembled[chosen], selection


class Round:
    """One packing round: trees of exactly rho terminals packed greedily
    inside C = V - R, and the additive partition they leave: A = R plus the
    packed vertices, and V - A, which holds no rho-good vertex.

    All of it reads only (R, the keys ``arcs`` of its arcs, D), so a sweep
    row keeps the round at R = {root} for every degree budget.  Its C,
    packing (``trees`` and ``packed``, always the full packing, whose final
    C is a rho-packing), base arcs and terminal cover row are built on first
    use; only the cover in `complete` reads the degree budget.  ``stitched``
    packs only the rho trees it stitches: a packing stopped there leaves a
    C that need not be a rho-packing, so it never stands in for the full
    one.  The trees it assembles are kept in ``assembled`` by the cover's
    picks, so budgets whose covers pick alike, every budget above an unbound
    cover's ``peak_load`` among them (`CoverRow`), share one tree object for
    as long as the round lives.

    The round at {root} is the directed stage (`stage_directed`): ``solve(B)``
    answers the guess (B, D) for the target ``k``, and ``trace(B)`` returns
    that same solve's tree with its trace (see the README's file formats).
    """

    def __init__(
        self, graph: Graph, root: int, R: Iterable[int], arcs: ArcKeys,
        terminals: Iterable[int], rho: int, D: int, k: int,
    ):
        self.graph, self.root, self.rho, self.D, self.k = graph, root, rho, D, k
        self.R, self.arcs, self.terminals = frozenset(R), arcs, frozenset(terminals)
        self.assembled: dict[frozenset[Arc], PoiseTree] = {}

    @functools.cached_property
    def C(self) -> frozenset[int]:
        return frozenset(self.graph.vertices()) - self.R

    @functools.cached_property
    def _packing(self) -> tuple[tuple[GoodTree, ...], frozenset[int]]:
        trees, packed, _ = greedy_packing(self.graph, self.C, self.terminals, self.rho, self.D)
        return tuple(trees), packed

    @property
    def trees(self) -> tuple[GoodTree, ...]:
        return self._packing[0]

    @property
    def packed(self) -> frozenset[int]:
        return self._packing[1]

    @functools.cached_property
    def base(self) -> ArcKeys:
        """The keys of R's arcs, the packed trees' arcs and the shortest
        paths from R to their roots (`_stitch_keys`)."""
        return ArcKeys(self.arcs.union(_stitch_keys(self.graph, self.R, self.trees)))

    @functools.cached_property
    def row(self) -> CoverRow:
        """The partition's cover row over the terminals in C, each its own
        only representative."""
        C = self.C - self.packed
        return CoverRow(
            self.graph, self.root, self.R | self.packed, C,
            {t: (t,) for t in sorted(self.terminals & C)}, self.D,
        )

    def complete(self, k_remaining: int, B: int) -> tuple[PoiseTree, CoverSelection | None]:
        """`complete` the partition at degree budget B: k_remaining terminals
        are still required, of which the packed trees hold some."""
        k_remaining -= len(self.packed & self.terminals)
        return complete(self.graph, self.root, self.base, self.row, k_remaining, B, self.assembled)

    @functools.cached_property
    def stitched(self) -> PoiseTree | None:
        """The first rho packed trees stitched to the root when there are
        that many, which then answers every degree budget, else None.
        Raises InfeasibleGuessError when a packed tree is unreachable.

        It packs only those rho trees.  A packing that stops short of rho
        was complete, so it becomes the round's packing; after a stop the
        full packing is built only when ``trees`` or ``packed`` is read."""
        trees, packed, _ = greedy_packing(
            self.graph, self.C, self.terminals, self.rho, self.D, self.rho
        )
        if len(trees) < self.rho:
            self._packing = tuple(trees), packed
            return None
        return solve_many_trees(self.graph, self.root, trees, self.rho)

    def solve(self, B: int) -> PoiseTree:
        if self.stitched is not None:
            return self.stitched
        return self.complete(self.k, B)[0]

    def trace(self, B: int) -> tuple[PoiseTree, dict[str, Any]]:
        trees = self.trees
        good = [{"root": t.root, "terminals": sorted(t.terminals)} for t in trees]
        sizes = {"trees": len(trees), "vertices": len(self.packed),
                 "terminals": sum(len(t.terminals) for t in trees)}
        trace = {"solver": "directed", "rho": self.rho, "good_trees": good, "packing": sizes}
        if self.stitched is not None:
            return self.stitched, trace | {"branch": "many-trees"}
        tree, selection = self.complete(self.k, B)
        return tree, trace | {
            "branch": "few-trees", "packed": sorted(self.packed),
            "pmcover": [] if selection is None else selection.log,
            "k_remaining": self.k - len(self.packed & self.terminals),
        }


def stage_directed(instance: MulticastInstance, D: int) -> Round:
    """The packing round at {root}: it packs rho-terminal trees within height
    D until rho are out and then stitches them to the root; when fewer
    exist it completes its partition at every degree budget.

    Expects a normalized instance already pruned to radius D.  Raises
    InfeasibleGuessError when stitching finds a packed tree unreachable, which
    makes every degree budget infeasible.
    """
    g, root, k = instance.graph, instance.root, instance.k
    rho = math.isqrt(k - 1) + 1  # ceil(sqrt(k)); check_k keeps k >= 1
    packing = Round(g, root, {root}, ArcKeys(), instance.terminals, rho, D, k)
    packing.stitched  # staged here: an unreachable packed root fails the whole row
    return packing


def solve_directed(instance: MulticastInstance, guess: PoiseGuess) -> PoiseTree:
    """Minimum-poise k-tree heuristic for a directed instance at one budget.

    Expects a normalized instance already pruned to radius guess.D.  Covers at
    least k terminals with out-degree at most (ceil(log2 k) + 1)*B + 2*ceil(sqrt k)
    and height at most 3*D + 1 whenever the guess dominates an optimal tree;
    otherwise raises InfeasibleGuessError.
    """
    return stage_directed(instance, guess.D).solve(guess.B)
