"""Undirected minimum-poise k-trees via super-terminal contraction.

The solver grows a covered region R from the root.  Each round is the
directed solver's `Round` outside R: it packs small trees of exactly
ceil(t^(1/3)) terminals in V - R; if fewer than that many exist the partition
completes directly, otherwise each packed `GoodTree` is a super-terminal,
reachable through any of its vertices.  Rho of them are either aggregated by
one large tree or covered by the iterated matroid cover, discarding a
t^(2/3)-sized terminal batch per round.
"""

from __future__ import annotations

import functools
from collections import Counter
from typing import Any, Iterable, Sequence

from .cover import CoverRow, CoverSelection, _closest_representatives, default_iteration_cap
from .directed import GoodTree, Round, _cover_forest
from .errors import InfeasibleGuessError
from .graph import (
    ArcKeys,
    Graph,
    MulticastInstance,
    PoiseGuess,
    PoiseTree,
    _keys,
    bfs_parents,
    chain_parents,
    reach_labels,
    row_keys,
    shortest_path_tree,
)

Arc = tuple[int, int]


def _ceil_cbrt(t: int) -> int:
    r = 1
    while r * r * r < t:
        r += 1
    return r


def small(
    graph: Graph,
    terminals: Iterable[int],
    t: int,
    k_remaining: int,
    B: int,
    D: int,
    root: int,
) -> PoiseTree | list[GoodTree]:
    """Pack trees of exactly ceil(t^(1/3)) terminals in V - {root}.

    When fewer than that many trees exist the packing is an additive
    partition anchored at the root plus the packed vertices, so the cover
    completion does the whole job and its tree is returned.  Otherwise the
    packed trees come back for contraction.

    The solver does not call this: its first iteration is the stage, a
    `SuperRound`.  It stays as the first iteration on its own, for the tests
    and for the benchmark's tracer, which counts calls to it.
    """
    packing = Round(graph, root, {root}, ArcKeys(), terminals, _ceil_cbrt(t), D, k_remaining)
    if len(packing.trees) >= packing.rho:
        return list(packing.trees)
    return packing.complete(k_remaining, B)[0]


def find_good_vertex_wrt_super(
    graph: Graph,
    C: Iterable[int],
    trees: Sequence[GoodTree],
    threshold: int,
    D: int,
) -> PoiseTree | None:
    """The tree aggregating ``threshold`` super-terminals within D hops in
    G[C], rooted at the first vertex of C (ascending) that reaches that many,
    or None when no vertex does.  Super-terminal i is the packed tree
    ``trees[i]``, represented by its vertices.

    Distance to a super-terminal is the minimum over its representatives; the
    aggregate tree joins the BFS path to the closest representative of each of
    the first ``threshold`` reached supers with those supers' own edges.

    The lowest vertex of C is tried first with one BFS, since it usually
    succeeds when any vertex does: a sweep of the 20x20 grid with t=40, k=20,
    seed 2 searches 43 times and 42 end there.  Otherwise one `reach_labels`
    pass capped at ``threshold`` screens all of C, in O(threshold * m)
    instead of one BFS per vertex, and marks exactly the vertices reaching
    ``threshold`` supers.  With vertex-disjoint supers, as packing gives, the
    lowest marked vertex succeeds, so a search makes at most two BFSes; a
    representative shared between supers can only over-count, so a marked
    vertex that fails is passed over.
    """
    if not trees:
        raise ValueError("trees must be nonempty")
    C = frozenset(C)
    if not C:
        return None
    location = {i: tr.vertices() for i, tr in enumerate(trees)}
    owner = {w: i for i, reps in location.items() for w in reps}

    def aggregate(v: int) -> PoiseTree | None:
        dist, parent = bfs_parents(graph, [v], restriction=C, max_depth=D)
        closest = _closest_representatives(dist, owner)
        if len(closest) < threshold:
            return None
        chosen = sorted((d, i, w) for i, (d, w) in closest.items())[:threshold]
        paths = chain_parents(parent, [w for _, _, w in chosen])
        # the BFS's and the packed trees' parent arcs, read off the graph's rows
        union = [(p, u) for m in (paths, *(trees[i].parent for _, i, _ in chosen))
                 for u, p in m.items()]
        return shortest_path_tree(graph, row_keys(graph, union), v)

    first = min(C)
    tree = aggregate(first)
    if tree is not None:
        return tree
    held = reach_labels(graph, C, location, D, threshold)
    marked = sorted(v for v, have in held.items() if len(have) >= threshold and v != first)
    return next((tree for tree in map(aggregate, marked) if tree is not None), None)


def _merge_arcs(
    graph: Graph, region: ArcKeys, groups: Iterable[Iterable[Arc]]
) -> tuple[list[Arc], set[int]]:
    """The arcs of ``groups`` whose edge is not in ``region`` yet, in group
    order, each edge once, in the orientation it is first seen in, and
    their keys."""
    arcs = [arc for group in groups for arc in group]
    added: list[Arc] = []
    seen: set[int] = set()
    for arc, key in zip(arcs, _keys(graph.n, graph.directed, arcs)):
        if key not in region and key not in seen:
            seen.add(key)
            added.append(arc)
    return added, seen


class SuperRound(Round):
    """An undirected packing round outside the covered region R, and the
    region the iteration before it left: the arcs that iteration ``added``
    to R, in merge order, and the terminals it ``covered`` (both empty in
    the first round).  When the round packs at least rho trees, each packed
    tree is a super-terminal: ``found`` is the tree aggregating rho of them,
    rooted at the first vertex of C that reaches that many, or None.  A found
    tree is joined to R; otherwise the supers are covered from the
    super-terminal row.  Each of these is built on first use, as are the
    `Round`'s C and packing and the ``cap`` on the cover's iterations, so a
    walk whose answer is a round's region never packs that round.

    The region's ``arcs`` are the keys of its edges: the previous round's
    and those `_merge_arcs` gives ``added``, unchecked, since each added arc
    is read off the graph's rows (BFS parents, boundary pairs, packed trees).
    The round reads no degree budget: its cover does, and the next round is
    a function of this one and what the cover picked.  ``steps`` keeps each
    next round by those picks (None for the budget-free aggregation), so
    every degree budget of a row walks one shared tree of rounds from the
    stage's first.  A round holds no reference back to the round before it,
    so a stage's rounds are freed as soon as the stage is.

    The first round, at R = {root}, is the undirected stage
    (`stage_undirected`): ``solve(B)`` and ``trace(B)`` take one `_walk` of
    the rounds for the target ``k``, which is at least 1, so a walk either
    takes a step or completes a round's partition directly.
    """

    def __init__(
        self, graph: Graph, root: int, R: frozenset[int], arcs: ArcKeys,
        terminals: Iterable[int], rho: int, D: int, k: int, added: tuple[Arc, ...] = (),
        covered: frozenset[int] = frozenset(),
    ):
        super().__init__(graph, root, R, arcs, terminals, rho, D, k)
        self.added, self.covered = added, covered
        self.steps: dict[frozenset[Arc] | None, SuperRound] = {}

    @functools.cached_property
    def cap(self) -> int:
        return min(default_iteration_cap(self.k), default_iteration_cap(len(self.trees)))

    @functools.cached_property
    def tree(self) -> PoiseTree:
        """The shortest-path tree from the root over the region's arcs: the
        answer of a walk that ends in this round."""
        return shortest_path_tree(self.graph, self.arcs, self.root)

    @functools.cached_property
    def found(self) -> PoiseTree | None:
        return find_good_vertex_wrt_super(self.graph, self.C, self.trees, self.rho, self.D)

    @functools.cached_property
    def super_row(self) -> CoverRow:
        """The cover row over the super-terminals, each represented by its
        packed tree's vertices."""
        return CoverRow(
            self.graph, self.root, self.R, self.C,
            {i: tr.vertices() for i, tr in enumerate(self.trees)}, self.D,
        )

    def step(self, B: int) -> SuperRound:
        """The round this iteration leaves at degree budget B.  Only the
        cover runs per budget; the next round is built once per distinct
        picks."""
        if self.found is not None:
            key, selection = None, None
        else:
            selection = self.super_row.cover(None, B, self.cap)
            key = selection.chosen
        if key not in self.steps:
            self.steps[key] = self._aggregated() if selection is None else self._covered(selection)
        return self.steps[key]

    def _aggregated(self) -> SuperRound:
        """Join the found tree to R: the BFS path from R to its nearest
        vertex, then the tree's own arcs, sorted.  Raises
        InfeasibleGuessError when no vertex of the tree is reachable."""
        big = self.found
        dist, parent = bfs_parents(self.graph, sorted(self.R))
        candidates = [(dist[w], w) for w in big.vertices() if w in dist]
        if not candidates:
            raise InfeasibleGuessError("aggregated tree unreachable from the region")
        _, attach = min(candidates)
        path = [(p, u) for u, p in chain_parents(parent, [attach]).items()]
        covered = big.vertices() & self.terminals
        return self._advance([path, sorted(big.arcs())], covered, covered)

    def _covered(self, selection: CoverSelection) -> SuperRound:
        forest = _cover_forest(self.graph, self.super_row, selection.chosen)
        t_c = sorted([(p, v) for v, p in forest.items()])
        reached = [self.trees[i] for i in sorted(selection.covered_elements)]
        groups = [sorted(selection.chosen), t_c, *(sorted(tr.arcs()) for tr in reached)]
        covered = {v for tr in reached for v in tr.terminals}
        discarded = {v for tr in self.trees for v in tr.terminals if v in self.terminals}
        return self._advance(groups, covered, discarded)

    def _advance(
        self, groups: Iterable[Iterable[Arc]], covered: set[int],
        discarded: set[int] | frozenset[int],
    ) -> SuperRound:
        """The round that joins ``groups``' arcs to the region and retires
        the discarded terminals."""
        if not covered and not discarded:
            raise InfeasibleGuessError("iteration neither covered nor discarded terminals")
        added, keys = _merge_arcs(self.graph, self.arcs, groups)
        return SuperRound(
            self.graph, self.root, self.R.union(*added), ArcKeys(self.arcs.union(keys)),
            self.terminals - discarded, self.rho, self.D, self.k, tuple(added), frozenset(covered),
        )

    def _record(
        self, it: int, branch: str, supers: int, added: Iterable[Arc], covered: int,
        discarded: int,
    ) -> dict[str, Any]:
        """The trace record of iteration ``it``, which joins ``added`` to this
        round's region.  Each added arc counts toward the degree of its stored
        parent, the endpoint nearer the region, inside R or outside it."""
        delta = Counter(p for p, _ in added)
        return {
            "iter": it, "branch": branch, "supers": supers,
            "covered": covered, "discarded": discarded,
            "max_degree_delta_R": max((d for v, d in delta.items() if v in self.R), default=0),
            "max_degree_delta_C": max((d for v, d in delta.items() if v not in self.R), default=0),
        }

    def small_record(self, it: int, tree: PoiseTree) -> dict[str, Any]:
        """The trace record of a last iteration ``it`` that completes this
        round's partition into ``tree``."""
        added, _ = _merge_arcs(self.graph, self.arcs, [tree.arcs()])
        covered = len(tree.vertices() & self.terminals)
        return self._record(it, "small", 0, added, covered, covered)

    def _walk(self, B: int) -> tuple[PoiseTree, list[SuperRound], bool]:
        """The tree a solve at degree budget B ends in, the rounds it walks
        from this one on, and whether it completes the last one's partition
        into that tree (else the last round's region is the answer)."""
        k_rem = self.k
        walked = [self]
        while k_rem > 0:
            packing = walked[-1]
            if len(walked) > len(self.terminals) + 2:
                raise InfeasibleGuessError("no progress across iterations")
            if k_rem > len(packing.terminals):
                raise InfeasibleGuessError(
                    f"{len(packing.terminals)} terminals remain but {k_rem} are still required"
                )
            if len(packing.trees) < packing.rho:
                return packing.complete(k_rem, B)[0], walked, True
            walked.append(packing.step(B))
            k_rem -= len(walked[-1].covered)
        return walked[-1].tree, walked, False

    def solve(self, B: int) -> PoiseTree:
        return self._walk(B)[0]

    def trace(self, B: int) -> tuple[PoiseTree, dict[str, Any]]:
        """``solve(B)``'s tree with a record per iteration of its walk.  Each
        branch discards only terminals of the round it leaves."""
        tree, walked, completes = self._walk(B)
        log = []
        for it, (before, after) in enumerate(zip(walked, walked[1:]), 1):
            branch = "pmcover" if before.found is None else "large"
            discarded = len(before.terminals - after.terminals)
            log.append(before._record(it, branch, len(before.trees), after.added,
                                      len(after.covered), discarded))
        if completes:
            log.append(walked[-1].small_record(len(walked), tree))
        return tree, {"solver": "undirected", "iterations": log}


def stage_undirected(instance: MulticastInstance, D: int) -> SuperRound:
    """The first iteration's round, whose region is just the root: it reads
    only the height budget and packs on first use.  Expects a normalized
    instance pruned to radius D."""
    g = instance.graph
    if g.directed:
        raise ValueError("the undirected solver requires an undirected graph")
    root, terminals = instance.root, instance.terminals
    return SuperRound(
        g, root, frozenset({root}), ArcKeys(), terminals, _ceil_cbrt(len(terminals)), D,
        instance.k,
    )


def solve_undirected(instance: MulticastInstance, guess: PoiseGuess) -> PoiseTree:
    """Minimum-poise k-tree heuristic for an undirected instance at one budget.

    Expects a normalized instance pruned to radius guess.D.  Iterates small-tree
    packing, large-tree aggregation and matroid covering of super-terminals;
    covers at least k terminals with max degree
    (ceil(log2 k) + 1) * B * ceil(t^(1/3)) + 2*ceil(t^(1/3)) + 2 whenever the
    budget dominates an optimal tree, else raises InfeasibleGuessError.
    """
    return stage_undirected(instance, guess.D).solve(guess.B)

