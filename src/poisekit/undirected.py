"""Undirected minimum-poise k-trees via super-terminal contraction.

The solver grows a covered region R from the root.  Each round it packs small
trees of exactly ceil(t^(1/3)) terminals; if fewer than that many exist the
partition completes directly, otherwise the small trees contract into
super-terminals that are either aggregated by one large tree or covered by the
iterated matroid cover, discarding a t^(2/3)-sized terminal batch per round.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable

from .cover import pm_cover
from .directed import (
    AdditivePartition,
    GoodTree,
    _multi_source_spt_arcs,
    complete,
    greedy_packing,
)
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
class SuperTerminal:
    """A contracted small tree: coverable through any of its vertices."""

    id: int
    tree: GoodTree
    representatives: frozenset[int]


@dataclass
class CoveredRegion:
    """The root region grown so far, its oriented arcs and the iteration log."""

    R: set[int]
    arcs: set[Arc] = field(default_factory=set)
    covered_terminal_count: int = 0
    iteration_log: list[dict[str, Any]] = field(default_factory=list)

    def edge_keys(self) -> set[frozenset[int]]:
        return {frozenset(a) for a in self.arcs}


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
    root_region: Iterable[int] | None = None,
    region_arcs: Iterable[Arc] = (),
    trace: dict[str, Any] | None = None,
) -> PoiseTree | list[GoodTree]:
    """Pack trees of exactly ceil(t^(1/3)) terminals inside C.

    When fewer than that many trees exist the packing is an additive
    partition anchored at the root region, so the cover completion finishes
    the whole job and the finished tree is returned.  Otherwise the packed
    trees come back for contraction.
    """
    rho = _ceil_cbrt(t)
    trees, packed, _ = greedy_packing(graph, frozenset(C), frozenset(terminals), rho, D)
    if len(trees) >= rho:
        return trees
    return _complete_small(
        graph, trees, packed, rho, terminals, k_remaining, B, D, root,
        root_region, region_arcs, trace,
    )


def _complete_small(
    graph: Graph,
    trees: Iterable[GoodTree],
    packed: frozenset[int],
    rho: int,
    terminals: Iterable[int],
    k_remaining: int,
    B: int,
    D: int,
    root: int,
    root_region: Iterable[int] | None,
    region_arcs: Iterable[Arc],
    trace: dict[str, Any] | None,
) -> PoiseTree:
    """The degree-budget half of `small` when it packed fewer than rho trees:
    complete the additive partition anchored at the root region."""
    terminals = frozenset(terminals)
    region = frozenset(root_region) if root_region is not None else frozenset({root})
    A = region | packed
    partition = AdditivePartition(A, frozenset(graph.vertices()) - A, tuple(trees), rho)
    target = k_remaining - len(packed & terminals)
    return complete(
        graph, partition, root, target, B, D, terminals,
        root_region=region, region_arcs=region_arcs, trace=trace,
    )


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
    for v in sorted(C):
        dist, parent = bfs_parents(graph, [v], restriction=C)
        reached = []
        for s in supers:
            hits = [(dist[w], w) for w in s.representatives if dist.get(w, D + 1) <= D]
            if hits:
                d, w = min(hits)
                reached.append((d, s.id, w, s))
        if len(reached) < threshold:
            continue
        reached.sort(key=lambda item: (item[0], item[1]))
        union: set[Arc] = set()
        for _, _, w, s in reached[:threshold]:
            union.update(path_arcs(parent, w))
            union.update(s.tree.edges)
        return v, shortest_path_tree(graph, union, v)
    return None


def _merge_arcs(region: CoveredRegion, groups: Iterable[Iterable[Arc]]) -> list[Arc]:
    """Append arcs to the region, one orientation per undirected edge, in
    group order; returns the freshly added arcs."""
    keys = region.edge_keys()
    added: list[Arc] = []
    for group in groups:
        for arc in group:
            key = frozenset(arc)
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


def _contract(trees: Iterable[GoodTree]) -> list[SuperTerminal]:
    return [SuperTerminal(i, tr, frozenset(tr.vertices())) for i, tr in enumerate(trees)]


def _pack_round(
    graph: Graph, C: set[int], terminals: Iterable[int], t: int, D: int
) -> tuple[list[GoodTree], frozenset[int], tuple[int, PoiseTree] | None]:
    """The start of an iteration, which reads only the height budget: pack
    small trees inside C and, when there are at least ceil(t^(1/3)) of them,
    search for a vertex aggregating that many.  Returns (trees, packed
    vertices, search result or None)."""
    rho = _ceil_cbrt(t)
    trees, packed, _ = greedy_packing(graph, frozenset(C), frozenset(terminals), rho, D)
    found = None
    if len(trees) >= rho:
        found = find_good_vertex_wrt_super(graph, C, _contract(trees), rho, D)
    return trees, packed, found


@dataclass(frozen=True)
class UndirectedStage:
    """The undirected solver's work that reads only the height budget D.

    On an instance pruned to radius D it holds the first iteration's packing
    and super-terminal search, made while the region is just the root.
    `finish` runs the iterations for one degree budget B.
    """

    instance: MulticastInstance
    D: int
    first_round: tuple[list[GoodTree], frozenset[int], tuple[int, PoiseTree] | None]

    def finish(self, B: int, trace: dict[str, Any] | None = None) -> PoiseTree:
        instance, D = self.instance, self.D
        g = instance.graph
        root, k = instance.root, instance.k
        t = len(instance.terminals)
        rho = _ceil_cbrt(t)
        region = CoveredRegion(R={root})
        s_prime = set(instance.terminals)
        k_rem = k
        if trace is not None:
            trace["solver"] = "undirected"
            trace["rho"] = rho
            trace["iterations"] = region.iteration_log
        iteration = 0
        while k_rem > 0:
            iteration += 1
            if iteration > t + 2:
                raise InfeasibleGuessError("no progress across iterations")
            if k_rem > len(s_prime):
                raise InfeasibleGuessError(
                    f"{len(s_prime)} terminals remain but {k_rem} are still required"
                )
            C = set(g.vertices()) - region.R
            if iteration == 1:
                trees, packed, found = self.first_round
            else:
                trees, packed, found = _pack_round(g, C, s_prime, t, D)
            if len(trees) < rho:
                result = _complete_small(
                    g, trees, packed, rho, s_prime, k_rem, B, D, root,
                    region.R, region.arcs, trace,
                )
                record = _small_record(iteration, result, region, s_prime)
                region.iteration_log.append(record)
                region.covered_terminal_count += record["covered"]
                return result
            supers = _contract(trees)
            r_before = frozenset(region.R)
            if found is not None:
                v, big = found
                dist, parent = bfs_parents(g, sorted(region.R))
                candidates = [(dist[w], w) for w in big.vertices() if w in dist]
                if not candidates:
                    raise InfeasibleGuessError("aggregated tree unreachable from the region")
                _, attach = min(candidates)
                added = _merge_arcs(region, [path_arcs(parent, attach), sorted(big.arcs())])
                covered = big.vertices() & s_prime
                discarded = set(covered)
                branch = "large"
            else:
                elements = list(range(len(supers)))
                location = {s.id: sorted(s.representatives) for s in supers}
                cap = min(_ceil_log2(k), _ceil_log2(len(supers))) + 1
                selection = pm_cover(
                    g, root, region.R, C, elements, location,
                    target=None, B=B, D=D, max_iterations=cap,
                )
                covered_ids = sorted(selection.covered_elements)
                chosen_cs = sorted({c for _, c in selection.chosen})
                union: set[Arc] = set()
                for c in chosen_cs:
                    union |= _super_coverage_arcs(g, C, c, supers, D)
                t_c = _multi_source_spt_arcs(g, union, chosen_cs)
                covered_tree_arcs: list[Arc] = []
                covered: set[int] = set()
                for i in covered_ids:
                    covered_tree_arcs.extend(sorted(supers[i].tree.edges))
                    covered |= supers[i].tree.terminals
                added = _merge_arcs(
                    region, [sorted(selection.chosen), sorted(t_c), covered_tree_arcs]
                )
                discarded = s_prime & set().union(*(tr.terminals for tr in trees))
                branch = "pmcover"
            if not covered and not discarded:
                raise InfeasibleGuessError("iteration neither covered nor discarded terminals")
            if trace is not None:
                trace.setdefault("detail", []).append(
                    {
                        "iter": iteration,
                        "branch": branch,
                        "covered_terminals": sorted(covered),
                        "discarded_terminals": sorted(discarded),
                    }
                )
            s_prime -= discarded
            k_rem -= len(covered)
            region.covered_terminal_count += len(covered)
            d_r, d_c = _degree_deltas(added, r_before)
            region.iteration_log.append(
                {
                    "iter": iteration,
                    "branch": branch,
                    "supers": len(supers),
                    "covered": len(covered),
                    "discarded": len(discarded),
                    "max_degree_delta_R": d_r,
                    "max_degree_delta_C": d_c,
                }
            )
        return shortest_path_tree(g, region.arcs, root)


def stage_undirected(instance: MulticastInstance, D: int) -> UndirectedStage:
    """Run the first iteration's packing and super-terminal search, which
    read only the height budget.  Expects a normalized instance pruned to
    radius D."""
    g = instance.graph
    if g.directed:
        raise ValueError("the undirected solver requires an undirected graph")
    C = set(g.vertices()) - {instance.root}
    first = _pack_round(g, C, instance.terminals, len(instance.terminals), D)
    return UndirectedStage(instance, D, first)


def solve_undirected(
    instance: MulticastInstance,
    guess: PoiseGuess,
    trace: dict[str, Any] | None = None,
) -> PoiseTree:
    """Minimum-poise k-tree heuristic for an undirected instance at one budget.

    Expects a normalized instance pruned to radius guess.D.  Iterates small-tree
    packing, large-tree aggregation and matroid covering of super-terminals;
    covers at least k terminals with max degree
    (ceil(log2 k) + 1) * B * ceil(t^(1/3)) + 2*ceil(t^(1/3)) + 2 whenever the
    budget dominates an optimal tree, else raises InfeasibleGuessError.
    """
    return stage_undirected(instance, guess.D).finish(guess.B, trace)


def _super_coverage_arcs(
    graph: Graph, C: Iterable[int], c: int, supers: list[SuperTerminal], D: int
) -> set[Arc]:
    """Arcs of the coverage tree of c aimed at super-terminals: the BFS path
    from c to the closest representative of every super within D in G[C]."""
    C = frozenset(C)
    dist, parent = bfs_parents(graph, [c], restriction=C)
    arcs: set[Arc] = set()
    for s in supers:
        hits = [(dist[w], w) for w in s.representatives if dist.get(w, D + 1) <= D]
        if not hits:
            continue
        _, w = min(hits)
        arcs.update(path_arcs(parent, w))
    return arcs


def _small_record(
    iteration: int,
    tree: PoiseTree,
    region: CoveredRegion,
    s_prime: set[int],
) -> dict[str, Any]:
    keys = region.edge_keys()
    added = [a for a in tree.arcs() if frozenset(a) not in keys]
    d_r, d_c = _degree_deltas(added, frozenset(region.R))
    covered = len(tree.vertices() & s_prime)
    return {
        "iter": iteration,
        "branch": "small",
        "supers": 0,
        "covered": covered,
        "discarded": covered,
        "max_degree_delta_R": d_r,
        "max_degree_delta_C": d_c,
    }
