"""Graph container, the BFS kernel, instance normalization and tree metrics.

Vertices are dense integers 0..n-1.  Undirected graphs store each edge once
and answer adjacency queries in both directions.  Every BFS (`bfs_distances`,
`bfs_parents`, `subset_bfs_parents`) runs one level-synchronous kernel,
`_bfs`, which gives distances and the lowest-id parent one level up in a
single pass and checks its depth and target bounds between levels, where
all it keeps is final: a packing candidate's search ends at the level of its
rho-th terminal.  `bfs_distances` searches the whole graph, `bfs_parents`
takes the bounds, and a source or neighbour query outside 0..n-1 is a
ValueError.  The question "which labels lie within D hops of a vertex" has
one answer too, `reach_labels`: the rho-good screen and the super-terminal
search ask it capped at rho, the coverage system uncapped.  All tie-breaks
(BFS parent choice, equal-distance choices) resolve to the lowest vertex id
so every operation is reproducible.  The normalized id layout (root 0, one
leaf appended per terminal) is known only to `normalize_terminals` and its
way back for trees, `denormalize_tree`.

A `Graph` is built in one pass: each arc is checked once, in input order, and
encoded by `_keys` as the integer u * n + v; one sort of the distinct keys
gives the sorted arcs, and decoding them in that order fills every adjacency
row already ascending.  `Graph.induced` keeps the arcs it wants, already in
order, and fills through the same builder.

The solvers build each sweep cell's tree from a union of picked arcs, held
as an `ArcKeys`: each arc's integer key, the encoding `Graph` sorts by, an
undirected edge under its (min, max) key, as `_keys` spells it (and
`_bfs`'s arc filter, inline).  `subset_bfs_parents` and
`shortest_path_tree` take keys only, so the caller states what it trusts:
every arc a solver joins is a BFS parent arc, a cover's boundary pair or a
packed tree's (itself a parent map), read off the graph's own rows, which
`row_keys` encodes without a check; `arc_keys` checks each arc of a caller
outside the solvers once, when it is encoded.  The searches run
`_bfs` over the graph's own ascending rows with an arc filter that skips
every arc whose key is not in the set: they build no successor lists and
sort no rows.  A tree they build lists its vertices in BFS order, so
`spt_metrics` reads its height, out-degrees and covered terminals off the
parent map; `tree_metrics` checks every arc and walks the depths, for trees
from anywhere.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field
from typing import Hashable, Iterable, Mapping, Sequence

from .errors import InfeasibleGuessError

# A graph allocates lists of length n, so readers and generators bound n
# before anything is built.
MAX_VERTICES = 10**6


def _keys(n: int, directed: bool, arcs: Iterable[tuple[int, int]]) -> list[int]:
    """The integer key of each arc of an n-vertex graph: u * n + v, an
    undirected edge under its (min, max) key.  `Graph` sorts its arcs by
    these keys and an `ArcKeys` holds them; `_bfs`'s arc filter spells the
    same expression inline, since a call per scanned arc would cost more than
    the scan."""
    return [u * n + v if directed or u < v else v * n + u for u, v in arcs]


def _check_vertex(v: int, n: int, role: str) -> None:
    """Raise ValueError unless v is in 0..n-1: -1 would read row n - 1."""
    if not 0 <= v < n:
        raise ValueError(f"{role} {v} is not a vertex of the {n}-vertex graph")


@dataclass(frozen=True)
class Graph:
    """Vertex/arc container with a directedness flag.

    Arcs are ordered pairs (u, v) without self-loops.  For undirected graphs
    each edge is canonicalized to (min, max) and exposed in both directions,
    from one adjacency that answers both `out_neighbors` and `in_neighbors`.
    """

    n: int
    arcs: tuple[tuple[int, int], ...]
    directed: bool

    def __init__(self, n: int, arcs: Iterable[tuple[int, int]], directed: bool):
        if type(n) is not int:
            raise ValueError(f"vertex count n={n!r} is not an int")
        if type(directed) is not bool:
            raise ValueError(f"directed={directed!r} is not a bool")
        if n < 1:
            raise ValueError("graph needs at least one vertex")
        arcs = list(arcs)
        for u, v in arcs:
            if type(u) is not int or type(v) is not int:
                raise ValueError(f"arc ({u!r}, {v!r}) has an endpoint that is not an int")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"arc ({u}, {v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
        # Decoding the sorted keys fills each row ascending: an undirected row
        # gets its lower neighbours (edges ending at it) before its higher ones.
        keys = sorted(set(_keys(n, directed, arcs)))
        self._fill(n, [divmod(key, n) for key in keys], directed)

    def _fill(self, n: int, pairs: list[tuple[int, int]], directed: bool) -> None:
        """Set every field from ``pairs``: valid, sorted and distinct arcs."""
        object.__setattr__(self, "n", n)
        # Tuples are built from lists: tuple() over a generator resizes as it
        # grows, which raised the sweep benchmark's `peak_rss_mb` by 4-5%.
        object.__setattr__(self, "arcs", tuple(pairs))
        object.__setattr__(self, "directed", directed)
        out: list[list[int]] = [[] for _ in range(n)]
        inc: list[list[int]] = [[] for _ in range(n)] if directed else out
        for u, v in pairs:
            out[u].append(v)
            inc[v].append(u)
        adjacency = tuple([tuple(row) for row in out])
        object.__setattr__(self, "_out", adjacency)
        if directed:
            adjacency = tuple([tuple(row) for row in inc])
        object.__setattr__(self, "_in", adjacency)

    def out_neighbors(self, v: int) -> tuple[int, ...]:
        _check_vertex(v, self.n, "vertex")
        return self._out[v]  # type: ignore[attr-defined]

    def in_neighbors(self, v: int) -> tuple[int, ...]:
        _check_vertex(v, self.n, "vertex")
        return self._in[v]  # type: ignore[attr-defined]

    def has_arc(self, u: int, v: int) -> bool:
        """True when u may transmit to v (orientation-aware); False when u or
        v is not a vertex."""
        return 0 <= u < self.n and v in self._out[u]  # type: ignore[attr-defined]

    def vertices(self) -> range:
        return range(self.n)

    def induced(self, keep: set[int] | frozenset[int]) -> Graph:
        """The subgraph induced on ``keep``, with the same n: every arc with an
        end outside ``keep`` is dropped.  Equals ``Graph(n, kept arcs,
        directed)`` field for field, but fills from this graph's arcs, which
        are already valid and sorted, without checking or sorting them again.
        When ``keep`` holds every vertex the graph itself is returned.
        """
        if len(keep) >= self.n and keep.issuperset(range(self.n)):
            return self
        sub = object.__new__(Graph)
        sub._fill(self.n, [(u, v) for u, v in self.arcs if u in keep and v in keep], self.directed)
        return sub


def check_k(k: int, terminal_count: int) -> None:
    """Raise ValueError unless the target count k is an int in 1..terminal_count."""
    if type(k) is not int:
        raise ValueError(f"k={k!r} is not an int")
    if not 1 <= k <= terminal_count:
        raise ValueError(f"need 1 <= k <= |terminals|, got k={k}, |S|={terminal_count}")


@dataclass(frozen=True)
class MulticastInstance:
    """A multicast problem: graph, root, terminal set and target count k."""

    graph: Graph
    root: int
    terminals: frozenset[int]
    k: int

    def __init__(self, graph: Graph, root: int, terminals: Iterable[int], k: int):
        terminals = frozenset(terminals)
        for name, v in [("root", root), *(("terminal", t) for t in terminals)]:
            if type(v) is not int:
                raise ValueError(f"{name} {v!r} is not an int")
            if not 0 <= v < graph.n:
                raise ValueError(f"{name} out of range")
        if root in terminals:
            raise ValueError("root must not be a terminal")
        check_k(k, len(terminals))
        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "root", root)
        object.__setattr__(self, "terminals", terminals)
        object.__setattr__(self, "k", k)


@dataclass(frozen=True)
class PoiseGuess:
    """A candidate (degree budget B, height budget D) pair."""

    B: int
    D: int

    def __post_init__(self):
        if type(self.B) is not int or type(self.D) is not int:
            raise ValueError(f"budgets must be ints, got B={self.B!r}, D={self.D!r}")
        if self.B < 1 or self.D < 1:
            raise ValueError(f"budgets must be at least 1, got B={self.B}, D={self.D}")


@dataclass
class PoiseTree:
    """Rooted out-tree as a partial parent map (root and excluded vertices
    absent): a map that lists the root as a key is a ValueError."""

    root: int
    parent: dict[int, int] = field(default_factory=dict)

    def __post_init__(self):
        if self.root in self.parent:
            raise ValueError(f"parent map lists the root {self.root} as a key")

    def vertices(self) -> set[int]:
        return {self.root} | set(self.parent)

    def arcs(self) -> set[tuple[int, int]]:
        return {(p, v) for v, p in self.parent.items()}

    def depths(self) -> dict[int, int]:
        """Depth of every included vertex; raises on cycles or dangling parents."""
        depth = {self.root: 0}
        for v, p in self.parent.items():
            base = depth.get(p)
            if base is not None and v not in depth:
                depth[v] = base + 1  # a parent seen first: no walk
                continue
            chain = []
            w = v
            while w not in depth:
                chain.append(w)
                if w not in self.parent:
                    raise ValueError(f"vertex {w} does not reach the root")
                w = self.parent[w]
                if len(chain) > len(self.parent) + 1:
                    raise ValueError("parent map contains a cycle")
            base = depth[w]
            for i, u in enumerate(reversed(chain)):
                depth[u] = base + i + 1
        return depth

    def out_degrees(self) -> dict[int, int]:
        """Out-degree of every included vertex; raises as `depths` does."""
        deg = dict.fromkeys(self.depths(), 0)
        for p in self.parent.values():
            deg[p] += 1
        return deg

    def height(self) -> int:
        return max(self.depths().values(), default=0)


@dataclass(frozen=True)
class TreeMetrics:
    max_out_degree: int
    height: int
    poise: int
    terminals_covered: int


def _bfs(
    adjacency: Sequence[Sequence[int]],
    sources: Iterable[int],
    restriction: set[int] | frozenset[int] | None = None,
    max_depth: int | None = None,
    targets: tuple[set[int] | frozenset[int], int] | None = None,
    arc_filter: tuple[int, bool, frozenset[int]] | None = None,
) -> tuple[dict[int, int], dict[int, int]]:
    """The one BFS kernel: (distances, parents) in a single pass.

    ``adjacency[u]`` lists u's successors in ascending id order.  The search
    grows level by level from the sources in ascending order, stays inside
    ``restriction`` and stops at ``max_depth`` hops, or with ``targets``
    (wanted, need) after the first level by which ``need`` vertices of
    ``wanted`` are reached, sources included.  With ``arc_filter`` (n,
    directed, keys) it follows only the arcs whose `_keys` key lies in keys.
    A reached non-source vertex v gets the lowest-id parent one level up:
    set when v is discovered, then lowered when a later vertex u of that
    level, with u < parent[v], scans v.  So a level's entries are final once
    the level above is scanned, and a bounded search keeps the full search's
    entries up to its last level, in the same order.
    """
    order = sorted(set(sources))
    if not order:
        raise ValueError("sources must be nonempty")
    _check_vertex(order[0] if order[0] < 0 else order[-1], len(adjacency), "source")
    dist = dict.fromkeys(order, 0)
    if restriction is not None and any(s not in restriction for s in dist):
        raise ValueError("sources must lie inside the restriction")
    wanted, need = targets if targets is not None else (None, 0)
    reached = 0 if wanted is None else len(wanted.intersection(dist))
    n, directed, keys = arc_filter if arc_filter is not None else (0, True, None)
    parent: dict[int, int] = {}
    level = list(dist)
    d = 0
    while level and (max_depth is None or d < max_depth) and (wanted is None or reached < need):
        d += 1
        found = []
        for u in level:
            base = u * n
            for v in adjacency[u]:
                if keys is not None and (base + v if directed or u < v else v * n + u) not in keys:
                    continue
                seen = dist.get(v)
                if seen is None:
                    if restriction is None or v in restriction:
                        dist[v] = d
                        parent[v] = u
                        found.append(v)
                elif seen == d and u < parent[v]:
                    parent[v] = u
        level = found
        if wanted is not None:
            reached += len(wanted.intersection(found))
    return dist, parent


def bfs_distances(graph: Graph, sources: Iterable[int]) -> dict[int, int]:
    """Exact hop distances from a source set over the whole graph.

    Unreachable vertices are absent from the result.  A search bounded by a
    restriction or a depth is `bfs_parents`'s.
    """
    return _bfs(graph._out, sources)[0]  # type: ignore[attr-defined]


def bfs_parents(
    graph: Graph,
    sources: Iterable[int],
    restriction: set[int] | frozenset[int] | None = None,
    max_depth: int | None = None,
    targets: tuple[set[int] | frozenset[int], int] | None = None,
) -> tuple[dict[int, int], dict[int, int]]:
    """(distances, parents) with the lowest-id parent at each distance level.

    Sources carry no parent.  Parent of v is the smallest-id in-neighbor of v
    at distance dist(v) - 1 within the restriction.  With ``restriction``,
    both sources and traversal are confined to it; ``max_depth`` stops the
    search after that many hops, and ``targets`` (wanted, need) after the
    first level by which ``need`` vertices of ``wanted`` are reached.
    Neither bound changes a distance or parent it keeps.
    """
    return _bfs(graph._out, sources, restriction, max_depth, targets)  # type: ignore[attr-defined]


def reach_labels(
    graph: Graph,
    C: Iterable[int],
    location: Mapping[Hashable, Iterable[int]],
    D: int,
    cap: int | None = None,
) -> dict[int, set]:
    """Vertex of C -> the elements of ``location`` with a representative (a
    vertex of ``location[e]`` inside C) within D hops of it inside G[C];
    vertices that reach none are absent.  With ``cap`` (at least 1), a vertex
    ends with ``cap`` or more labels exactly when it reaches ``cap`` or more.

    One level-synchronous reverse BFS over ``in_neighbors`` inside C, D
    levels deep, as in Cohen's reachability sketches and Thorup-Zwick
    bunches.  Every representative starts with its element's label; a vertex
    accepts a label only while it holds fewer than ``cap`` and forwards each
    one it accepts once, so a pass costs O(cap * m), uncapped O(|location| *
    m).  A vertex meets each label first on the level of its closest
    representative, so uncapped every label within D hops arrives.  Capped,
    take a vertex v that reaches ``cap`` labels but lacks one, and a shortest
    path from v to that label's closest representative: the label went back
    along the path until a vertex already full refused it, and that vertex's
    ``cap`` labels go on towards v the same way within the same depth, so v
    is full too.

    Three callers ask it: the rho-good screen (terminals) and the undirected
    solver's super-terminal search (packed trees, each through any of its
    vertices), both capped at rho, and the coverage system, uncapped.
    """
    if cap is None:
        cap = len(location)  # no vertex can hold more labels
    elif cap < 1:
        raise ValueError("cap must be at least 1")
    C = frozenset(C)
    held: dict[int, set] = {}
    frontier: dict[int, list] = {}
    for e, reps in location.items():
        for w in reps:
            if w in C and e not in held.setdefault(w, set()):
                held[w].add(e)
                frontier.setdefault(w, []).append(e)
    in_neighbors = graph._in  # type: ignore[attr-defined]
    for _ in range(D):
        if not frontier:
            break  # nothing left to forward: every later level is empty
        accepted: dict[int, list] = {}
        for v, labels in frontier.items():
            for u in in_neighbors[v]:
                if u not in C:
                    continue
                have = held.get(u)
                if have is None:
                    have = held[u] = set()
                for e in labels:
                    if len(have) >= cap:
                        break
                    if e not in have:
                        have.add(e)
                        accepted.setdefault(u, []).append(e)
        frontier = accepted
    return held


def chain_parents(parent: Mapping[int, int], targets: Iterable[int]) -> dict[int, int]:
    """The part of a parent map on the parent chains from each target up to a
    vertex without a parent (a BFS source or a tree root)."""
    kept: dict[int, int] = {}
    for v in targets:
        while v in parent and v not in kept:
            kept[v] = parent[v]
            v = parent[v]
    return kept


class ArcKeys(frozenset):
    """Arcs of one graph, each held as its `_keys` key: u * n + v, an
    undirected edge as its (min, max) key, the order `Graph` sorts its arcs
    by.  `arc_keys` builds one from any arcs, checking each, and `row_keys`
    from arcs read off the graph's rows; `subset_bfs_parents` and
    `shortest_path_tree` take nothing else."""

    __slots__ = ()


def require_keys(keys: object) -> None:
    """Raise TypeError unless ``keys`` is an `ArcKeys`: plain arcs filtered
    as keys would match none, and joined to keys would never be followed."""
    if not isinstance(keys, ArcKeys):
        raise TypeError(f"expected ArcKeys, got {type(keys).__name__}: use arc_keys(graph, arcs)")


def arc_keys(graph: Graph, arcs: Iterable[tuple[int, int]]) -> ArcKeys:
    """The keys of ``arcs``, read once (it may be an iterator).  Each arc
    must be a graph arc, checked as it is read by bisecting u's ascending
    row, so the first non-arc raises.  Repeated arcs, and an undirected edge
    given in both orientations, share one key."""
    out = graph._out  # type: ignore[attr-defined]
    n = graph.n
    arcs = list(arcs)
    for u, v in arcs:
        row = out[u] if 0 <= u < n else ()
        try:
            i = bisect_left(row, v)
        except TypeError:  # a head that does not compare with ints
            i = len(row)
        if i == len(row) or row[i] != v:
            raise ValueError(f"arc ({u}, {v}) not present in the graph")
    return ArcKeys(_keys(n, graph.directed, arcs))


def row_keys(graph: Graph, arcs: Iterable[tuple[int, int]]) -> ArcKeys:
    """The keys of ``arcs`` read off this graph's own rows, such as a BFS's
    parent arcs or a cover's boundary pairs: they are graph arcs already and
    are not checked again."""
    return ArcKeys(_keys(graph.n, graph.directed, arcs))


def subset_bfs_parents(graph: Graph, keys: ArcKeys, sources: Iterable[int]) -> dict[int, int]:
    """Lowest-id BFS parents over the subgraph spanned by the arcs ``keys``
    holds, grown from a source set: every vertex the sources reach inside
    the subgraph, sources excepted, maps to its lowest-id predecessor one
    level up.  No sources give no parents.

    Anything but an `ArcKeys` raises TypeError, sources or not.  The search
    is `_bfs` over the graph's own ascending rows, filtered to those keys.
    """
    require_keys(keys)
    sources = set(sources)
    if not sources:
        return {}
    out = graph._out  # type: ignore[attr-defined]
    return _bfs(out, sources, arc_filter=(graph.n, graph.directed, keys))[1]


def shortest_path_tree(graph: Graph, keys: ArcKeys, root: int) -> PoiseTree:
    """BFS tree over the subgraph spanned by the arcs ``keys`` holds, rooted
    at ``root``.

    Every vertex reachable from the root inside the subgraph is included at
    its subgraph distance; parents are the lowest-id predecessor one level
    up.  The parent map lists the vertices in BFS order, which
    `spt_metrics` reads.
    """
    return PoiseTree(root, subset_bfs_parents(graph, keys, [root]))


def normalize_terminals(instance: MulticastInstance) -> MulticastInstance:
    """Attach a fresh leaf to every terminal and make the leaves the terminals.

    The root is relabeled to vertex 0 (other ids keep their relative order)
    and each new leaf s' is appended after the original vertices with an arc
    s -> s' (an edge for undirected graphs).  Afterwards every terminal has
    out-degree 0 and in-degree 1 (degree 1 when undirected); k is unchanged.
    `denormalize_tree` maps a tree of the result back to the instance's ids.
    """
    g = instance.graph
    root = instance.root
    relabel = [0 if v == root else (v + 1 if v < root else v) for v in range(g.n)]
    arcs = [(relabel[u], relabel[v]) for u, v in g.arcs]
    old_terms = sorted(relabel[t] for t in instance.terminals)
    n = g.n
    new_terms = []
    for i, s in enumerate(old_terms):
        leaf = n + i
        arcs.append((s, leaf))
        new_terms.append(leaf)
    graph = Graph(n + len(old_terms), arcs, g.directed)
    return MulticastInstance(graph, 0, new_terms, instance.k)


def is_normalized(instance: MulticastInstance) -> bool:
    """True when every terminal already has the attached-leaf shape:
    out-degree 0 and in-degree 1 (degree 1 for undirected graphs)."""
    g = instance.graph
    for t in instance.terminals:
        if g.directed:
            if g.out_neighbors(t) or len(g.in_neighbors(t)) != 1:
                return False
        elif len(g.out_neighbors(t)) != 1:
            return False
    return True


def denormalize_tree(tree: PoiseTree, original: MulticastInstance) -> PoiseTree:
    """A tree of ``normalize_terminals(original)`` in ``original``'s ids: the
    attached leaves (every vertex >= ``original.graph.n``) are dropped and
    the root relabel is undone, vertex 0 back to the root."""
    n, root = original.graph.n, original.root
    old = [root, *range(root), *range(root + 1, n)]  # old[new id] = old id
    return PoiseTree(old[tree.root], {old[v]: old[p] for v, p in tree.parent.items() if v < n})


def prune_beyond(
    instance: MulticastInstance, D: int, root_dist: Mapping[int, int] | None = None
) -> MulticastInstance:
    """Disconnect every vertex farther than D hops from the root.

    Vertex ids are kept stable: out-of-radius vertices lose all incident arcs
    and their terminal status rather than being renumbered away.  Distances
    between surviving vertices are unchanged, since any shortest path to a
    vertex within the radius stays within the radius.  ``root_dist``, the
    root's `bfs_distances` in this graph, lets a sweep share one BFS across
    its height budgets; without it the BFS runs here.
    """
    if D < 1:
        raise ValueError("D must be at least 1")
    if root_dist is None:
        root_dist = bfs_distances(instance.graph, [instance.root])
    survivors = frozenset([t for t in instance.terminals if root_dist.get(t, D + 1) <= D])
    if len(survivors) < instance.k:
        raise InfeasibleGuessError(
            f"only {len(survivors)} terminals within {D} hops, need {instance.k}"
        )
    keep = {v for v, d in root_dist.items() if d <= D}
    return MulticastInstance(instance.graph.induced(keep), instance.root, survivors, instance.k)


def tree_metrics(tree: PoiseTree, instance: MulticastInstance) -> TreeMetrics:
    """Max out-degree, height, poise and covered-terminal count of a tree.

    One pass over the parent map checks every arc and counts out-degrees and
    covered terminals; the height comes from `PoiseTree.depths`, which also
    rejects cycles and parents that do not reach the root.
    """
    g = instance.graph
    if not 0 <= tree.root < g.n:
        raise ValueError(f"tree root {tree.root} is not a vertex of the graph")
    out = g._out  # type: ignore[attr-defined]
    terminals = instance.terminals
    out_degree: dict[int, int] = {}
    covered = 0
    for v, p in tree.parent.items():
        if not 0 <= p < g.n or v not in out[p]:
            raise ValueError(f"tree arc ({p}, {v}) is not an arc of the graph")
        out_degree[p] = out_degree.get(p, 0) + 1
        if v in terminals:
            covered += 1
    height = max(tree.depths().values())
    if tree.root in terminals:
        covered += 1
    degree = max(out_degree.values(), default=0)
    return TreeMetrics(degree, height, degree + height, covered)


def spt_metrics(tree: PoiseTree, terminals: frozenset[int]) -> TreeMetrics:
    """`tree_metrics` of a tree that `shortest_path_tree` built, read from
    its parent map without checking it: the map lists the vertices in BFS
    order, so the last one is a deepest, and its parent chain gives the
    height.  Out-degrees and covered ``terminals`` are counted in C."""
    parent = tree.parent
    degree = max(Counter(parent.values()).values(), default=0)
    height = 0
    if parent:
        v = next(reversed(parent))
        while v != tree.root:
            v = parent[v]
            height += 1
    covered = len(terminals.intersection(parent)) + (tree.root in terminals)
    return TreeMetrics(degree, height, degree + height, covered)


def eccentricity(graph: Graph, root: int) -> int:
    """Largest hop distance from the root to any reachable vertex."""
    dist = bfs_distances(graph, [root])
    return max(dist.values(), default=0)
