"""Graph container, the BFS kernel, instance normalization and tree metrics.

Vertices are dense integers 0..n-1.  Undirected graphs store each edge once
and answer adjacency queries in both directions.  Every BFS (`bfs_distances`,
`bfs_parents`, `subset_bfs_parents`) runs one kernel, `_bfs`, which gives
distances and the lowest-id parent one level up in a single pass.  All
tie-breaks (BFS parent choice, equal-distance choices) resolve to the lowest
vertex id so every operation is reproducible.

The solvers build each sweep cell's tree from a union of picked arcs, so the
passes over such a union are kept to one each: `subset_bfs_parents` checks
every arc against the graph's adjacency while it builds plain successor
lists, and `tree_metrics` checks the tree's arcs and counts out-degrees and
covered terminals in one loop over the parent map.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from .errors import InfeasibleGuessError

# A graph allocates lists of length n, so readers and generators bound n
# before anything is built.
MAX_VERTICES = 10**6


@dataclass(frozen=True)
class Graph:
    """Vertex/arc container with a directedness flag.

    Arcs are ordered pairs (u, v) without self-loops.  For undirected graphs
    each edge is canonicalized to (min, max) and exposed in both directions.
    """

    n: int
    arcs: tuple[tuple[int, int], ...]
    directed: bool

    def __init__(self, n: int, arcs: Iterable[tuple[int, int]], directed: bool):
        if n < 1:
            raise ValueError("graph needs at least one vertex")
        seen = set()
        for u, v in arcs:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"arc ({u}, {v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            seen.add((u, v) if directed else (min(u, v), max(u, v)))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "arcs", tuple(sorted(seen)))
        object.__setattr__(self, "directed", directed)
        out: list[list[int]] = [[] for _ in range(n)]
        inc: list[list[int]] = [[] for _ in range(n)]
        for u, v in self.arcs:
            out[u].append(v)
            inc[v].append(u)
            if not directed:
                out[v].append(u)
                inc[u].append(v)
        object.__setattr__(self, "_out", tuple(tuple(sorted(a)) for a in out))
        object.__setattr__(self, "_in", tuple(tuple(sorted(a)) for a in inc))

    def out_neighbors(self, v: int) -> tuple[int, ...]:
        return self._out[v]  # type: ignore[attr-defined]

    def in_neighbors(self, v: int) -> tuple[int, ...]:
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
        directed)`` field for field, but filters this graph's arcs and
        adjacency, which are already valid and sorted, instead of rebuilding
        them.  An adjacency tuple that loses nothing is shared.
        """
        # Tuples are built from lists: tuple() over a generator resizes as it
        # grows, which raised the sweep benchmark's peak memory by 4-5%.
        def restrict(adjacency: tuple[tuple[int, ...], ...]) -> tuple[tuple[int, ...], ...]:
            rows = []
            for u, row in enumerate(adjacency):
                if u not in keep:
                    rows.append(())
                    continue
                kept = [v for v in row if v in keep]
                rows.append(row if len(kept) == len(row) else tuple(kept))
            return tuple(rows)

        sub = object.__new__(Graph)
        object.__setattr__(sub, "n", self.n)
        object.__setattr__(
            sub, "arcs", tuple([(u, v) for u, v in self.arcs if u in keep and v in keep])
        )
        object.__setattr__(sub, "directed", self.directed)
        object.__setattr__(sub, "_out", restrict(self._out))  # type: ignore[attr-defined]
        object.__setattr__(sub, "_in", restrict(self._in))  # type: ignore[attr-defined]
        return sub


def check_k(k: int, terminal_count: int) -> None:
    """Raise ValueError unless the target count k lies in 1..terminal_count."""
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
        if not (0 <= root < graph.n):
            raise ValueError("root out of range")
        if any(not (0 <= t < graph.n) for t in terminals):
            raise ValueError("terminal out of range")
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
        if self.B < 1 or self.D < 1:
            raise ValueError(f"budgets must be at least 1, got B={self.B}, D={self.D}")


@dataclass
class PoiseTree:
    """Rooted out-tree as a partial parent map (root and excluded vertices absent)."""

    root: int
    parent: dict[int, int] = field(default_factory=dict)

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
        deg = {v: 0 for v in self.vertices()}
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
    adjacency: Sequence[Sequence[int]] | Mapping[int, Sequence[int]],
    sources: Iterable[int],
    restriction: set[int] | frozenset[int] | None = None,
    max_depth: int | None = None,
) -> tuple[dict[int, int], dict[int, int]]:
    """The one BFS kernel: (distances, parents) in a single pass.

    ``adjacency[u]`` lists u's successors in ascending id order.  The search
    grows from the sources in ascending order, stays inside ``restriction``
    and stops at ``max_depth`` hops.  A reached non-source vertex v gets the
    lowest-id parent one level up: set when v is discovered, then lowered
    when a later vertex u of that level, with u < parent[v], scans v.
    """
    dist = dict.fromkeys(sorted(set(sources)), 0)
    if not dist:
        raise ValueError("sources must be nonempty")
    if restriction is not None and any(s not in restriction for s in dist):
        raise ValueError("sources must lie inside the restriction")
    parent: dict[int, int] = {}
    queue = deque(dist)
    while queue:
        u = queue.popleft()
        d = dist[u] + 1
        if max_depth is not None and d > max_depth:
            break  # the queue is in distance order: nothing later expands
        for v in adjacency[u]:
            seen = dist.get(v)
            if seen is None:
                if restriction is None or v in restriction:
                    dist[v] = d
                    parent[v] = u
                    queue.append(v)
            elif seen == d and u < parent[v]:
                parent[v] = u
    return dist, parent


def bfs_distances(
    graph: Graph,
    sources: Iterable[int],
    restriction: set[int] | frozenset[int] | None = None,
    max_depth: int | None = None,
) -> dict[int, int]:
    """Exact hop distances from a source set inside an induced subgraph.

    Unreachable vertices are absent from the result.  When ``restriction`` is
    given, both sources and traversal are confined to it.  With ``max_depth``
    the search stops there: only vertices within that many hops are returned.
    """
    return _bfs(graph._out, sources, restriction, max_depth)[0]  # type: ignore[attr-defined]


def bfs_parents(
    graph: Graph,
    sources: Iterable[int],
    restriction: set[int] | frozenset[int] | None = None,
    max_depth: int | None = None,
) -> tuple[dict[int, int], dict[int, int]]:
    """(distances, parents) with the lowest-id parent at each distance level.

    Sources carry no parent.  Parent of v is the smallest-id in-neighbor of v
    at distance dist(v) - 1 within the restriction.  ``max_depth`` bounds the
    search as in `bfs_distances`; it changes no distance or parent it keeps.
    """
    return _bfs(graph._out, sources, restriction, max_depth)  # type: ignore[attr-defined]


def chain_parents(parent: Mapping[int, int], targets: Iterable[int]) -> dict[int, int]:
    """The part of a parent map on the parent chains from each target up to a
    vertex without a parent (a BFS source or a tree root)."""
    kept: dict[int, int] = {}
    for v in targets:
        while v in parent and v not in kept:
            kept[v] = parent[v]
            v = parent[v]
    return kept


def subset_bfs_parents(
    graph: Graph, edge_subset: Iterable[tuple[int, int]], sources: Iterable[int]
) -> dict[int, int]:
    """Lowest-id BFS parents over the subgraph spanned by ``edge_subset``,
    grown from a source set: every vertex the sources reach inside the
    subgraph, sources excepted, maps to its lowest-id predecessor one level up.
    No sources give no parents.

    ``edge_subset`` is read once (it may be an iterator).  Each arc must be a
    graph arc, checked as it is read, so the first non-arc raises even when
    there are no sources.  Repeated arcs, and an undirected edge given in both
    orientations, only repeat a successor, which the BFS ignores; each
    adjacency list is sorted once.
    """
    out = graph._out  # type: ignore[attr-defined]
    n = graph.n
    undirected = not graph.directed
    succ: defaultdict[int, list[int]] = defaultdict(list)
    for u, v in edge_subset:
        if not 0 <= u < n or v not in out[u]:
            raise ValueError(f"arc ({u}, {v}) not present in the graph")
        succ[u].append(v)
        if undirected:
            succ[v].append(u)
    sources = set(sources)
    if not sources:
        return {}
    for row in succ.values():
        row.sort()
    return _bfs(succ, sources)[1]


def shortest_path_tree(
    graph: Graph, edge_subset: Iterable[tuple[int, int]], root: int
) -> PoiseTree:
    """BFS tree over the subgraph spanned by ``edge_subset``, rooted at ``root``.

    Every vertex reachable from the root inside the subgraph is included at
    its subgraph distance; parents are the lowest-id predecessor one level up.
    """
    return PoiseTree(root, subset_bfs_parents(graph, edge_subset, [root]))


def normalize_terminals(instance: MulticastInstance) -> MulticastInstance:
    """Attach a fresh leaf to every terminal and make the leaves the terminals.

    The root is relabeled to vertex 0 (other ids keep their relative order)
    and each new leaf s' is appended after the original vertices with an arc
    s -> s' (an edge for undirected graphs).  Afterwards every terminal has
    out-degree 0 and in-degree 1 (degree 1 when undirected); k is unchanged.
    """
    g = instance.graph
    relabel = root_first_relabel(instance.root, g.n)
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


def root_first_relabel(root: int, n: int) -> list[int]:
    """Order-preserving permutation sending the root to vertex 0."""
    return [0 if v == root else (v + 1 if v < root else v) for v in range(n)]


def invert_relabel(relabel: list[int]) -> list[int]:
    inv = [0] * len(relabel)
    for old, new in enumerate(relabel):
        inv[new] = old
    return inv


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
    depths = tree.depths()
    root_parent = tree.parent.get(tree.root)
    if root_parent is not None and root_parent not in depths:
        # `depths` does not follow a parent of the root; one outside the tree
        # raises the KeyError that `PoiseTree.out_degrees` raises
        raise KeyError(root_parent)
    if tree.root in terminals and tree.root not in tree.parent:
        covered += 1  # a root listed as a key was counted in the loop
    height = max(depths.values())
    degree = max(out_degree.values(), default=0)
    return TreeMetrics(degree, height, degree + height, covered)


def strip_attached_leaves(tree: PoiseTree, original_n: int) -> PoiseTree:
    """Drop vertices >= original_n (the attached terminal leaves) from a tree."""
    parent = {v: p for v, p in tree.parent.items() if v < original_n}
    return PoiseTree(tree.root, parent)


def eccentricity(graph: Graph, root: int) -> int:
    """Largest hop distance from the root to any reachable vertex."""
    dist = bfs_distances(graph, [root])
    return max(dist.values(), default=0)
