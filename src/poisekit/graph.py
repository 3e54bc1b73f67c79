"""Graph container, BFS machinery, instance normalization and tree metrics.

Vertices are dense integers 0..n-1.  Undirected graphs store each edge once
and answer adjacency queries in both directions.  All tie-breaks (BFS parent
choice, equal-distance choices) resolve to the lowest vertex id so every
operation is reproducible.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Mapping

from .errors import InfeasibleGuessError


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
        """True when u may transmit to v (orientation-aware)."""
        return v in self._out[u]  # type: ignore[attr-defined]

    def vertices(self) -> range:
        return range(self.n)


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
        if not (1 <= k <= len(terminals)):
            raise ValueError(f"need 1 <= k <= |terminals|, got k={k}, |S|={len(terminals)}")
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
        for v in self.parent:
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
    src = sorted(set(sources))
    if not src:
        raise ValueError("sources must be nonempty")
    if restriction is not None and any(s not in restriction for s in src):
        raise ValueError("sources must lie inside the restriction")
    dist = {s: 0 for s in src}
    queue = deque(src)
    while queue:
        u = queue.popleft()
        d = dist[u] + 1
        if max_depth is not None and d > max_depth:
            break  # the queue is in distance order: nothing later expands
        for v in graph.out_neighbors(u):
            if v in dist:
                continue
            if restriction is not None and v not in restriction:
                continue
            dist[v] = d
            queue.append(v)
    return dist


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
    dist = bfs_distances(graph, sources, restriction, max_depth)
    parent: dict[int, int] = {}
    src = set(sources)
    for v, d in dist.items():
        if v in src:
            continue
        best = None
        for u in graph.in_neighbors(v):
            if dist.get(u) == d - 1 and (restriction is None or u in restriction):
                if best is None or u < best:
                    best = u
        parent[v] = best  # type: ignore[assignment]  # d >= 1 guarantees a witness
    return dist, parent


def path_arcs(parent: Mapping[int, int], target: int) -> list[tuple[int, int]]:
    """Arcs of the parent-chain path ending at ``target``, source-first."""
    rev = []
    v = target
    while v in parent:
        rev.append((parent[v], v))
        v = parent[v]
    return rev[::-1]


def _subset_adjacency(
    graph: Graph, edge_subset: Iterable[tuple[int, int]]
) -> tuple[dict[int, list[int]], dict[int, list[int]], set[int]]:
    out: dict[int, list[int]] = {}
    inc: dict[int, list[int]] = {}
    verts: set[int] = set()
    for u, v in edge_subset:
        if not graph.has_arc(u, v):
            raise ValueError(f"arc ({u}, {v}) not present in the graph")
        pairs = [(u, v)] if graph.directed else [(u, v), (v, u)]
        for a, b in pairs:
            out.setdefault(a, []).append(b)
            inc.setdefault(b, []).append(a)
        verts.update((u, v))
    for adj in (out, inc):
        for key in adj:
            adj[key] = sorted(set(adj[key]))
    return out, inc, verts


def shortest_path_tree(
    graph: Graph, edge_subset: Iterable[tuple[int, int]], root: int
) -> PoiseTree:
    """BFS tree over the subgraph spanned by ``edge_subset``, rooted at ``root``.

    Every vertex reachable from the root inside the subgraph is included at
    its subgraph distance; parents are the lowest-id predecessor one level up.
    """
    out, inc, _ = _subset_adjacency(graph, edge_subset)
    dist = {root: 0}
    queue = deque([root])
    while queue:
        u = queue.popleft()
        for v in out.get(u, ()):
            if v not in dist:
                dist[v] = dist[u] + 1
                queue.append(v)
    parent: dict[int, int] = {}
    for v, d in dist.items():
        if v == root:
            continue
        parent[v] = min(u for u in inc.get(v, ()) if dist.get(u) == d - 1)
    return PoiseTree(root, parent)


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


def prune_beyond(instance: MulticastInstance, D: int) -> MulticastInstance:
    """Disconnect every vertex farther than D hops from the root.

    Vertex ids are kept stable: out-of-radius vertices lose all incident arcs
    and their terminal status rather than being renumbered away.  Distances
    between surviving vertices are unchanged, since any shortest path to a
    vertex within the radius stays within the radius.
    """
    if D < 1:
        raise ValueError("D must be at least 1")
    g = instance.graph
    dist = bfs_distances(g, [instance.root])
    keep = {v for v, d in dist.items() if d <= D}
    survivors = instance.terminals & keep
    if len(survivors) < instance.k:
        raise InfeasibleGuessError(
            f"only {len(survivors)} terminals within {D} hops, need {instance.k}"
        )
    arcs = [(u, v) for u, v in g.arcs if u in keep and v in keep]
    graph = Graph(g.n, arcs, g.directed)
    return MulticastInstance(graph, instance.root, survivors, instance.k)


def tree_metrics(tree: PoiseTree, instance: MulticastInstance) -> TreeMetrics:
    """Max out-degree, height, poise and covered-terminal count of a tree."""
    g = instance.graph
    for v, p in tree.parent.items():
        if not g.has_arc(p, v):
            raise ValueError(f"tree arc ({p}, {v}) is not an arc of the graph")
    depths = tree.depths()
    height = max(depths.values(), default=0)
    degree = max(tree.out_degrees().values(), default=0)
    covered = len(tree.vertices() & instance.terminals)
    return TreeMetrics(degree, height, degree + height, covered)


def strip_attached_leaves(tree: PoiseTree, original_n: int) -> PoiseTree:
    """Drop vertices >= original_n (the attached terminal leaves) from a tree."""
    parent = {v: p for v, p in tree.parent.items() if v < original_n}
    return PoiseTree(tree.root, parent)


def eccentricity(graph: Graph, root: int) -> int:
    """Largest hop distance from the root to any reachable vertex."""
    dist = bfs_distances(graph, [root])
    return max(dist.values(), default=0)
