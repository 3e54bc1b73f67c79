"""Shared builders and independent reference implementations for the tests.

The reference routines here (Floyd-Warshall, schedule replay by hand, etc.)
are deliberately written from scratch so the package code is checked against
an independent path, not against itself.
"""

from __future__ import annotations

import json
import random

import pytest

from poisekit import (
    Graph,
    GoodTree,
    MulticastInstance,
    PoiseTree,
    bfs_parents,
    generate_instance,
    greedy_matroid_max,
)
from poisekit.cover import default_iteration_cap
from poisekit.errors import GenerationError, InfeasibleGuessError
from poisekit.graph import chain_parents

INF = 10**9


def floyd_warshall(graph: Graph) -> list[list[int]]:
    """All-pairs hop distances, independent of the package BFS."""
    n = graph.n
    dist = [[0 if i == j else INF for j in range(n)] for i in range(n)]
    for u, v in graph.arcs:
        dist[u][v] = 1
        if not graph.directed:
            dist[v][u] = 1
    for k in range(n):
        for i in range(n):
            dik = dist[i][k]
            if dik == INF:
                continue
            row_k = dist[k]
            row_i = dist[i]
            for j in range(n):
                alt = dik + row_k[j]
                if alt < row_i[j]:
                    row_i[j] = alt
    return dist


def random_graph(rng: random.Random, n: int, m: int, directed: bool) -> Graph:
    if directed:
        universe = [(u, v) for u in range(n) for v in range(n) if u != v]
    else:
        universe = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return Graph(n, rng.sample(universe, min(m, len(universe))), directed)


def full_coverage_tree(graph: Graph, C, c: int, terminals, D: int) -> PoiseTree:
    """Reference for packing: the whole depth-D BFS tree of c inside G[C],
    pruned of branches holding no terminal.  Its leaves are exactly the
    terminals within D hops of c; with none it is the single vertex c."""
    C = frozenset(C)
    terminals = frozenset(terminals)
    dist, parent = bfs_parents(graph, [c], restriction=C, max_depth=D)
    return PoiseTree(c, chain_parents(parent, [t for t in terminals if t in dist]))


def trim_to_terminals(tree: PoiseTree, terminals, rho: int) -> GoodTree:
    """Reference for packing: keep a tree's rho terminals of smallest
    (depth, id), drop the rest, and re-prune non-terminal leaves."""
    terminals = frozenset(terminals)
    depths = tree.depths()
    ranked = sorted((v for v in tree.vertices() if v in terminals), key=lambda v: (depths[v], v))
    if len(ranked) < rho:
        raise ValueError(f"tree holds {len(ranked)} terminals, cannot trim to {rho}")
    kept = ranked[:rho]
    parent = chain_parents(tree.parent, kept)
    return GoodTree(tree.root, parent, frozenset(kept))


def set_based_pm_cover(system, capacity, target, max_iterations=None):
    """Reference for the cover loop: `pm_cover_system` written on element
    sets, which encodes the covered set for the greedy each iteration and
    decodes each iteration's new coverage into elements.  (chosen, covered
    elements, iterations, log, peak load); raises InfeasibleGuessError when
    an iteration covers nothing below a numeric target."""
    if max_iterations is None:
        max_iterations = default_iteration_cap(target)
    chosen: set = set()
    covered: set = set()
    log: list = []
    covered_mask = peak_load = 0
    while len(log) < max_iterations:
        if target is not None and len(covered) >= target:
            break
        if len(covered) == len(system.ground):
            break
        picks = greedy_matroid_max(system, capacity, system.mask(covered))
        union = 0
        arcs = []
        per_part: dict = {}
        for i in sorted(picks):
            a, c, _ = system.pairs[i]
            arcs.append((a, c))
            per_part[a] = per_part.get(a, 0) + 1
            union |= system.masks[i]
        newly = system.elements_of(union & ~covered_mask)
        peak_load = max(peak_load, *per_part.values(), 0)
        log.append(
            {"iteration": len(log) + 1, "chosen": arcs, "covered": newly, "per_part": per_part}
        )
        if not newly:
            if target is not None and len(covered) < target:
                raise InfeasibleGuessError(
                    "coverage stalled: an iteration covered no new elements"
                )
            break
        chosen.update(arcs)
        covered.update(newly)
        covered_mask |= union
    return frozenset(chosen), covered, len(log), log, peak_load


def two_branch_instance() -> MulticastInstance:
    """0->1, 0->2, 1->3, 2->4 with terminals {3, 4}."""
    g = Graph(5, [(0, 1), (0, 2), (1, 3), (2, 4)], directed=True)
    return MulticastInstance(g, 0, {3, 4}, 2)


def hub_stars_instance() -> MulticastInstance:
    """Undirected; two 2-terminal stars behind hub 1, two more behind the root."""
    arcs = [(0, 1), (1, 2), (1, 3), (0, 4), (0, 5),
            (2, 6), (2, 7), (3, 8), (3, 9), (4, 10), (4, 11), (5, 12), (5, 13)]
    return MulticastInstance(Graph(14, arcs, directed=False), 0, range(6, 14), 8)


def middles_instance(count: int = 8) -> MulticastInstance:
    """Undirected star of middles: root - m_i - s_i, one terminal each."""
    arcs = []
    terms = []
    for i in range(count):
        m, s = 1 + 2 * i, 2 + 2 * i
        arcs += [(0, m), (m, s)]
        terms.append(s)
    return MulticastInstance(Graph(1 + 2 * count, arcs, directed=False), 0, terms, count)


def directed_stream(count: int, seed: int):
    """Seeded normalized directed instances small enough for the oracle."""
    rng = random.Random(seed)
    produced = 0
    trial = 0
    while produced < count:
        trial += 1
        n = rng.randint(4, 7)
        t = rng.randint(1, 3)
        m = rng.randint(n, int(2.5 * n))
        try:
            inst = generate_instance(
                "random-digraph",
                {"n": n, "m": min(m, n * (n - 1)), "t": t,
                 "k": rng.randint(1, t), "seed": seed * 100000 + trial},
            )
        except GenerationError:
            continue
        produced += 1
        yield inst


def undirected_stream(count: int, seed: int):
    """Seeded normalized connected undirected instances, oracle-sized."""
    rng = random.Random(seed)
    produced = 0
    trial = 0
    while produced < count:
        trial += 1
        n = rng.randint(4, 6)
        t = rng.randint(1, min(4, n - 1))
        m = rng.randint(n, int(2.2 * n))
        try:
            inst = generate_instance(
                "random-digraph",
                {"n": n, "m": min(m, n * (n - 1) // 2), "t": t,
                 "k": rng.randint(1, t), "seed": seed * 100000 + trial,
                 "directed": False, "connected": True},
            )
        except GenerationError:
            continue
        produced += 1
        yield inst


@pytest.fixture
def rng() -> random.Random:
    return random.Random(12345)


_DROP = object()


def _two_branch_with(**fields) -> str:
    """The two-branch instance as JSON text with the given fields replaced
    (or, for _DROP, removed)."""
    payload = {"directed": True, "n": 5, "edges": [[0, 1], [0, 2], [1, 3], [2, 4]],
               "root": 0, "terminals": [3, 4], "k": 2}
    payload.update(fields)
    return json.dumps({key: value for key, value in payload.items() if value is not _DROP})

# (case id, instance file text, text the one-line error must contain): each
# is the two-branch instance with one field made malformed.
MALFORMED_INSTANCES = [
    ("top-level-list", "[5, 0, 2]", "must be a JSON object"),
    ("missing-k", _two_branch_with(k=_DROP), 'missing field "k"'),
    ("float-n", _two_branch_with(n=3.5), 'field "n" must be a JSON integer'),
    ("bool-n", _two_branch_with(n=True), 'field "n" must be a JSON integer'),
    ("huge-n", _two_branch_with(n=10**6 + 1), 'field "n" must be at most 1000000'),
    ("float-root", _two_branch_with(root=0.0), 'field "root" must be a JSON integer'),
    ("bool-k", _two_branch_with(k=False), 'field "k" must be a JSON integer'),
    ("float-terminal", _two_branch_with(terminals=[2.7], k=1),
     'field "terminals" must be a JSON integer'),
    ("bool-terminal", _two_branch_with(terminals=[3, True]),
     'field "terminals" must be a JSON integer'),
    ("duplicate-terminal", _two_branch_with(terminals=[3, 3]),
     'field "terminals" repeats vertex 3'),
    ("float-endpoint", _two_branch_with(edges=[[0, 1.0], [0, 2]]),
     'field "edges" must hold JSON integers'),
    ("three-element-edge", _two_branch_with(edges=[[0, 1, 5]]),
     'field "edges" must hold [u, v] pairs'),
    ("scalar-edge", _two_branch_with(edges=[0, 1]), 'field "edges" must hold [u, v] pairs'),
    ("edges-not-list", _two_branch_with(edges={"0": 1}), 'field "edges" must be a JSON list'),
    # bad only after a valid edge: the message quotes the first bad edge
    ("bool-endpoint-after-valid", _two_branch_with(edges=[[0, 1], [0, True]]),
     'field "edges" must hold JSON integers, got [0, true]'),
    ("three-element-edge-after-valid", _two_branch_with(edges=[[0, 1], [0, 2, 3]]),
     'field "edges" must hold [u, v] pairs, got [0, 2, 3]'),
    ("float-endpoint-after-valid", _two_branch_with(edges=[[0, 1], [1, 2.5]]),
     'field "edges" must hold JSON integers, got [1, 2.5]'),
    ("repeated-key", _two_branch_with().replace('"n": 5', '"n": 3, "n": 5'), 'repeated key "n"'),
]

# (case id, tree file text, text the one-line error must contain).
MALFORMED_TREES = [
    ("top-level-list", "[1, 2]", "a tree must be a JSON object"),
    ("missing-parent", '{"root": 0}', 'missing field "parent"'),
    ("float-root", '{"root": 0.0, "parent": {}}', 'field "root" must be a JSON integer'),
    ("parent-not-object", '{"root": 0, "parent": [[1, 0]]}',
     'field "parent" must be a JSON object'),
    ("list-parent", '{"root": 0, "parent": {"2": [1]}}', 'field "parent" must be a JSON integer'),
    ("float-parent", '{"root": 0, "parent": {"2": 1.9}}', 'field "parent" must be a JSON integer'),
    ("bool-parent", '{"root": 0, "parent": {"1": true}}', 'field "parent" must be a JSON integer'),
    ("word-key", '{"root": 0, "parent": {"one": 0}}',
     'field "parent" must have vertex ids as keys, got "one"'),
    ("float-key", '{"root": 0, "parent": {"1.0": 0}}',
     'field "parent" must have vertex ids as keys, got "1.0"'),
    ("negative-key", '{"root": 0, "parent": {"-1": 0}}',
     'field "parent" must have vertex ids as keys, got "-1"'),
    ("leading-zero-key", '{"root": 0, "parent": {"01": 0}}',
     'field "parent" must have vertex ids as keys, got "01"'),
    ("repeated-vertex", '{"root": 0, "parent": {"1": 0, "1": 2}}', 'repeated key "1"'),
    ("root-key", '{"root": 0, "parent": {"0": 1, "1": 0, "2": 1}}',
     'field "parent" lists the root 0 as a key'),
]

# (case id, schedule file text, text the one-line error must contain).
MALFORMED_SCHEDULES = [
    ("top-level-list", "[]", "a schedule must be a JSON object"),
    ("missing-rounds", "{}", 'missing field "rounds"'),
    ("scalar-rounds", '{"rounds": 5}', 'field "rounds" must be a JSON list, got 5'),
    ("scalar-round", '{"rounds": [5]}', 'field "rounds" must be a JSON list, got 5'),
    ("three-element-call", '{"rounds": [[[0, 1, 2]]]}',
     'field "rounds" must hold [sender, receiver] pairs'),
    ("scalar-call", '{"rounds": [[0, 1]]}', 'field "rounds" must hold [sender, receiver] pairs'),
    ("float-call", '{"rounds": [[[0, 1.0]]]}', 'field "rounds" must hold JSON integers'),
    ("bool-call", '{"rounds": [[[0, true]]]}', 'field "rounds" must hold JSON integers'),
    ("repeated-rounds", '{"rounds": [], "rounds": [[[0, 1]]]}', 'repeated key "rounds"'),
]
