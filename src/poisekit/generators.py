"""Seeded random and constructive multicast-instance generators.

Every model is deterministic for a fixed seed and returns a normalized
instance whose root reaches at least k terminals.
"""

from __future__ import annotations

import random
from typing import Mapping

from .errors import GenerationError
from .graph import MAX_VERTICES, Graph, MulticastInstance, bfs_distances, normalize_terminals

MODELS = ("random-digraph", "layered-dag", "grid", "star-of-stars")

_RETRIES = 64

# random-digraph lists every candidate arc before it samples m of them: at
# most this many, which admits a directed n of 5,793 and an undirected 8,192.
MAX_CANDIDATE_ARCS = 2**25


def generate_instance(model: str, params: Mapping[str, object]) -> MulticastInstance:
    """Build an instance from a named model and its parameter mapping.

    Common parameters: ``seed`` (default 0), ``k`` (default: all terminals),
    ``t`` (terminal count where the model does not fix it), ``directed``
    (model-specific default), ``connected`` (resample until the whole graph
    hangs together; random-digraph only).  Any other key, a non-int count,
    or a non-bool ``directed``/``connected``, is a ValueError.  More than
    MAX_VERTICES vertices, terminal leaves included, is a GenerationError
    raised before any list is built.
    """
    builders = {
        "random-digraph": (_random_digraph, ("n", "m", "t", "k", "directed", "connected")),
        "layered-dag": (_layered_dag, ("width", "depth", "t", "k", "directed")),
        "grid": (_grid, ("w", "h", "t", "k", "directed")),
        "star-of-stars": (_star_of_stars, ("branch", "leaf", "k", "directed")),
    }
    if model not in builders:
        raise ValueError(f"unknown model {model!r}; choose from {', '.join(MODELS)}")
    build, keys = builders[model]
    for key, value in params.items():
        if key != "seed" and key not in keys:
            raise ValueError(f"{model}: unknown parameter {key!r}")
        if key in ("directed", "connected") and not isinstance(value, bool):
            raise ValueError(f"model parameter {key!r} must be true or false, got {value!r}")
    return build(dict(params))


def _int(params: dict, key: str, default=None) -> int:
    if key not in params:
        if default is None:
            raise ValueError(f"model parameter {key!r} is required")
        return int(default)
    value = params[key]
    if type(value) is not int:  # int() would read True as 1 and cut 2.5 to 2
        raise ValueError(f"model parameter {key!r} must be an integer, got {value!r}")
    return value


def _check_size(model: str, count: int, cap: int = MAX_VERTICES, what: str = "vertices") -> None:
    """Reject a count over its cap; a vertex count includes the leaf that
    normalizing attaches to each terminal."""
    if count > cap:
        raise GenerationError(f"{model}: {count} {what} exceed the cap of {cap}")


def _finish(graph: Graph, root: int, terms: list[int], k: int) -> MulticastInstance:
    reachable = bfs_distances(graph, [root]).keys()
    if sum(1 for t in terms if t in reachable) < k:
        raise GenerationError("root cannot reach k terminals")
    return normalize_terminals(MulticastInstance(graph, root, terms, k))


def _random_digraph(params: dict) -> MulticastInstance:
    n = _int(params, "n")
    m = _int(params, "m")
    directed = bool(params.get("directed", True))
    connected = bool(params.get("connected", False))
    seed = _int(params, "seed", 0)
    t = _int(params, "t", max(1, n // 4))
    k = _int(params, "k", t)
    if n < 2 or t > n - 1 or k > t:
        raise GenerationError("random-digraph: need n >= 2 and k <= t <= n - 1")
    _check_size("random-digraph", n + t)
    pairs = n * (n - 1) // (1 if directed else 2)
    _check_size("random-digraph", pairs, MAX_CANDIDATE_ARCS, "candidate arcs")
    rng = random.Random(seed)
    if directed:
        universe = [(u, v) for u in range(n) for v in range(n) if u != v]
    else:
        universe = [(u, v) for u in range(n) for v in range(u + 1, n)]
    if m > len(universe):
        raise GenerationError("random-digraph: m exceeds the number of possible arcs")
    for _ in range(_RETRIES):
        arcs = rng.sample(universe, m)
        graph = Graph(n, arcs, directed)
        terms = rng.sample(range(1, n), t)
        reach = bfs_distances(graph, [0])
        if connected and len(reach) < n:
            continue
        if sum(1 for s in terms if s in reach) >= k:
            return _finish(graph, 0, terms, k)
    raise GenerationError("random-digraph: could not reach k terminals after retries")


def _layered_dag(params: dict) -> MulticastInstance:
    width = _int(params, "width")
    depth = _int(params, "depth")
    directed = bool(params.get("directed", True))
    seed = _int(params, "seed", 0)
    if width < 1 or depth < 1:
        raise GenerationError("layered-dag: need width >= 1 and depth >= 1")
    t = _int(params, "t", width)
    k = _int(params, "k", t)
    if t > width or k > t:
        raise GenerationError("layered-dag: need k <= t <= width")
    _check_size("layered-dag", 1 + width * depth + t)
    rng = random.Random(seed)
    arcs: list[tuple[int, int]] = []
    layers = [[0]]
    nxt = 1
    for _ in range(depth):
        layer = list(range(nxt, nxt + width))
        nxt += width
        for v in layer:
            fanin = rng.randint(1, min(3, len(layers[-1])))
            for u in rng.sample(layers[-1], fanin):
                arcs.append((u, v))
        layers.append(layer)
    terms = sorted(rng.sample(layers[-1], t))
    return _finish(Graph(nxt, arcs, directed), 0, terms, k)


def _grid(params: dict) -> MulticastInstance:
    w = _int(params, "w")
    h = _int(params, "h")
    directed = bool(params.get("directed", False))
    seed = _int(params, "seed", 0)
    if w < 1 or h < 1 or w * h < 2:
        raise GenerationError("grid: need at least two vertices")
    n = w * h
    corners = sorted({w - 1, (h - 1) * w, n - 1} - {0})
    t = _int(params, "t", len(corners))
    if t > n - 1:
        raise GenerationError("grid: t exceeds the number of non-root vertices")
    _check_size("grid", n + t)
    terms = sorted(random.Random(seed).sample(range(1, n), t)) if "t" in params else corners
    k = _int(params, "k", len(terms))
    if k > len(terms):
        raise GenerationError(f"grid: cannot cover k={k} with {len(terms)} terminals")
    arcs = []
    for y in range(h):
        for x in range(w):
            v = y * w + x
            if x + 1 < w:
                arcs.append((v, v + 1))
            if y + 1 < h:
                arcs.append((v, v + w))
    return _finish(Graph(n, arcs, directed), 0, terms, k)


def _star_of_stars(params: dict) -> MulticastInstance:
    branch = _int(params, "branch")
    leaf = _int(params, "leaf")
    directed = bool(params.get("directed", True))
    if branch < 1 or leaf < 1:
        raise GenerationError("star-of-stars: need branch >= 1 and leaf >= 1")
    _check_size("star-of-stars", 1 + branch + 2 * branch * leaf)  # every leaf is a terminal
    arcs = []
    hubs = list(range(1, branch + 1))
    leaves = []
    nxt = branch + 1
    for hub in hubs:
        arcs.append((0, hub))
        for _ in range(leaf):
            arcs.append((hub, nxt))
            leaves.append(nxt)
            nxt += 1
    k = _int(params, "k", len(leaves))
    if k > len(leaves):
        raise GenerationError(f"star-of-stars: cannot cover k={k} with {len(leaves)} terminals")
    return _finish(Graph(nxt, arcs, directed), 0, leaves, k)
