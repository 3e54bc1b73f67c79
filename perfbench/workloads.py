"""The benchmark's workloads: seeded instance corpora for poisekit.

Every instance is generated, relabelled with a seeded permutation of its
non-root vertices, serialized and parsed back through ``jsonio``, and
normalized the way the CLI normalizes input.  The program only ever receives
the resulting ``MulticastInstance``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any

from poisekit.generators import generate_instance
from poisekit.graph import Graph, MulticastInstance, is_normalized, normalize_terminals
from poisekit.jsonio import instance_from_json, instance_to_json


@dataclass(frozen=True)
class Workload:
    """One named workload; perfbench/README.md says why each was chosen."""

    name: str
    # (generator model, parameters), cycled over the corpus.
    rows: tuple[tuple[str, dict[str, Any]], ...]
    # Instances in the corpus.
    size: int
    # True: generator seeds come from --seed.  False: the graphs are the
    # generator's seeds 0..size-1 and --seed only relabels their vertices.
    # Sweep time differs by more than 2x between random graphs of one size,
    # so the sweep workloads keep a fixed set of graphs: what still moves
    # between seeds is the labelling, which drives every tie-break in
    # packing and BFS parent choice.
    seeded_graphs: bool
    # Run the exhaustive oracles and certify the solver against them.
    oracle: bool = False


WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="sweep-dir-random",
        rows=(("random-digraph", {"n": 100, "m": 600, "t": 20, "k": 16}),),
        size=36,
        seeded_graphs=False,
    ),
    Workload(
        name="sweep-dir-layered",
        rows=(("layered-dag", {"width": 90, "depth": 2, "t": 90, "k": 72}),),
        size=4,
        seeded_graphs=False,
    ),
    Workload(
        name="sweep-und-clusters",
        # leaf >= ceil(t^(1/3)) makes every hub a super-terminal; the hubs
        # meet only at the root, so the super-terminal search always fails.
        rows=(("star-of-stars", {"branch": 20, "leaf": 5, "k": 80, "directed": False}),),
        size=3,
        seeded_graphs=False,
    ),
    Workload(
        name="certify",
        rows=(
            ("random-digraph", {"n": 8, "m": 20, "t": 4, "k": 3}),
            ("random-digraph", {"n": 7, "m": 16, "t": 3, "k": 2}),
            ("random-digraph", {"n": 8, "m": 14, "t": 4, "k": 3, "directed": False, "connected": True}),
            ("random-digraph", {"n": 7, "m": 12, "t": 3, "k": 2, "directed": False, "connected": True}),
            ("layered-dag", {"width": 4, "depth": 2, "t": 3, "k": 3}),
            ("layered-dag", {"width": 3, "depth": 2, "t": 3, "k": 2, "directed": False}),
            ("grid", {"w": 3, "h": 3, "k": 3}),
            ("grid", {"w": 3, "h": 3, "t": 3, "k": 2, "directed": True}),
            ("grid", {"w": 2, "h": 4, "t": 3, "k": 3}),
            ("star-of-stars", {"branch": 2, "leaf": 2, "k": 3}),
            ("star-of-stars", {"branch": 2, "leaf": 2, "k": 4, "directed": False}),
            ("star-of-stars", {"branch": 3, "leaf": 1, "k": 2, "directed": False}),
        ),
        size=600,
        seeded_graphs=True,
        oracle=True,
    ),
)}


def relabel(instance: MulticastInstance, rng: random.Random) -> MulticastInstance:
    """The same instance with its non-root vertices permuted by ``rng``."""
    g = instance.graph
    others = [v for v in range(g.n) if v != instance.root]
    shuffled = others[:]
    rng.shuffle(shuffled)
    perm = dict(zip(others, shuffled))
    perm[instance.root] = instance.root
    graph = Graph(g.n, [(perm[u], perm[v]) for u, v in g.arcs], g.directed)
    return MulticastInstance(
        graph, instance.root, [perm[t] for t in instance.terminals], instance.k
    )


def build_corpus(workload: Workload, seed: int) -> list[MulticastInstance]:
    """The workload's corpus for ``seed``: generate, relabel, serialize,
    parse and normalize each instance."""
    rng = random.Random(seed)
    corpus = []
    for i in range(workload.size):
        model, params = workload.rows[i % len(workload.rows)]
        graph_seed = rng.randrange(2**31) if workload.seeded_graphs else i
        generated = generate_instance(model, {**params, "seed": graph_seed})
        parsed = instance_from_json(instance_to_json(relabel(generated, rng)))
        corpus.append(parsed if is_normalized(parsed) else normalize_terminals(parsed))
    return corpus
