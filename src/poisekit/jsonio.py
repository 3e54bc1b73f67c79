"""JSON (de)serialization for instances, trees and schedules.

Key order is fixed and integer lists are sorted so that serialization is
byte-stable for equal values.
"""

from __future__ import annotations

import json
from pathlib import Path

from .graph import Graph, MulticastInstance, PoiseTree
from .scheduling import Schedule


def instance_to_json(instance: MulticastInstance) -> str:
    g = instance.graph
    payload = {
        "directed": g.directed,
        "n": g.n,
        "edges": [[u, v] for u, v in g.arcs],
        "root": instance.root,
        "terminals": sorted(instance.terminals),
        "k": instance.k,
    }
    return json.dumps(payload)


def instance_from_json(text: str) -> MulticastInstance:
    data = json.loads(text)
    directed = data["directed"]
    if not isinstance(directed, bool):
        raise ValueError(
            f'field "directed" must be a JSON boolean (true or false), got {json.dumps(directed)}'
        )
    graph = Graph(int(data["n"]), [tuple(e) for e in data["edges"]], directed)
    return MulticastInstance(graph, int(data["root"]), [int(t) for t in data["terminals"]], int(data["k"]))


def tree_to_json(tree: PoiseTree) -> str:
    parent = {str(v): tree.parent[v] for v in sorted(tree.parent)}
    return json.dumps({"root": tree.root, "parent": parent})


def tree_from_json(text: str) -> PoiseTree:
    data = json.loads(text)
    return PoiseTree(int(data["root"]), {int(v): int(p) for v, p in data["parent"].items()})


def schedule_to_json(schedule: Schedule) -> str:
    return json.dumps({"rounds": [[[s, r] for s, r in rnd] for rnd in schedule.rounds]})


def schedule_from_json(text: str) -> Schedule:
    data = json.loads(text)
    return Schedule(tuple(tuple((int(s), int(r)) for s, r in rnd) for rnd in data["rounds"]))


def load_instance(path: str | Path) -> MulticastInstance:
    return instance_from_json(Path(path).read_text())


def save_instance(instance: MulticastInstance, path: str | Path) -> None:
    Path(path).write_text(instance_to_json(instance) + "\n")


def load_tree(path: str | Path) -> PoiseTree:
    return tree_from_json(Path(path).read_text())


def save_tree(tree: PoiseTree, path: str | Path) -> None:
    Path(path).write_text(tree_to_json(tree) + "\n")


def load_schedule(path: str | Path) -> Schedule:
    return schedule_from_json(Path(path).read_text())


def save_schedule(schedule: Schedule, path: str | Path) -> None:
    Path(path).write_text(schedule_to_json(schedule) + "\n")
