"""JSON (de)serialization for instances, trees and schedules.

Key order is fixed and integer lists are sorted so that serialization is
byte-stable for equal values.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

from .graph import MAX_VERTICES, Graph, MulticastInstance, PoiseTree
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


_INSTANCE_FIELDS = ("directed", "n", "edges", "root", "terminals", "k")
# Tree files key each vertex by its id in decimal, without sign or leading zeros.
_VERTEX_KEY = re.compile(r"0|[1-9][0-9]*")
# An error message quotes at most this many characters of the offending value.
_QUOTE_LIMIT = 60


def _quote(value) -> str:
    """The value as JSON, cut to _QUOTE_LIMIT characters plus "..." if longer."""
    text = json.dumps(value)
    return text if len(text) <= _QUOTE_LIMIT else text[:_QUOTE_LIMIT] + "..."


def _integer(value, field: str) -> int:
    # bool is a subclass of int, and a float would be truncated by int().
    if type(value) is not int:
        raise ValueError(f'field "{field}" must be a JSON integer, got {_quote(value)}')
    return value


def _list(value, field: str) -> list:
    if type(value) is not list:
        raise ValueError(f'field "{field}" must be a JSON list, got {_quote(value)}')
    return value


def _pair(value, field: str, names: str) -> tuple[int, int]:
    if type(value) is not list or len(value) != 2:
        raise ValueError(f'field "{field}" must hold [{names}] pairs, got {_quote(value)}')
    if type(value[0]) is not int or type(value[1]) is not int:
        raise ValueError(f'field "{field}" must hold JSON integers, got {_quote(value)}')
    return value[0], value[1]


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    # json.loads would keep a repeated key's last value without a word.
    data = {}
    for key, value in pairs:
        if key in data:
            raise ValueError(f"repeated key {_quote(key)}")
        data[key] = value
    return data


def _object(text: str, what: str, fields: tuple[str, ...]) -> dict:
    """The JSON object in ``text``, checked to hold every named field and no
    repeated key in any object."""
    try:
        data = json.loads(text, object_pairs_hook=_unique_keys)
    except RecursionError:
        # json.loads recurses once per nesting level
        raise ValueError("JSON nested too deeply") from None
    if type(data) is not dict:
        raise ValueError(f"{what} must be a JSON object, got {type(data).__name__}")
    for name in fields:
        if name not in data:
            raise ValueError(f'missing field "{name}"')
    return data


def instance_from_json(text: str) -> MulticastInstance:
    """Parse an instance, checking every field's JSON type in one pass.

    Raises ValueError with a one-line message naming the offending field; the
    graph and instance constructors then check ranges and k.
    """
    data = _object(text, "an instance", _INSTANCE_FIELDS)
    directed = data["directed"]
    if not isinstance(directed, bool):
        raise ValueError(
            f'field "directed" must be a JSON boolean (true or false), got {_quote(directed)}'
        )
    n, root, k = (_integer(data[name], name) for name in ("n", "root", "k"))
    if n > MAX_VERTICES:
        raise ValueError(f'field "n" must be at most {MAX_VERTICES}, got {n}')
    arcs = [_pair(edge, "edges", "u, v") for edge in _list(data["edges"], "edges")]
    terminals: set[int] = set()
    for t in _list(data["terminals"], "terminals"):
        if _integer(t, "terminals") in terminals:
            raise ValueError(f'field "terminals" repeats vertex {t}')
        terminals.add(t)
    return MulticastInstance(Graph(n, arcs, directed), root, terminals, k)


def tree_to_json(tree: PoiseTree) -> str:
    parent = {str(v): tree.parent[v] for v in sorted(tree.parent)}
    return json.dumps({"root": tree.root, "parent": parent})


def tree_from_json(text: str) -> PoiseTree:
    """Parse a tree as strictly as an instance: the root and every parent a
    JSON integer, every key of "parent" a vertex id in decimal ("0", "12")
    other than the root's.  Whether the tree fits an instance is checked by
    `tree_metrics`."""
    data = _object(text, "a tree", ("root", "parent"))
    root = _integer(data["root"], "root")
    if type(data["parent"]) is not dict:
        raise ValueError(f'field "parent" must be a JSON object, got {_quote(data["parent"])}')
    parent = {}
    for key, p in data["parent"].items():
        if not _VERTEX_KEY.fullmatch(key):
            raise ValueError(f'field "parent" must have vertex ids as keys, got {_quote(key)}')
        if int(key) == root:
            raise ValueError(f'field "parent" lists the root {root} as a key')
        parent[int(key)] = _integer(p, "parent")
    return PoiseTree(root, parent)


def schedule_to_json(schedule: Schedule) -> str:
    return json.dumps({"rounds": [[[s, r] for s, r in rnd] for rnd in schedule.rounds]})


def schedule_from_json(text: str) -> Schedule:
    """Parse a schedule: "rounds" a list of rounds, each a list of
    [sender, receiver] pairs of JSON integers."""
    rounds = _list(_object(text, "a schedule", ("rounds",))["rounds"], "rounds")
    return Schedule(tuple(
        tuple(_pair(call, "rounds", "sender, receiver") for call in _list(rnd, "rounds"))
        for rnd in rounds
    ))


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
