import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poisekit import Graph, MulticastInstance, PoiseTree, Schedule
from poisekit import jsonio

from conftest import MALFORMED_INSTANCES, MALFORMED_SCHEDULES, MALFORMED_TREES, random_graph


def test_instance_round_trip():
    g = Graph(5, [(0, 1), (0, 2), (1, 3), (2, 4)], directed=True)
    inst = MulticastInstance(g, 0, {3, 4}, 2)
    back = jsonio.instance_from_json(jsonio.instance_to_json(inst))
    assert back.graph.arcs == inst.graph.arcs
    assert back.graph.directed == inst.graph.directed
    assert (back.root, back.terminals, back.k) == (inst.root, inst.terminals, inst.k)


def test_instance_key_order_is_stable():
    g = Graph(2, [(0, 1)], directed=False)
    text = jsonio.instance_to_json(MulticastInstance(g, 0, {1}, 1))
    assert list(json.loads(text)) == ["directed", "n", "edges", "root", "terminals", "k"]


def test_tree_round_trip():
    tree = PoiseTree(0, {1: 0, 2: 0, 10: 2})
    back = jsonio.tree_from_json(jsonio.tree_to_json(tree))
    assert back.root == 0 and back.parent == tree.parent


def test_schedule_round_trip():
    sched = Schedule((((0, 1),), ((0, 2), (1, 3))))
    back = jsonio.schedule_from_json(jsonio.schedule_to_json(sched))
    assert back == sched


def test_serialization_is_deterministic():
    g = Graph(4, [(2, 3), (0, 1), (1, 2)], directed=True)
    inst = MulticastInstance(g, 0, {3, 2}, 1)
    assert jsonio.instance_to_json(inst) == jsonio.instance_to_json(inst)


@given(st.integers(2, 12), st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_random_instances_round_trip(n, seed):
    rng = random.Random(seed)
    g = random_graph(rng, n, rng.randint(1, 2 * n), rng.random() < 0.5)
    terms = set(rng.sample(range(1, n), rng.randint(1, n - 1)))
    inst = MulticastInstance(g, 0, terms, rng.randint(1, len(terms)))
    back = jsonio.instance_from_json(jsonio.instance_to_json(inst))
    assert back.graph.arcs == inst.graph.arcs
    assert back.terminals == inst.terminals


@pytest.mark.parametrize(
    "text, needle", [case[1:] for case in MALFORMED_INSTANCES],
    ids=[case[0] for case in MALFORMED_INSTANCES],
)
def test_malformed_instance_rejected_naming_the_field(text, needle):
    with pytest.raises(ValueError) as info:
        jsonio.instance_from_json(text)
    message = str(info.value)
    assert needle in message and "\n" not in message


@pytest.mark.parametrize(
    "text, needle", [case[1:] for case in MALFORMED_TREES],
    ids=[case[0] for case in MALFORMED_TREES],
)
def test_malformed_tree_rejected_naming_the_field(text, needle):
    with pytest.raises(ValueError) as info:
        jsonio.tree_from_json(text)
    message = str(info.value)
    assert needle in message and "\n" not in message


@pytest.mark.parametrize(
    "text, needle", [case[1:] for case in MALFORMED_SCHEDULES],
    ids=[case[0] for case in MALFORMED_SCHEDULES],
)
def test_malformed_schedule_rejected_naming_the_field(text, needle):
    with pytest.raises(ValueError) as info:
        jsonio.schedule_from_json(text)
    message = str(info.value)
    assert needle in message and "\n" not in message


def test_long_offending_value_is_cut_in_the_message():
    # quoted whole, this value made a 600,080-character message
    text = json.dumps({"directed": True, "n": [0] * 200_000, "edges": [],
                       "root": 0, "terminals": [1], "k": 1})
    with pytest.raises(ValueError) as info:
        jsonio.instance_from_json(text)
    message = str(info.value)
    assert message.startswith('field "n" must be a JSON integer, got [0, 0, 0')
    assert message.endswith("...") and len(message) <= 200
