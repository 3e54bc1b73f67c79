import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poisekit import bfs_distances, generate_instance, is_normalized
from poisekit.errors import GenerationError
from poisekit.generators import _decode_arcs


class TestStarOfStars:
    def test_constructive_counts(self):
        inst = generate_instance("star-of-stars", {"branch": 3, "leaf": 2, "k": 6})
        assert len(inst.terminals) == 6
        assert is_normalized(inst)
        reach = bfs_distances(inst.graph, {inst.root})
        assert all(t in reach for t in inst.terminals)
        # 1 root + 3 hubs + 6 leaves + 6 attached terminals
        assert inst.graph.n == 16

    def test_k_too_large(self):
        with pytest.raises(GenerationError):
            generate_instance("star-of-stars", {"branch": 2, "leaf": 2, "k": 5})


class TestRandomDigraph:
    def test_deterministic_for_fixed_seed(self):
        params = {"n": 20, "m": 60, "t": 5, "k": 3, "seed": 7}
        a = generate_instance("random-digraph", params)
        b = generate_instance("random-digraph", params)
        assert a.graph.arcs == b.graph.arcs
        assert a.terminals == b.terminals and a.k == b.k

    def test_root_reaches_k_terminals(self):
        inst = generate_instance("random-digraph", {"n": 12, "m": 30, "t": 4, "k": 3, "seed": 5})
        reach = bfs_distances(inst.graph, {inst.root})
        assert sum(1 for t in inst.terminals if t in reach) >= 3

    def test_undirected_connected_option(self):
        inst = generate_instance(
            "random-digraph",
            {"n": 8, "m": 14, "t": 3, "k": 2, "seed": 1, "directed": False, "connected": True},
        )
        assert not inst.graph.directed
        assert len(bfs_distances(inst.graph, {inst.root})) == inst.graph.n


@given(
    n=st.integers(2, 40),
    directed=st.booleans(),
    seed=st.integers(0, 10**6),
    share=st.floats(0, 1),
)
@settings(max_examples=200, deadline=None)
def test_arc_sample_matches_list_sample_reference(n, directed, seed, share):
    # sampling indices and decoding them picks the arcs, in the order, that
    # sampling the full row-major candidate list picks, and leaves the same
    # generator state for the terminal draw
    if directed:
        universe = [(u, v) for u in range(n) for v in range(n) if u != v]
    else:
        universe = [(u, v) for u in range(n) for v in range(u + 1, n)]
    m = round(share * len(universe))
    want_rng, got_rng = random.Random(seed), random.Random(seed)
    want = want_rng.sample(universe, m)
    got = _decode_arcs(got_rng.sample(range(len(universe)), m), n, directed)
    assert got == want
    assert got_rng.getstate() == want_rng.getstate()


class TestGrid:
    def test_default_terminals_are_corners(self):
        inst = generate_instance("grid", {"w": 2, "h": 2, "k": 3})
        assert len(inst.terminals) == 3

    def test_unreachable_k(self):
        with pytest.raises(GenerationError):
            generate_instance("grid", {"w": 2, "h": 2, "k": 5})


class TestLayeredDag:
    def test_all_terminals_reachable(self):
        inst = generate_instance("layered-dag", {"width": 3, "depth": 3, "t": 3, "k": 2, "seed": 2})
        reach = bfs_distances(inst.graph, {inst.root})
        assert all(t in reach for t in inst.terminals)
        assert is_normalized(inst)


class TestParameterChecks:
    @pytest.mark.parametrize("model, params", [
        ("grid", {"w": 3, "h": 3, "directed": "no"}),
        ("grid", {"w": 3, "h": 3, "directed": 0}),
        ("random-digraph", {"n": 8, "m": 14, "connected": "yes"}),
        ("layered-dag", {"width": 3, "depth": 2, "directed": 1}),
        ("star-of-stars", {"branch": 2, "leaf": 2, "directed": None}),
    ])
    def test_non_boolean_flag_rejected(self, model, params):
        with pytest.raises(ValueError, match="must be true or false"):
            generate_instance(model, params)

    @pytest.mark.parametrize("params", [
        {"w": True, "h": 3}, {"w": 3, "h": 2.5}, {"w": 3, "h": "3"}, {"w": 3, "h": 3, "seed": 1.0},
    ])
    def test_non_integer_count_rejected(self, params):
        with pytest.raises(ValueError, match="must be an integer"):
            generate_instance("grid", params)

    @pytest.mark.parametrize("model, params, key", [
        ("grid", {"w": 3, "h": 3, "direction": True}, "direction"),
        ("grid", {"w": 3, "h": 3, "connected": True}, "connected"),
        ("star-of-stars", {"branch": 2, "leaf": 2, "t": 3}, "t"),
        ("layered-dag", {"width": 3, "depth": 2, "widht": 4}, "widht"),
    ])
    def test_unknown_key_rejected(self, model, params, key):
        with pytest.raises(ValueError, match=f"unknown parameter '{key}'"):
            generate_instance(model, params)

    def test_seed_is_valid_for_every_model(self):
        inst = generate_instance("star-of-stars", {"branch": 2, "leaf": 2, "seed": 5})
        assert inst == generate_instance("star-of-stars", {"branch": 2, "leaf": 2})

    @pytest.mark.parametrize("model, params", [
        ("grid", {"w": 100000, "h": 100000, "k": 1}),
        ("grid", {"w": 1000, "h": 1000, "t": 1}),  # 10**6 vertices plus one leaf
        ("layered-dag", {"width": 500000, "depth": 2, "t": 1}),
        ("star-of-stars", {"branch": 1000, "leaf": 1000}),
        ("random-digraph", {"n": 10**6, "m": 1, "t": 1}),
    ])
    def test_oversize_instance_rejected_before_building(self, model, params):
        with pytest.raises(GenerationError, match="vertices exceed the cap of 1000000"):
            generate_instance(model, params)

    @pytest.mark.parametrize("n, directed", [(5794, True), (8193, False)])
    def test_random_digraph_arc_count_is_capped(self, n, directed):
        # n(n-1) directed or n(n-1)/2 undirected pairs, more than 2**25: m
        # may not be one past the cap
        with pytest.raises(GenerationError, match="33554433 arcs exceed the cap of 33554432"):
            generate_instance("random-digraph", {"n": n, "m": 2**25 + 1, "directed": directed})

    def test_random_digraph_past_the_candidate_count_is_generated(self):
        # 6000 * 5999 candidate arcs: only the m sampled ones are built
        inst = generate_instance("random-digraph", {"n": 6000, "m": 18000, "t": 64, "k": 32})
        assert len(inst.graph.arcs) == 18000 + 64


def test_unknown_model_rejected():
    with pytest.raises(ValueError):
        generate_instance("bogus", {})
