import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poisekit import (
    Graph,
    MulticastInstance,
    PoiseTree,
    bfs_distances,
    bfs_parents,
    is_normalized,
    normalize_terminals,
    prune_beyond,
    shortest_path_tree,
    tree_metrics,
)
from poisekit.errors import InfeasibleGuessError
from poisekit.oracle import poise_feasible

from conftest import floyd_warshall, random_graph


def path_graph(n: int, directed: bool = True) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)], directed)


class TestGraph:
    def test_rejects_self_loops(self):
        with pytest.raises(ValueError):
            Graph(3, [(0, 0)], directed=True)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Graph(2, [(0, 2)], directed=True)

    def test_undirected_adjacency_is_symmetric(self):
        g = Graph(3, [(0, 1), (2, 1)], directed=False)
        assert g.has_arc(0, 1) and g.has_arc(1, 0)
        assert g.has_arc(1, 2) and g.has_arc(2, 1)
        assert len(g.arcs) == 2  # stored once each

    def test_directed_adjacency_is_oriented(self):
        g = Graph(3, [(0, 1)], directed=True)
        assert g.has_arc(0, 1) and not g.has_arc(1, 0)


class TestInstance:
    def test_root_cannot_be_terminal(self):
        g = path_graph(2)
        with pytest.raises(ValueError):
            MulticastInstance(g, 0, {0}, 1)

    def test_k_bounds(self):
        g = path_graph(3)
        with pytest.raises(ValueError):
            MulticastInstance(g, 0, {1, 2}, 3)
        with pytest.raises(ValueError):
            MulticastInstance(g, 0, {1, 2}, 0)


class TestBfsDistances:
    def test_path_distances(self):
        g = path_graph(3)
        assert bfs_distances(g, {0}) == {0: 0, 1: 1, 2: 2}

    def test_sink_has_no_outgoing(self):
        g = path_graph(3)
        assert bfs_distances(g, {2}) == {2: 0}

    def test_restriction_disconnects(self):
        g = path_graph(3)
        assert bfs_distances(g, {0}, restriction={0, 2}) == {0: 0}

    def test_empty_sources_rejected(self):
        with pytest.raises(ValueError):
            bfs_distances(path_graph(2), set())

    def test_sources_outside_restriction_rejected(self):
        with pytest.raises(ValueError):
            bfs_distances(path_graph(3), {0}, restriction={1, 2})

    def test_matches_floyd_warshall_on_random_graphs(self):
        rng = random.Random(7)
        for _ in range(60):
            n = rng.randint(2, 10)
            directed = rng.random() < 0.5
            g = random_graph(rng, n, rng.randint(1, 2 * n), directed)
            ref = floyd_warshall(g)
            src = rng.randrange(n)
            got = bfs_distances(g, {src})
            for v in range(n):
                if ref[src][v] >= 10**9:
                    assert v not in got
                else:
                    assert got[v] == ref[src][v]

    def test_depth_bound_keeps_the_near_part(self):
        rng = random.Random(11)
        for _ in range(60):
            n = rng.randint(2, 12)
            g = random_graph(rng, n, rng.randint(1, 2 * n), rng.random() < 0.5)
            restriction = {v for v in range(n) if v == 0 or rng.random() < 0.8}
            depth = rng.randint(0, 4)
            dist, parent = bfs_parents(g, {0}, restriction)
            near_dist, near_parent = bfs_parents(g, {0}, restriction, max_depth=depth)
            assert near_dist == {v: d for v, d in dist.items() if d <= depth}
            assert near_parent == {v: p for v, p in parent.items() if v in near_dist}


class TestShortestPathTree:
    def test_prefers_shorter_path(self):
        g = Graph(3, [(0, 1), (0, 2), (1, 2)], directed=True)
        tree = shortest_path_tree(g, {(0, 1), (0, 2), (1, 2)}, 0)
        assert tree.parent == {1: 0, 2: 0}
        assert tree.height() == 1

    def test_empty_subset_gives_single_vertex(self):
        g = path_graph(2)
        tree = shortest_path_tree(g, set(), 0)
        assert tree.parent == {} and tree.vertices() == {0}

    def test_diamond_tie_breaks_to_lowest_id(self):
        g = Graph(4, [(0, 1), (0, 2), (1, 3), (2, 3)], directed=True)
        tree = shortest_path_tree(g, set(g.arcs), 0)
        assert tree.parent[3] == 1
        assert tree.height() == 2

    def test_rejects_arcs_not_in_graph(self):
        g = path_graph(3)
        with pytest.raises(ValueError):
            shortest_path_tree(g, {(0, 2)}, 0)

    def test_depths_match_subgraph_distances(self):
        rng = random.Random(3)
        for _ in range(40):
            n = rng.randint(2, 9)
            g = random_graph(rng, n, rng.randint(1, 2 * n), rng.random() < 0.5)
            arcs = set(rng.sample(list(g.arcs), rng.randint(1, len(g.arcs)))) if g.arcs else set()
            tree = shortest_path_tree(g, arcs, 0)
            sub_vertices = {0} | {u for a in arcs for u in a}
            sub = Graph(n, arcs, g.directed)
            dist = bfs_distances(sub, {0}, restriction=sub_vertices)
            depths = tree.depths()
            assert set(depths) == set(dist)
            for v, d in depths.items():
                assert dist[v] == d


class TestNormalizeTerminals:
    def test_single_attachment(self):
        inst = MulticastInstance(path_graph(2), 0, {1}, 1)
        norm = normalize_terminals(inst)
        assert norm.graph.n == 3
        assert norm.terminals == {2}
        assert (1, 2) in norm.graph.arcs
        assert norm.k == 1

    def test_star_attachment(self):
        g = Graph(3, [(0, 1), (0, 2)], directed=True)
        norm = normalize_terminals(MulticastInstance(g, 0, {1, 2}, 2))
        assert norm.graph.n == 5
        assert norm.terminals == {3, 4}
        assert (1, 3) in norm.graph.arcs and (2, 4) in norm.graph.arcs

    def test_root_relabeled_to_zero(self):
        g = Graph(3, [(2, 1), (1, 0)], directed=True)
        norm = normalize_terminals(MulticastInstance(g, 2, {0}, 1))
        assert norm.root == 0
        assert is_normalized(norm)

    def test_output_shape(self):
        inst = MulticastInstance(path_graph(4, directed=False), 0, {2, 3}, 2)
        norm = normalize_terminals(inst)
        assert is_normalized(norm)

    def test_feasibility_shifts_by_at_most_one(self):
        # budgets feasible on the original stay feasible after attaching
        # leaves with one extra hop and one extra child; and any normalized
        # tree strips back to an original tree within the same budgets
        rng = random.Random(21)
        checked = 0
        while checked < 25:
            n = rng.randint(3, 6)
            directed = rng.random() < 0.5
            g = random_graph(rng, n, rng.randint(n - 1, 2 * n), directed)
            terms = set(rng.sample(range(1, n), rng.randint(1, min(2, n - 1))))
            k = rng.randint(1, len(terms))
            inst = MulticastInstance(g, 0, terms, k)
            norm = normalize_terminals(inst)
            if norm.graph.n > 8 + 2:
                continue
            checked += 1
            for B in range(1, n):
                for D in range(1, n):
                    if poise_feasible(inst, B, D):
                        assert poise_feasible(norm, B + 1, D + 1)
                    if poise_feasible(norm, B, D):
                        assert poise_feasible(inst, B, D)


class TestPruneBeyond:
    def test_terminal_out_of_radius_is_infeasible(self):
        inst = MulticastInstance(path_graph(4), 0, {3}, 1)
        with pytest.raises(InfeasibleGuessError):
            prune_beyond(inst, 2)

    def test_radius_large_enough_changes_nothing(self):
        inst = MulticastInstance(path_graph(4), 0, {3}, 1)
        pruned = prune_beyond(inst, 3)
        assert pruned.graph.arcs == inst.graph.arcs
        assert pruned.terminals == inst.terminals

    def test_dangling_branch_removed(self):
        arcs = [(0, 1), (1, 2), (2, 3), (3, 4)]  # branch beyond radius
        g = Graph(6, arcs + [(2, 5)], directed=True)
        inst = MulticastInstance(g, 0, {5}, 1)
        pruned = prune_beyond(inst, 3)
        assert (3, 4) not in pruned.graph.arcs
        assert pruned.terminals == {5}
        assert pruned.k == 1

    def test_never_removes_vertices_of_short_trees(self):
        # any tree of height <= D rooted at the root survives pruning intact
        rng = random.Random(9)
        for _ in range(40):
            n = rng.randint(3, 8)
            g = random_graph(rng, n, rng.randint(n, 3 * n), rng.random() < 0.5)
            reach = bfs_distances(g, {0})
            if len(reach) < 2:
                continue
            far = max(reach.values())
            D = rng.randint(1, far)
            inside = {v for v, d in reach.items() if d <= D}
            terms = inside - {0}
            if not terms:
                continue
            inst = MulticastInstance(g, 0, terms, 1)
            pruned = prune_beyond(inst, D)
            for v in inside:
                if v == 0:
                    continue
                # v still reachable within D in the pruned graph
                assert bfs_distances(pruned.graph, {0}).get(v, 10**9) <= D


class TestTreeMetrics:
    def test_star(self):
        g = Graph(4, [(0, 1), (0, 2), (0, 3)], directed=True)
        inst = MulticastInstance(g, 0, {1, 2, 3}, 3)
        tree = PoiseTree(0, {1: 0, 2: 0, 3: 0})
        m = tree_metrics(tree, inst)
        assert (m.max_out_degree, m.height, m.poise, m.terminals_covered) == (3, 1, 4, 3)

    def test_path(self):
        inst = MulticastInstance(path_graph(5), 0, {4}, 1)
        tree = PoiseTree(0, {1: 0, 2: 1, 3: 2, 4: 3})
        m = tree_metrics(tree, inst)
        assert (m.max_out_degree, m.height, m.poise, m.terminals_covered) == (1, 4, 5, 1)

    def test_degenerate_single_vertex(self):
        inst = MulticastInstance(path_graph(2), 0, {1}, 1)
        m = tree_metrics(PoiseTree(0), inst)
        assert (m.max_out_degree, m.height, m.poise, m.terminals_covered) == (0, 0, 0, 0)

    def test_arc_not_in_graph_rejected(self):
        inst = MulticastInstance(path_graph(3), 0, {2}, 1)
        with pytest.raises(ValueError):
            tree_metrics(PoiseTree(0, {2: 0}), inst)

    def test_spt_of_tree_arcs_never_worse(self):
        rng = random.Random(14)
        for _ in range(40):
            n = rng.randint(2, 10)
            parent = {v: rng.randrange(v) for v in range(1, n)}
            g = Graph(n, [(p, v) for v, p in parent.items()], directed=True)
            inst = MulticastInstance(g, 0, range(1, n), n - 1)
            tree = PoiseTree(0, parent)
            rebuilt = shortest_path_tree(g, tree.arcs(), 0)
            a, b = tree_metrics(tree, inst), tree_metrics(rebuilt, inst)
            assert b.height <= a.height
            assert b.max_out_degree <= a.max_out_degree


@given(st.integers(2, 30), st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_bfs_never_exceeds_arc_count_hops(n, seed):
    rng = random.Random(seed)
    g = random_graph(rng, n, rng.randint(1, 3 * n), rng.random() < 0.5)
    dist = bfs_distances(g, {0})
    assert all(0 <= d < n for d in dist.values())
    assert dist[0] == 0
