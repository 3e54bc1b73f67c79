import random
from collections import deque

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
from poisekit.graph import TreeMetrics, arc_keys, reach_labels, spt_metrics, subset_bfs_parents
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

    @pytest.mark.parametrize("directed", [True, False])
    @pytest.mark.parametrize("arcs, message", [
        # an unchecked key u * n + v would read (1, -1) as the arc (0, 2)
        ([(0, 1), (1, -1), (2, 2)], "arc (1, -1) out of range for n=3"),
        ([(0, 1), (2, 2), (1, -1)], "self-loop at vertex 2"),
        ([(1, 0), (0, 3), (1, 1)], "arc (0, 3) out of range for n=3"),
        ([(2, 1), (-1, 0), (0, 5)], "arc (-1, 0) out of range for n=3"),
        # True == 1 would read as the arc (0, 1); 1.0 would reach the row fill
        ([(0, 2), (0, True), (1, 1)], "arc (0, True) has an endpoint that is not an int"),
        ([(1.0, 2), (0, 1)], "arc (1.0, 2) has an endpoint that is not an int"),
        ([(0, 1), (2, "1"), (1, -1)], "arc (2, '1') has an endpoint that is not an int"),
    ])
    def test_first_bad_arc_in_input_order_is_named(self, arcs, message, directed):
        with pytest.raises(ValueError) as info:
            Graph(3, arcs, directed)
        assert str(info.value) == message

    @pytest.mark.parametrize("u, v", [(-1, 1), (3, 1), (0, -2), (0, 3)])
    def test_has_arc_is_false_off_the_vertex_range(self, u, v):
        # vertex -1 must not read vertex 2's adjacency, which holds the arc (2, 1)
        g = Graph(3, [(0, 1), (2, 1)], directed=True)
        assert not g.has_arc(u, v)


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


def graph_fields(graph: Graph):
    return (
        graph.n, graph.directed, graph.arcs,
        [graph.out_neighbors(v) for v in graph.vertices()],
        [graph.in_neighbors(v) for v in graph.vertices()],
    )


@given(n=st.integers(1, 20), seed=st.integers(0, 10**6), directed=st.booleans())
@settings(max_examples=200, deadline=None)
def test_construction_matches_sorted_canonical_pairs(n, seed, directed):
    rng = random.Random(seed)
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    arcs = rng.sample(pairs, rng.randint(0, min(len(pairs), 3 * n)))
    if not directed:
        arcs += [(v, u) for u, v in arcs if rng.random() < 0.5]  # both orientations
    arcs += [rng.choice(arcs) for _ in range(rng.randint(0, len(arcs)))]  # repeats
    rng.shuffle(arcs)
    canonical = sorted({(u, v) if directed or u < v else (v, u) for u, v in arcs})
    out = [[] for _ in range(n)]
    inc = [[] for _ in range(n)]
    for u, v in canonical:
        out[u].append(v)
        inc[v].append(u)
        if not directed:
            out[v].append(u)
            inc[u].append(v)
    g = Graph(n, arcs, directed)
    assert (g.n, g.directed, g.arcs) == (n, directed, tuple(canonical))
    assert g._out == tuple(tuple(sorted(row)) for row in out)
    assert g._in == tuple(tuple(sorted(row)) for row in inc)
    if not directed:
        assert g._in is g._out


@given(n=st.integers(1, 20), seed=st.integers(0, 10**6), directed=st.booleans())
@settings(max_examples=200, deadline=None)
def test_induced_equals_rebuilt_graph(n, seed, directed):
    rng = random.Random(seed)
    # sparse draws leave vertices the root cannot reach
    g = random_graph(rng, n, rng.randint(0, 3 * n), directed)
    if rng.random() < 0.5:
        keep = {v for v in range(n) if rng.random() < 0.6}
    else:
        radius = rng.randint(0, n)
        keep = {v for v, d in bfs_distances(g, {0}).items() if d <= radius}
    sub = g.induced(keep)
    rebuilt = Graph(n, [(u, v) for u, v in g.arcs if u in keep and v in keep], directed)
    assert graph_fields(sub) == graph_fields(rebuilt)
    assert sub == rebuilt
    if not directed:  # one adjacency answers both directions, in each copy
        for graph in (g, sub):
            assert all(graph.in_neighbors(v) is graph.out_neighbors(v) for v in range(n))


@pytest.mark.parametrize("directed", [True, False])
def test_induced_on_every_vertex_is_the_graph_itself(directed):
    g = path_graph(4, directed)
    assert g.induced(set(range(4))) is g
    assert g.induced(frozenset(range(-1, 5))) is g
    # as many ids as vertices, but one out of range: a vertex is missing
    for keep, arcs in [({0, 1, 2, 4}, [(0, 1), (1, 2)]), ({-1, 1, 2, 3}, [(1, 2), (2, 3)])]:
        sub = g.induced(frozenset(keep))
        assert sub is not g
        assert graph_fields(sub) == graph_fields(Graph(4, arcs, directed))


@given(n=st.integers(2, 20), seed=st.integers(0, 10**6), directed=st.booleans())
@settings(max_examples=150, deadline=None)
def test_shared_root_distances_prune_the_same(n, seed, directed):
    rng = random.Random(seed)
    g = random_graph(rng, n, rng.randint(1, 3 * n), directed)
    # terminals drawn from all vertices, so some may be unreachable
    terms = set(rng.sample(range(1, n), rng.randint(1, n - 1)))
    inst = MulticastInstance(g, 0, terms, rng.randint(1, len(terms)))
    dist = bfs_distances(g, [0])
    for D in range(1, max(dist.values()) + 2):
        try:
            want = prune_beyond(inst, D)
        except InfeasibleGuessError as exc:
            with pytest.raises(InfeasibleGuessError) as info:
                prune_beyond(inst, D, dist)
            assert str(info.value) == str(exc)
            continue
        got = prune_beyond(inst, D, dist)
        assert graph_fields(got.graph) == graph_fields(want.graph)
        assert (got.root, got.terminals, got.k) == (want.root, want.terminals, want.k)


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


def reference_bfs_parents(graph, sources, restriction=None, max_depth=None):
    """Reference in two passes: distances first, then each reached vertex's
    lowest-id in-neighbour one level up, read from ``in_neighbors``."""
    src = sorted(set(sources))
    dist = {s: 0 for s in src}
    queue = deque(src)
    while queue:
        u = queue.popleft()
        d = dist[u] + 1
        if max_depth is not None and d > max_depth:
            break
        for v in graph.out_neighbors(u):
            if v in dist or (restriction is not None and v not in restriction):
                continue
            dist[v] = d
            queue.append(v)
    parent = {}
    for v, d in dist.items():
        if v in src:
            continue
        parent[v] = min(
            u for u in graph.in_neighbors(v)
            if dist.get(u) == d - 1 and (restriction is None or u in restriction)
        )
    return dist, parent


def reference_subset_bfs_parents(graph, edge_subset, sources):
    """Reference over an arc subset: distances over the subset's successor
    lists, then each reached vertex's lowest-id predecessor one level up."""
    out, inc = {}, {}
    for u, v in edge_subset:
        for a, b in [(u, v)] if graph.directed else [(u, v), (v, u)]:
            out.setdefault(a, set()).add(b)
            inc.setdefault(b, set()).add(a)
    dist = {s: 0 for s in sources}
    queue = deque(sorted(dist))
    while queue:
        u = queue.popleft()
        for v in sorted(out.get(u, ())):
            if v not in dist:
                dist[v] = dist[u] + 1
                queue.append(v)
    return {v: min(u for u in inc[v] if dist.get(u) == d - 1) for v, d in dist.items() if d}


class TestBfsKernel:
    def test_later_queued_lower_id_parent_wins(self):
        # 4 is queued before 3 (their parents 1 and 2 are), so 4 discovers 5
        # first; the lowest-id parent of 5 is still 3
        g = Graph(6, [(0, 1), (0, 2), (1, 4), (2, 3), (3, 5), (4, 5)], directed=True)
        dist, parent = bfs_parents(g, {0})
        assert list(dist) == [0, 1, 2, 4, 3, 5]
        assert parent[5] == 3
        assert subset_bfs_parents(g, g.arcs, [0])[5] == 3

    def test_subset_without_sources_has_no_parents(self):
        assert subset_bfs_parents(path_graph(3), {(0, 1)}, []) == {}

    @pytest.mark.parametrize("arcs, bad", [
        ([(-1, 1), (0, 1)], (-1, 1)),  # vertex 2's row holds the arc (2, 1)
        ([(3, 1)], (3, 1)),
        ([(0, 1), (0, 3)], (0, 3)),
    ])
    def test_subset_tail_off_the_vertex_range_is_named(self, arcs, bad):
        g = Graph(3, [(0, 1), (2, 1)], directed=True)
        with pytest.raises(ValueError) as info:
            shortest_path_tree(g, arcs, 0)
        assert str(info.value) == f"arc {bad} not present in the graph"

    def test_subset_head_that_is_not_a_vertex_is_named(self):
        g = Graph(3, [(0, 1), (2, 1)], directed=True)
        with pytest.raises(ValueError) as info:
            shortest_path_tree(g, [(0, 1), (0, "1")], 0)
        assert str(info.value) == "arc (0, 1) not present in the graph"

    @pytest.mark.parametrize("directed", [True, False])
    def test_a_rows_base_arc_off_the_graph_is_named(self, directed):
        # a round's own arcs are encoded with its base, once, and checked there
        from poisekit.directed import Round

        g = Graph(4, [(0, 1), (1, 2), (2, 3)], directed)
        packing = Round(g, 0, {0, 1}, [(0, 1), (1, 3)], {3}, rho=2, D=2, k=1)
        with pytest.raises(ValueError) as info:
            packing.base
        assert str(info.value) == "arc (1, 3) not present in the graph"


def cut_at_targets(dist, parent, wanted, need):
    """A full search's (dist, parent) cut after the first level by which
    ``need`` vertices of ``wanted`` are reached; uncut when never."""
    levels = sorted(d for v, d in dist.items() if v in wanted)
    if need > len(levels):
        return dist, parent
    stop = levels[need - 1] if need else 0
    dist = {v: d for v, d in dist.items() if d <= stop}
    return dist, {v: p for v, p in parent.items() if v in dist}


@given(
    n=st.integers(2, 16),
    seed=st.integers(0, 10**6),
    directed=st.booleans(),
    bounded=st.booleans(),
    targeted=st.booleans(),
)
@settings(max_examples=300, deadline=None)
def test_bfs_kernel_matches_two_pass_references(n, seed, directed, bounded, targeted):
    rng = random.Random(seed)
    g = random_graph(rng, n, rng.randint(1, 3 * n), directed)
    sources = set(rng.sample(range(n), rng.randint(1, min(3, n))))
    restriction = None
    if rng.random() < 0.5:
        restriction = sources | {v for v in range(n) if rng.random() < 0.7}
    depth = rng.randint(0, n) if bounded else None
    targets = None
    if targeted:
        wanted = {v for v in range(n) if rng.random() < 0.4}
        targets = (wanted, rng.randint(0, len(wanted) + 1))
    # a relabelled copy: queue order no longer follows vertex ids
    perm = list(range(n))
    rng.shuffle(perm)
    h = Graph(n, [(perm[u], perm[v]) for u, v in g.arcs], directed)
    for graph in (g, h):
        ref_dist, ref_parent = reference_bfs_parents(graph, sources, restriction, depth)
        dist, parent = bfs_parents(graph, sources, restriction, depth)
        assert list(dist.items()) == list(ref_dist.items())
        assert list(parent.items()) == list(ref_parent.items())
        assert list(bfs_distances(graph, sources, restriction, depth).items()) == list(
            ref_dist.items()
        )
        if targets is not None:
            # stopping at the targets keeps the full search's entries up to
            # its stop level, in the same order
            cut_dist, cut_parent = cut_at_targets(ref_dist, ref_parent, *targets)
            dist, parent = bfs_parents(graph, sources, restriction, depth, targets)
            assert list(dist.items()) == list(cut_dist.items())
            assert list(parent.items()) == list(cut_parent.items())
        arcs = rng.sample(list(graph.arcs), rng.randint(0, len(graph.arcs)))
        got = subset_bfs_parents(graph, arcs, sorted(sources, reverse=True))
        want = reference_subset_bfs_parents(graph, arcs, sources)
        assert list(got.items()) == list(want.items())


@given(
    n=st.integers(2, 14),
    seed=st.integers(0, 10**6),
    directed=st.booleans(),
    with_sources=st.booleans(),
    with_non_arcs=st.booleans(),
)
@settings(max_examples=300, deadline=None)
def test_subset_bfs_reads_repeats_orientations_and_iterators(
    n, seed, directed, with_sources, with_non_arcs
):
    rng = random.Random(seed)
    g = random_graph(rng, n, rng.randint(1, 3 * n), directed)
    arcs = rng.sample(list(g.arcs), rng.randint(0, len(g.arcs)))
    if not directed:
        arcs += [(v, u) for u, v in arcs if rng.random() < 0.5]  # both orientations
    arcs += [rng.choice(arcs) for _ in range(rng.randint(0, len(arcs)))]  # repeats
    if with_non_arcs:
        non_arcs = [(u, v) for u in range(n) for v in range(n) if not g.has_arc(u, v)]
        for _ in range(rng.randint(1, 2)):
            arcs.insert(rng.randint(0, len(arcs)), rng.choice(non_arcs))
    rng.shuffle(arcs)
    sources = set(rng.sample(range(n), rng.randint(1, min(3, n)))) if with_sources else set()
    bad = [(u, v) for u, v in arcs if not g.has_arc(u, v)]
    if bad:
        # the first non-arc read is named, whether or not there are sources,
        # by every reader of arcs
        for read in (
            lambda: subset_bfs_parents(g, (a for a in arcs), sources),
            lambda: shortest_path_tree(g, (a for a in arcs), 0),
            lambda: arc_keys(g, (a for a in arcs)),
        ):
            with pytest.raises(ValueError) as info:
                read()
            assert str(info.value) == f"arc {bad[0]} not present in the graph"
        return
    want = reference_subset_bfs_parents(g, arcs, sources)
    got = subset_bfs_parents(g, (a for a in arcs), iter(sources))
    assert list(got.items()) == list(want.items())
    # arcs encoded once as keys are read the same way
    keys = arc_keys(g, arcs)
    assert len(keys) == len({(min(a), max(a)) if not directed else a for a in arcs})
    assert list(subset_bfs_parents(g, keys, iter(sources)).items()) == list(want.items())
    tree = shortest_path_tree(g, keys, 0)
    assert list(tree.parent.items()) == list(reference_subset_bfs_parents(g, arcs, {0}).items())


def chain_walk_depths(tree: PoiseTree) -> dict[int, int]:
    """`PoiseTree.depths` as it was before its one-step case: every vertex
    walks its parent chain up to a vertex with a known depth."""
    depth = {tree.root: 0}
    for v in tree.parent:
        chain = []
        w = v
        while w not in depth:
            chain.append(w)
            if w not in tree.parent:
                raise ValueError(f"vertex {w} does not reach the root")
            w = tree.parent[w]
            if len(chain) > len(tree.parent) + 1:
                raise ValueError("parent map contains a cycle")
        base = depth[w]
        for i, u in enumerate(reversed(chain)):
            depth[u] = base + i + 1
    return depth


@given(n=st.integers(1, 14), seed=st.integers(0, 10**6))
@settings(max_examples=400, deadline=None)
def test_depths_match_chain_walk(n, seed):
    rng = random.Random(seed)
    root = rng.randrange(n)
    order = list(range(n))
    rng.shuffle(order)
    if rng.random() < 0.5:  # root first: more maps are trees
        order.remove(root)
        order.insert(0, root)
    parent = {}
    for i, v in enumerate(order):
        if v == root or rng.random() < 0.2:
            continue  # never the root; others left out may still be pointed at
        if rng.random() < 0.8 and i:
            parent[v] = order[rng.randrange(i)]  # a tree edge, unless off the root
        else:
            parent[v] = rng.randrange(n + 2)  # cycles, self-loops, dangling ids
    items = list(parent.items())
    rng.shuffle(items)
    tree = PoiseTree(root, dict(items))
    try:
        want = chain_walk_depths(tree)
    except ValueError as exc:
        with pytest.raises(ValueError) as info:
            tree.depths()
        assert str(info.value) == str(exc)
    else:
        assert list(tree.depths().items()) == list(want.items())


def reference_tree_metrics(tree: PoiseTree, instance: MulticastInstance) -> TreeMetrics:
    """`tree_metrics` as it was before its one-pass form: every arc checked
    through `has_arc`, then depths, `out_degrees` and the intersection of the
    tree's vertex set with the terminals."""
    g = instance.graph
    if not 0 <= tree.root < g.n:
        raise ValueError(f"tree root {tree.root} is not a vertex of the graph")
    for v, p in tree.parent.items():
        if not 0 <= p < g.n or not g.has_arc(p, v):
            raise ValueError(f"tree arc ({p}, {v}) is not an arc of the graph")
    depths = tree.depths()
    height = max(depths.values(), default=0)
    degree = max(tree.out_degrees().values(), default=0)
    covered = len(tree.vertices() & instance.terminals)
    return TreeMetrics(degree, height, degree + height, covered)


@given(n=st.integers(2, 12), seed=st.integers(0, 10**6), directed=st.booleans())
@settings(max_examples=400, deadline=None)
def test_tree_metrics_match_reference(n, seed, directed):
    rng = random.Random(seed)
    g = random_graph(rng, n, rng.randint(n, n * n), directed)
    inst = MulticastInstance(g, 0, rng.sample(range(1, n), rng.randint(1, n - 1)), 1)
    # any vertex may root the tree, a terminal too; sometimes none does
    root = rng.randrange(n) if rng.random() < 0.9 else rng.choice([-1, n])
    order = list(range(n))
    rng.shuffle(order)
    if 0 <= root < n:
        order.remove(root)
        order.insert(0, root)
    parent = {}
    for i, v in enumerate(order):
        r = rng.random()
        if v == root or r < 0.15:
            continue  # never the root; others left out may still be pointed at
        # a tree arc from a vertex placed earlier
        earlier = [u for u in g.in_neighbors(v) if u in order[:i]]
        if earlier and r < 0.9:
            parent[v] = rng.choice(earlier)
        else:
            parent[v] = rng.randrange(-1, n + 1)  # non-arcs, cycles, out of range
    items = list(parent.items())
    rng.shuffle(items)
    tree = PoiseTree(root, dict(items))
    try:
        want = reference_tree_metrics(tree, inst)
    except ValueError as exc:
        with pytest.raises(ValueError) as info:
            tree_metrics(tree, inst)
        assert type(info.value) is type(exc)
        assert str(info.value) == str(exc)
    else:
        assert tree_metrics(tree, inst) == want


def random_locations(rng: random.Random, n: int, overlapping: bool) -> dict:
    """Up to five elements with one to three representatives each, drawn from
    every vertex (so some may lie outside C): disjoint groups, or independent
    draws that may share vertices."""
    count = rng.randint(0, 5)
    if overlapping:
        return {f"e{i}": rng.sample(range(n), rng.randint(1, min(3, n))) for i in range(count)}
    pool = rng.sample(range(n), n)
    location = {}
    for i in range(count):
        size = rng.randint(1, 3)
        reps, pool = pool[:size], pool[size:]
        if reps:
            location[f"e{i}"] = reps
    return location


def reference_reach(graph, C, location, D):
    """Each vertex of C -> the elements with a representative in C within D
    hops of it in G[C], from one depth-bounded `bfs_distances` per vertex."""
    want = {}
    for v in C:
        dist = bfs_distances(graph, [v], restriction=C, max_depth=D)
        want[v] = {e for e, reps in location.items() if any(w in dist for w in reps)}
    return want


@given(
    n=st.integers(1, 14),
    seed=st.integers(0, 10**6),
    directed=st.booleans(),
    overlapping=st.booleans(),
    D=st.integers(0, 3),
)
@settings(max_examples=300, deadline=None)
def test_reach_labels_match_per_vertex_bfs(n, seed, directed, overlapping, D):
    rng = random.Random(seed)
    g = random_graph(rng, n, rng.randint(0, 3 * n), directed)
    C = frozenset(v for v in range(n) if rng.random() < 0.7)
    location = random_locations(rng, n, overlapping)
    want = reference_reach(g, C, location, D)
    held = reach_labels(g, C, location, D)
    assert set(held) <= C
    assert {v: held.get(v, set()) for v in C} == want
    for cap in range(1, 5):
        held = reach_labels(g, C, location, D, cap)
        assert set(held) <= C
        for v in C:
            got = held.get(v, set())
            own = {e for e, reps in location.items() if v in reps}
            assert own <= got <= want[v]
            assert len(got) <= max(cap, len(own))
            assert (len(got) >= cap) == (len(want[v]) >= cap)


@given(n=st.integers(2, 14), seed=st.integers(0, 10**6), directed=st.booleans())
@settings(max_examples=300, deadline=None)
def test_spt_metrics_match_tree_metrics_on_shortest_path_trees(n, seed, directed):
    # a tree `shortest_path_tree` builds lists its vertices in BFS order, so
    # its metrics read off the parent map equal the checking walk's
    rng = random.Random(seed)
    g = random_graph(rng, n, rng.randint(1, 3 * n), directed)
    root = rng.randrange(n)
    terminals = rng.sample([v for v in range(n) if v != root], rng.randint(1, n - 1))
    inst = MulticastInstance(g, root, terminals, 1)
    arcs = rng.sample(list(g.arcs), rng.randint(0, len(g.arcs)))
    tree = shortest_path_tree(g, arcs, root)
    assert spt_metrics(tree, inst.terminals) == tree_metrics(tree, inst)
