import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import poisekit.directed as directed
from poisekit import (
    AdditivePartition,
    Graph,
    MulticastInstance,
    PoiseGuess,
    complete,
    coverage_tree,
    exact_min_poise_ktree,
    generate_instance,
    greedy_packing,
    is_rho_good,
    prune_beyond,
    rho_good_vertices,
    solve_directed,
    solve_many_trees,
    tree_metrics,
)
from poisekit.directed import stage_directed, trim_to_terminals
from poisekit.errors import InfeasibleGuessError

from conftest import directed_stream, random_graph, two_branch_instance


@st.composite
def packing_cases(draw, max_n: int):
    """(graph, C, terminals, rho, D): a graph of either orientation with n to
    3n arcs, a restriction C that leaves out a random few vertices, and
    terminals drawn from all vertices, so some lie outside C."""
    n = draw(st.integers(1, max_n))
    vertex = st.integers(0, n - 1)
    arcs = draw(st.lists(st.tuples(vertex, vertex), min_size=n, max_size=3 * n))
    g = Graph(n, [(u, v) for u, v in arcs if u != v], directed=draw(st.booleans()))
    C = set(range(n)) - draw(st.sets(vertex, max_size=max(1, n // 3)))
    terminals = draw(st.sets(vertex))
    return g, C, terminals, draw(st.integers(1, 5)), draw(st.integers(1, 4))


def ceil_sqrt(k: int) -> int:
    r = math.isqrt(k)
    return r if r * r == k else r + 1


def log_factor(k: int) -> int:
    return (k - 1).bit_length() + 1


class TestCoverageTree:
    def test_single_arc(self):
        g = Graph(4, [(0, 1), (1, 3)], directed=True)
        tree = coverage_tree(g, {1, 3}, 1, {3}, D=2)
        assert tree.arcs() == {(1, 3)}

    def test_no_terminal_in_radius_gives_single_vertex(self):
        g = Graph(4, [(1, 2), (2, 3)], directed=True)
        tree = coverage_tree(g, {1, 2, 3}, 1, {3}, D=1)
        assert tree.vertices() == {1}

    def test_prunes_terminal_free_branches(self):
        rng = random.Random(31)
        for _ in range(40):
            n = rng.randint(3, 10)
            g = random_graph(rng, n, rng.randint(n, 3 * n), directed=True)
            C = set(range(n))
            terms = set(rng.sample(range(n), rng.randint(1, n // 2 + 1)))
            c = rng.choice(sorted(C - terms)) if C - terms else 0
            D = rng.randint(1, 4)
            tree = coverage_tree(g, C, c, terms, D)
            # reference: BFS distances inside C, then ancestor closure
            depths = tree.depths()
            leaves = tree.vertices() - set(tree.parent.values()) - {c} if tree.parent else set()
            for leaf in leaves:
                assert leaf in terms
            expected = {t for t in terms if t != c} & set(
                v for v, d in _bfs(g, c, C).items() if d <= D
            )
            assert tree.vertices() & terms - {c} == expected
            assert all(d <= D for d in depths.values())


def _bfs(g, src, C):
    dist = {src: 0}
    frontier = [src]
    while frontier:
        nxt = []
        for u in frontier:
            for w in g.out_neighbors(u):
                if w in C and w not in dist:
                    dist[w] = dist[u] + 1
                    nxt.append(w)
        frontier = nxt
    return dist


class TestGreedyPacking:
    def hub_graph(self):
        # two hubs each with two terminal children
        arcs = [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6)]
        return Graph(7, arcs, directed=True)

    def test_two_hubs_extracted(self):
        g = self.hub_graph()
        trees, packed, C = greedy_packing(g, set(range(1, 7)), {3, 4, 5, 6}, rho=2, D=2)
        assert [t.root_vertex for t in trees] == [1, 2]
        assert packed == frozenset(range(1, 7))
        # final C is a packing
        for c in C:
            assert not is_rho_good(g, C, c, {3, 4, 5, 6}, 2, 2)

    def test_rho_above_terminal_count_packs_nothing(self):
        g = self.hub_graph()
        trees, packed, C = greedy_packing(g, set(range(1, 7)), {3, 4, 5, 6}, rho=5, D=2)
        assert trees == [] and packed == frozenset() and C == frozenset(range(1, 7))

    def test_trim_keeps_closest_lowest_ids(self):
        g = Graph(5, [(1, 2), (1, 3), (1, 4)], directed=True)
        trees, _, C = greedy_packing(g, {1, 2, 3, 4}, {2, 3, 4}, rho=2, D=1)
        assert len(trees) == 1
        tree = trees[0]
        assert tree.terminals == frozenset({2, 3})
        assert 4 in C  # third terminal stays behind

    def test_trees_are_vertex_disjoint(self):
        rng = random.Random(8)
        for _ in range(40):
            n = rng.randint(4, 12)
            g = random_graph(rng, n, rng.randint(n, 3 * n), directed=rng.random() < 0.5)
            terms = set(rng.sample(range(1, n), rng.randint(1, n - 1)))
            rho = rng.randint(1, 3)
            trees, packed, C = greedy_packing(g, set(range(1, n)), terms, rho, rng.randint(1, 3))
            seen = set()
            for t in trees:
                assert len(t.terminals) == rho
                verts = t.vertices()
                assert not (seen & verts)
                seen |= verts
            assert packed == frozenset(seen)
            assert C == frozenset(range(1, n)) - seen

    @staticmethod
    def restarting(g, C, terms, rho, D):
        # reference: rescan C from the lowest id after every extraction
        C, trees = set(C), []
        while True:
            good = [c for c in sorted(C) if is_rho_good(g, C, c, terms, rho, D)]
            if not good:
                return trees, frozenset(C)
            tree = coverage_tree(g, C, good[0], terms, D)
            trees.append(trim_to_terminals(tree, terms, rho))
            C -= trees[-1].vertices()

    @given(case=packing_cases(max_n=60))
    @example(case=(Graph(7, [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6)], True),
                   set(range(1, 7)), {3, 4, 5, 6}, 2, 2))
    @settings(max_examples=50, deadline=None)
    def test_single_scan_matches_restarting_scan(self, case):
        g, C, terms, rho, D = case
        trees, packed, final_C = greedy_packing(g, C, terms, rho, D)
        assert (trees, final_C) == self.restarting(g, C, terms, rho, D)
        assert packed | final_C == frozenset(C)

    @staticmethod
    def counted_packing(*args):
        """greedy_packing's result plus its coverage_tree and screen calls."""
        calls = {"coverage_tree": 0, "rho_good_vertices": 0}

        def counted(name):
            real = getattr(directed, name)

            def call(*a, **kw):
                calls[name] += 1
                return real(*a, **kw)
            return call

        with pytest.MonkeyPatch.context() as mp:
            for name in calls:
                mp.setattr(directed, name, counted(name))
            result = greedy_packing(*args)
        return result, calls

    def test_no_rho_good_vertex_builds_no_coverage_tree(self):
        # each hub holds two terminals, so no vertex reaches three
        g = self.hub_graph()
        (trees, _, C), calls = self.counted_packing(g, set(range(1, 7)), {3, 4, 5, 6}, 3, 2)
        assert trees == [] and C == frozenset(range(1, 7))
        assert calls == {"coverage_tree": 0, "rho_good_vertices": 1}
        # nor does any vertex of a wide shallow layered DAG
        layered = generate_instance(
            "layered-dag", {"width": 30, "depth": 2, "t": 30, "k": 25, "seed": 3}
        )
        g = layered.graph
        rho = ceil_sqrt(layered.k)
        (trees, _, _), calls = self.counted_packing(
            g, set(g.vertices()) - {layered.root}, layered.terminals, rho, 2
        )
        assert trees == [] and calls["coverage_tree"] == 0

    @given(case=packing_cases(max_n=40))
    @settings(max_examples=40, deadline=None)
    def test_coverage_trees_only_for_screened_candidates(self, case):
        # every coverage tree either is packed or sends the scan to a new screen
        (trees, _, _), calls = self.counted_packing(*case)
        recomputes = calls["rho_good_vertices"] - 1
        assert calls["coverage_tree"] <= len(trees) + recomputes


class TestRhoGoodVertices:
    @given(case=packing_cases(max_n=30))
    @settings(max_examples=100, deadline=None)
    def test_matches_per_vertex_reference(self, case):
        g, C, terms, rho, D = case
        expected = {c for c in C if is_rho_good(g, C, c, terms, rho, D)}
        assert rho_good_vertices(g, C, terms, rho, D) == expected

    def test_full_vertex_still_passes_enough_labels(self):
        # 0 -> 1 -> {2, 3, 4}: vertex 1 fills with two of its three terminals
        # and must still hand vertex 0 two labels
        g = Graph(5, [(0, 1), (1, 2), (1, 3), (1, 4)], directed=True)
        C = set(range(5))
        assert rho_good_vertices(g, C, {2, 3, 4}, 2, 2) == {0, 1}
        assert rho_good_vertices(g, C, {2, 3, 4}, 2, 1) == {1}
        assert rho_good_vertices(g, C - {1}, {2, 3, 4}, 2, 2) == frozenset()
        assert rho_good_vertices(g, C, {2, 3, 4}, 1, 1) == {1, 2, 3, 4}


class TestSolveManyTrees:
    def test_three_hubs_choose_two(self):
        arcs = [(0, 1), (0, 2), (0, 3)]
        terms = []
        nxt = 4
        for hub in (1, 2, 3):
            arcs += [(hub, nxt), (hub, nxt + 1)]
            terms += [nxt, nxt + 1]
            nxt += 2
        g = Graph(nxt, arcs, directed=True)
        inst = MulticastInstance(g, 0, terms, 4)
        trees, _, _ = greedy_packing(g, set(range(1, nxt)), set(terms), rho=2, D=2)
        tree = solve_many_trees(g, 0, trees, rho=2)
        m = tree_metrics(tree, inst)
        assert m.terminals_covered == 4
        assert m.max_out_degree == 2
        assert m.height == 2

    def test_single_tree_rho_one(self):
        g = Graph(3, [(0, 1), (1, 2)], directed=True)
        trees, _, _ = greedy_packing(g, {1, 2}, {2}, rho=1, D=2)
        tree = solve_many_trees(g, 0, trees, rho=1)
        m = tree_metrics(tree, MulticastInstance(g, 0, {2}, 1))
        assert m.max_out_degree <= 2 and m.terminals_covered == 1

    def test_degree_bound_with_shared_path_prefixes(self):
        rng = random.Random(19)
        checked = 0
        while checked < 40:
            n = rng.randint(6, 30)
            g = random_graph(rng, n, rng.randint(2 * n, 4 * n), directed=True)
            terms = set(rng.sample(range(1, n), min(n - 1, rng.randint(2, 8))))
            rho = rng.randint(1, 3)
            D = rng.randint(2, 4)
            trees, _, _ = greedy_packing(g, set(range(1, n)), terms, rho, D)
            if len(trees) < rho:
                continue
            checked += 1
            try:
                tree = solve_many_trees(g, 0, trees, rho)
            except InfeasibleGuessError:
                continue
            assert max(tree.out_degrees().values(), default=0) <= 2 * rho
            assert tree.height() <= 2 * max(
                D, max((d for d in _bfs(g, 0, set(range(n))).values()), default=0)
            )


class TestComplete:
    def test_two_branch_exact_tree(self):
        inst = two_branch_instance()
        # oracle certifies the guess used here is the optimum
        res = exact_min_poise_ktree(inst)
        assert (res.B_star, res.D_star, res.poise_star) == (2, 2, 4)
        partition = AdditivePartition(
            frozenset({0}), frozenset({1, 2, 3, 4}), (), rho=2
        )
        tree, _ = complete(inst.graph, partition, 0, 2, B=2, D=2, terminals=inst.terminals)
        assert tree.arcs() == {(0, 1), (0, 2), (1, 3), (2, 4)}
        m = tree_metrics(tree, inst)
        assert (m.max_out_degree, m.height) == (2, 2)

    def test_zero_remaining_short_circuits(self):
        g = Graph(4, [(0, 1), (1, 2), (1, 3)], directed=True)
        trees, packed, C = greedy_packing(g, {1, 2, 3}, {2, 3}, rho=2, D=1)
        assert len(trees) == 1
        partition = AdditivePartition(frozenset({0}) | packed, C, tuple(trees), 2)
        tree, _ = complete(g, partition, 0, 0, B=1, D=1, terminals={2, 3})
        m = tree_metrics(tree, MulticastInstance(g, 0, {2, 3}, 2))
        assert m.terminals_covered == 2
        assert m.height <= 2

    def test_shared_c_added_once(self):
        # two anchors point at the same c; its coverage tree appears once
        g = Graph(5, [(0, 2), (1, 2), (0, 1), (2, 3), (2, 4)], directed=True)
        inst = MulticastInstance(g, 0, {3, 4}, 2)
        partition = AdditivePartition(frozenset({0, 1}), frozenset({2, 3, 4}), (), 2)
        tree, _ = complete(g, partition, 0, 2, B=1, D=2, terminals={3, 4})
        m = tree_metrics(tree, inst)
        assert m.terminals_covered == 2
        assert tree.parent[3] == 2 and tree.parent[4] == 2


class TestSolveDirected:
    def test_many_trees_branch_on_star_of_stars(self):
        # two hubs of two leaves suffice for k=4; terminals sit at depth 3
        # after leaf attachment, so (B, D) = (2, 3) dominates an optimal tree
        inst = generate_instance("star-of-stars", {"branch": 3, "leaf": 2, "k": 4})
        pruned = prune_beyond(inst, 3)
        solved = stage_directed(pruned, 3).solve(2)
        tree, trace = solved.tree, solved.trace
        assert trace["branch"] == "many-trees"
        m = tree_metrics(tree, inst)
        k = inst.k
        assert m.terminals_covered >= k
        assert m.max_out_degree <= 2 * ceil_sqrt(k)
        assert m.height <= 2 * 3

    def test_few_trees_branch_on_two_branch_graph(self):
        inst = two_branch_instance()
        solved = stage_directed(prune_beyond(inst, 2), 2).solve(2)
        tree, trace = solved.tree, solved.trace
        assert trace["branch"] == "few-trees"
        assert tree.arcs() == {(0, 1), (0, 2), (1, 3), (2, 4)}

    def test_single_adjacent_terminal(self):
        g = Graph(2, [(0, 1)], directed=True)
        inst = MulticastInstance(g, 0, {1}, 1)
        tree = solve_directed(prune_beyond(inst, 1), PoiseGuess(1, 1))
        m = tree_metrics(tree, inst)
        assert m.poise == 2 and m.terminals_covered == 1

    def test_infeasible_guess_propagates(self):
        # no height-1 tree reaches the terminals (they sit at distance 2),
        # so pruning certifies any D=1 guess infeasible
        inst = two_branch_instance()
        with pytest.raises(InfeasibleGuessError):
            prune_beyond(inst, 1)
        # and a starved cover loop stalls: cut one branch so only one
        # terminal is coverable
        g = Graph(5, [(0, 1), (0, 2), (1, 3)], directed=True)
        broken = MulticastInstance(g, 0, {3, 4}, 2)
        with pytest.raises(InfeasibleGuessError):
            solve_directed(broken, PoiseGuess(2, 2))

    def test_additive_bounds_along_random_stream(self):
        for inst in directed_stream(120, seed=424):
            res = exact_min_poise_ktree(inst)
            pruned = prune_beyond(inst, res.D_star)
            solved = stage_directed(pruned, res.D_star).solve(res.B_star)
            tree, trace = solved.tree, solved.trace
            m = tree_metrics(tree, inst)
            k = inst.k
            assert m.terminals_covered >= k
            assert m.max_out_degree <= log_factor(k) * res.B_star + 2 * ceil_sqrt(k)
            assert m.height <= 3 * res.D_star + 1
            if trace["branch"] == "many-trees":
                assert m.max_out_degree <= 2 * ceil_sqrt(k)
                assert m.height <= 2 * res.D_star
            else:
                # vertices outside the packed side owe their degree to the
                # stitched paths and the in-C forest only
                A = {inst.root} | set(trace["packed"])
                for v, deg in tree.out_degrees().items():
                    if v not in A:
                        assert deg <= 2 * ceil_sqrt(k)

    def test_partition_completion_bounds_for_any_rho(self):
        # when packing with an arbitrary rho ends below rho trees, completing
        # the partition keeps the rho-parameterized degree and height bounds
        rng = random.Random(606)
        checked = 0
        for inst in directed_stream(150, seed=515):
            res = exact_min_poise_ktree(inst)
            pruned = prune_beyond(inst, res.D_star)
            g = pruned.graph
            rho = rng.randint(1, 3)
            trees, packed, C = greedy_packing(
                g, set(g.vertices()) - {inst.root}, pruned.terminals, rho, res.D_star
            )
            if len(trees) >= rho:
                continue
            checked += 1
            A = frozenset({inst.root} | packed)
            partition = AdditivePartition(A, C, tuple(trees), rho)
            k_remaining = inst.k - len(A & pruned.terminals)
            tree, _ = complete(
                g, partition, inst.root, k_remaining, res.B_star, res.D_star,
                pruned.terminals,
            )
            m = tree_metrics(tree, inst)
            assert m.terminals_covered >= inst.k
            assert m.max_out_degree <= log_factor(inst.k) * res.B_star + 2 * rho
            assert m.height <= 3 * res.D_star + 1
        assert checked >= 20

    def test_packing_certificate_after_greedy(self):
        rng = random.Random(90)
        for _ in range(30):
            n = rng.randint(4, 10)
            g = random_graph(rng, n, rng.randint(n, 3 * n), directed=True)
            terms = set(rng.sample(range(1, n), rng.randint(1, n - 1)))
            rho, D = rng.randint(1, 3), rng.randint(1, 3)
            _, _, C = greedy_packing(g, set(range(1, n)), terms, rho, D)
            for c in C:
                assert not is_rho_good(g, C, c, terms, rho, D)
