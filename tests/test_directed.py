import heapq
import math
import random
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import poisekit.cover as cover
import poisekit.directed as directed
from poisekit import (
    Graph,
    MulticastInstance,
    PoiseGuess,
    PoiseTree,
    complete,
    coverage_tree,
    exact_min_poise_ktree,
    generate_instance,
    greedy_packing,
    prune_beyond,
    rho_good_vertices,
    solve_directed,
    solve_many_trees,
    tree_metrics,
)
from poisekit.cover import CoverRow
from poisekit.directed import Round, stage_directed
from poisekit.driver import stage_budget
from poisekit.errors import InfeasibleGuessError
from poisekit.graph import arc_keys, reach_labels

from conftest import (
    directed_stream,
    full_coverage_tree,
    random_graph,
    trim_to_terminals,
    two_branch_instance,
)


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


def is_rho_good(graph, C, c, terminals, rho, D) -> bool:
    """Reference for the screen: c reaches at least rho terminals within D
    hops inside G[C], by its full coverage tree."""
    tree = full_coverage_tree(graph, C, c, terminals, D)
    return len(tree.vertices() & frozenset(terminals)) >= rho


def ceil_sqrt(k: int) -> int:
    r = math.isqrt(k)
    return r if r * r == k else r + 1


def log_factor(k: int) -> int:
    return (k - 1).bit_length() + 1


def test_stage_directed_rho_is_the_ceiling_square_root(monkeypatch):
    # the round stage_directed builds carries rho; one that skips packing
    # and stitching makes every k cheap to stage
    class Unpacked(Round):
        stitched = None

    monkeypatch.setattr(directed, "Round", Unpacked)
    graph = Graph(2, [(0, 1)], directed=True)
    for k in range(1, 10_001):
        instance = SimpleNamespace(graph=graph, root=0, terminals=(1,), k=k)
        rho = stage_directed(instance, 1).rho
        assert rho**2 >= k > (rho - 1) ** 2


class TestCoverageTree:
    def test_single_arc(self):
        g = Graph(4, [(0, 1), (1, 3)], directed=True)
        tree = coverage_tree(g, {1, 3}, 1, {3}, rho=1, D=2)
        assert tree.edges == {(1, 3)} and tree.terminals == {3}

    def test_no_terminal_in_radius_gives_single_vertex(self):
        g = Graph(4, [(1, 2), (2, 3)], directed=True)
        assert full_coverage_tree(g, {1, 2, 3}, 1, {3}, D=1).vertices() == {1}
        # too few terminals for a packed tree: no candidate
        assert coverage_tree(g, {1, 2, 3}, 1, {3}, rho=1, D=1) is None
        assert coverage_tree(g, {1, 2, 3}, 1, {3}, rho=2, D=2) is None
        assert coverage_tree(g, {1, 2, 3}, 1, {3}, rho=1, D=2).terminals == {3}

    def test_prunes_terminal_free_branches(self):
        rng = random.Random(31)
        for _ in range(40):
            n = rng.randint(3, 10)
            g = random_graph(rng, n, rng.randint(n, 3 * n), directed=True)
            C = set(range(n))
            terms = set(rng.sample(range(n), rng.randint(1, n // 2 + 1)))
            c = rng.choice(sorted(C - terms)) if C - terms else 0
            D = rng.randint(1, 4)
            rho = rng.randint(1, 3)
            # reference: BFS distances inside C, then the rho terminals of
            # smallest (distance, id)
            dist = {v: d for v, d in _bfs(g, c, C).items() if d <= D}
            ranked = sorted((dist[t], t) for t in terms if t in dist)
            good = coverage_tree(g, C, c, terms, rho, D)
            if len(ranked) < rho:
                assert good is None
                continue
            assert good.root_vertex == c
            assert good.terminals == {t for _, t in ranked[:rho]}
            tree = PoiseTree(c, {v: p for p, v in good.edges})
            depths = tree.depths()
            assert len(tree.parent) == len(good.edges)  # one parent per vertex
            assert all(depths[v] == dist[v] for v in depths)
            leaves = tree.vertices() - set(tree.parent.values())
            assert leaves <= good.terminals | {c}


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
            tree = full_coverage_tree(g, C, good[0], terms, D)
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
        # every packed tree is a candidate's coverage tree, and every other
        # candidate sends the scan to a new screen
        (trees, _, _), calls = self.counted_packing(*case)
        recomputes = calls["rho_good_vertices"] - 1
        assert len(trees) <= calls["coverage_tree"] <= len(trees) + recomputes

    @given(case=packing_cases(max_n=30))
    @example(  # a terminal candidate counts itself at distance 0
        case=(Graph(4, [(0, 1), (0, 2), (2, 3)], True), {0, 1, 2, 3}, {0, 1, 3}, 2, 2)
    )
    @example(  # fewer terminals in G[C] than rho
        case=(Graph(4, [(0, 1), (1, 2), (2, 3)], False), {0, 1, 2}, {1, 3}, 2, 4)
    )
    @settings(max_examples=150, deadline=None)
    def test_candidate_equals_trimmed_full_tree(self, case):
        # every vertex of C as the candidate, against the old path: the full
        # depth-D coverage tree trimmed to its rho closest terminals
        g, C, terms, rho, D = case
        for c in sorted(C):
            full = full_coverage_tree(g, C, c, terms, D)
            if len(full.vertices() & terms) < rho:
                assert coverage_tree(g, C, c, terms, rho, D) is None
            else:
                assert coverage_tree(g, C, c, terms, rho, D) == trim_to_terminals(full, terms, rho)

    def test_candidate_bfs_stops_at_the_rho_th_terminal_level(self):
        # c = 0 holds terminals 1 and 2 one hop away and a path 0 -> 3 ->
        # ... -> 9 of non-terminals: with rho = 2 the search ends at level 1,
        # and only a rho-th terminal at the path's end (9, at distance 7)
        # lets it run to the end
        arcs = [(0, 1), (0, 2), (0, 3)] + [(v, v + 1) for v in range(3, 9)]
        g = Graph(10, arcs, directed=True)
        reached = []
        real = directed.bfs_parents

        def counted(*a, **kw):
            dist, parent = real(*a, **kw)
            reached.append(len(dist))
            return dist, parent

        C = set(range(10))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(directed, "bfs_parents", counted)
            good = coverage_tree(g, C, 0, {1, 2}, 2, 5)
            deep = coverage_tree(g, C, 0, {1, 9}, 2, 7)
        assert good.terminals == {1, 2} and deep.terminals == {1, 9}
        full = len(real(g, [0], restriction=C, max_depth=5)[0])
        assert reached == [4, 10] and full == 8


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
        row = CoverRow(inst.graph, 0, {0}, {1, 2, 3, 4}, {t: (t,) for t in inst.terminals}, D=2)
        tree, _ = complete(inst.graph, 0, (), row, 2, B=2)
        assert tree.arcs() == {(0, 1), (0, 2), (1, 3), (2, 4)}
        m = tree_metrics(tree, inst)
        assert (m.max_out_degree, m.height) == (2, 2)

    def test_zero_remaining_short_circuits(self):
        g = Graph(4, [(0, 1), (1, 2), (1, 3)], directed=True)
        packing = Round(g, 0, {0}, (), {2, 3}, rho=2, D=1, k=2)
        assert len(packing.trees) == 1
        tree, _ = complete(g, 0, packing.base, packing.row, 0, B=1)
        m = tree_metrics(tree, MulticastInstance(g, 0, {2, 3}, 2))
        assert m.terminals_covered == 2
        assert m.height <= 2

    def test_shared_c_added_once(self):
        # two anchors point at the same c; its coverage tree appears once
        g = Graph(5, [(0, 2), (1, 2), (0, 1), (2, 3), (2, 4)], directed=True)
        inst = MulticastInstance(g, 0, {3, 4}, 2)
        row = CoverRow(g, 0, {0, 1}, {2, 3, 4}, {3: (3,), 4: (4,)}, D=2)
        tree, _ = complete(g, 0, (), row, 2, B=1)
        m = tree_metrics(tree, inst)
        assert m.terminals_covered == 2
        assert tree.parent[3] == 2 and tree.parent[4] == 2

    @pytest.mark.parametrize("directed", [True, False])
    def test_plain_base_arcs_join_the_picks(self, directed):
        # base arcs given as pairs are checked and encoded like a round's keys,
        # so they stay in the tree when the cover makes picks
        g = Graph(7, [(0, 1), (0, 2), (1, 3), (2, 4), (0, 5), (5, 6)], directed)
        row = CoverRow(g, 0, {0, 5, 6}, {1, 2, 3, 4}, {3: (3,), 4: (4,)}, D=2)
        base = [(0, 5), (6, 5) if not directed else (5, 6)]
        tree, selection = complete(g, 0, base, row, 2, B=2)
        assert selection.chosen
        assert tree.parent[6] == 5 and tree.parent[5] == 0
        assert tree.arcs() == complete(g, 0, arc_keys(g, base), row, 2, B=2)[0].arcs()
        with pytest.raises(ValueError) as info:
            complete(g, 0, [(0, 5), (1, 6)], row, 2, B=2)
        assert str(info.value) == "arc (1, 6) not present in the graph"


class TestSolveDirected:
    def test_many_trees_branch_on_star_of_stars(self):
        # two hubs of two leaves suffice for k=4; terminals sit at depth 3
        # after leaf attachment, so (B, D) = (2, 3) dominates an optimal tree
        inst = generate_instance("star-of-stars", {"branch": 3, "leaf": 2, "k": 4})
        pruned = prune_beyond(inst, 3)
        stage = stage_directed(pruned, 3)
        tree, trace = stage.trace(2)
        assert stage.solve(2) is tree
        assert trace["branch"] == "many-trees"
        m = tree_metrics(tree, inst)
        k = inst.k
        assert m.terminals_covered >= k
        assert m.max_out_degree <= 2 * ceil_sqrt(k)
        assert m.height <= 2 * 3

    def test_few_trees_branch_on_two_branch_graph(self):
        inst = two_branch_instance()
        stage = stage_directed(prune_beyond(inst, 2), 2)
        tree, trace = stage.trace(2)
        assert stage.solve(2) is tree
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

    def test_unreachable_packed_root_fails_while_staging(self):
        # 1 -> 2 packs one tree of rho = 1 terminal, which is enough to
        # stitch, but the root 0 reaches no vertex: staging itself finds
        # every degree budget of the row infeasible, before any solve
        g = Graph(3, [(1, 2)], directed=True)
        inst = MulticastInstance(g, 0, {2}, 1)
        with pytest.raises(
            InfeasibleGuessError, match="^packed-tree root 1 is unreachable from the root region$"
        ):
            stage_directed(inst, 2)

    def test_additive_bounds_along_random_stream(self):
        for inst in directed_stream(120, seed=424):
            res = exact_min_poise_ktree(inst)
            pruned = prune_beyond(inst, res.D_star)
            stage = stage_directed(pruned, res.D_star)
            tree, trace = stage.trace(res.B_star)
            assert stage.solve(res.B_star) is tree
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
            packing = Round(g, inst.root, {inst.root}, (), pruned.terminals, rho, res.D_star, inst.k)
            if len(packing.trees) >= rho:
                continue
            checked += 1
            tree, _ = packing.complete(inst.k, res.B_star)
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


def test_screen_rejects_a_cap_below_one():
    # 0 reaches all three terminals within 2 hops; a cap of 0 or -1 would
    # mark every labelled vertex good, so the cap is refused instead
    g = Graph(5, [(0, 1), (1, 2), (1, 3), (1, 4)], directed=True)
    terminals = {2, 3, 4}
    for bad in (0, -1):
        with pytest.raises(ValueError, match="cap must be at least 1"):
            reach_labels(g, range(5), {t: (t,) for t in terminals}, 2, bad)
        with pytest.raises(ValueError, match="rho must be at least 1"):
            rho_good_vertices(g, range(5), terminals, bad, 2)
    assert rho_good_vertices(g, range(5), terminals, 3, 2) == {0, 1}


def test_round_builds_C_on_first_use():
    # the stage's round at {root} packs V - {root}, built when the packing
    # is first read: a round that is never packed never builds it
    g = Graph(4, [(0, 1), (1, 2), (1, 3)], directed=True)
    packing = Round(g, 0, {0}, (), {2, 3}, rho=2, D=1, k=2)
    assert "C" not in vars(packing)
    assert len(packing.trees) == 1
    assert vars(packing)["C"] == {1, 2, 3}
    assert packing.row.C == frozenset()


def test_row_assembles_each_cover_selection_once(monkeypatch):
    # the sweep-dir-layered shape: no vertex is rho-good, so every degree
    # budget covers, and several budgets pick the same boundary arcs; the
    # row's tree is a function of those picks, so it is assembled once each
    inst = generate_instance("layered-dag", {"width": 90, "depth": 2, "t": 90, "k": 72, "seed": 0})
    forests = []
    original = directed._cover_forest

    def recording(graph, row, chosen):
        forests.append(frozenset(chosen))
        return original(graph, row, chosen)

    monkeypatch.setattr(directed, "_cover_forest", recording)
    stage = stage_budget(inst, 3)
    assert stage.stitched is None
    trees = {}
    for B in range(1, len(inst.terminals) + 1):
        try:
            trees[B] = stage.solve(B)
        except InfeasibleGuessError:
            pass
    kept = forests[:]
    forests.clear()
    for B, tree in trees.items():
        assert tree.parent == stage_budget(inst, 3).solve(B).parent
    assert len(forests) == len(trees)  # one forest per fresh solve
    assert len(kept) == len(set(kept)) == len(set(forests)) < len(trees)
    assert set(kept) == set(forests)


def test_row_runs_the_heap_greedy_once_per_coverage_system(monkeypatch):
    # the same shape: each system has one part, so every cover iteration at
    # every degree budget replays the system's one uncapped greedy order
    inst = generate_instance("layered-dag", {"width": 90, "depth": 2, "t": 90, "k": 72, "seed": 0})
    heaps = []
    systems = {}
    real_heapify = heapq.heapify
    real_greedy = cover.greedy_matroid_max

    def recording(system, capacity, already_covered=()):
        systems[id(system)] = system
        return real_greedy(system, capacity, already_covered)

    monkeypatch.setattr(
        heapq, "heapify", lambda heap: heaps.append(len(heap)) or real_heapify(heap)
    )
    monkeypatch.setattr(cover, "greedy_matroid_max", recording)
    stage = stage_budget(inst, 3)
    trees = {}
    for B in range(1, len(inst.terminals) + 1):
        try:
            trees[B] = stage.solve(B)
        except InfeasibleGuessError:
            pass
    assert trees
    assert len(heaps) == len(systems)  # one order per system, no fallback
    monkeypatch.undo()
    for B, tree in trees.items():
        assert tree.parent == stage_budget(inst, 3).solve(B).parent
