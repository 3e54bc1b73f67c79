import functools
import gc
import random
import weakref
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poisekit import (
    Graph,
    GoodTree,
    MulticastInstance,
    PoiseGuess,
    PoiseTree,
    eccentricity,
    exact_min_poise_ktree,
    find_good_vertex_wrt_super,
    generate_instance,
    prune_beyond,
    small,
    solve_undirected,
    tree_metrics,
)
from poisekit import undirected
from poisekit.cover import _closest_representatives, default_iteration_cap
from poisekit.driver import stage_budget
from poisekit.errors import InfeasibleGuessError
from poisekit.graph import ArcKeys, arc_keys, bfs_parents, chain_parents, shortest_path_tree
from poisekit.undirected import SuperRound, _ceil_cbrt, stage_undirected

from conftest import hub_stars_instance, middles_instance, random_graph, undirected_stream


class TestCeilCbrt:
    def test_values(self):
        assert [_ceil_cbrt(t) for t in (1, 2, 7, 8, 9, 27, 28)] == [1, 2, 2, 2, 3, 3, 4]


class TestSmall:
    def test_middles_has_no_good_vertex_and_completes(self):
        # eight 1-terminal middles: no vertex reaches 2 terminals inside C,
        # so the packing is empty and the completion covers everything
        inst = middles_instance(8)
        result = small(inst.graph, inst.terminals, t=8, k_remaining=8, B=8, D=2, root=0)
        assert isinstance(result, PoiseTree)
        m = tree_metrics(result, inst)
        assert m.terminals_covered == 8

    def test_four_hubs_return_trees(self):
        # four 2-terminal hubs off the root: packing finds >= rho = 2 trees
        arcs = []
        terms = []
        nxt = 5
        for hub in (1, 2, 3, 4):
            arcs.append((0, hub))
            arcs += [(hub, nxt), (hub, nxt + 1)]
            terms += [nxt, nxt + 1]
            nxt += 2
        g = Graph(nxt, arcs, directed=False)
        inst = MulticastInstance(g, 0, terms, 8)
        result = small(g, inst.terminals, t=8, k_remaining=8, B=2, D=2, root=0)
        assert isinstance(result, list)
        assert len(result) == 4
        assert all(len(t.terminals) == 2 for t in result)

    def test_single_terminal_degenerates(self):
        g = Graph(3, [(0, 1), (1, 2)], directed=False)
        inst = MulticastInstance(g, 0, {2}, 1)
        result = small(g, inst.terminals, t=1, k_remaining=1, B=1, D=2, root=0)
        # rho = 1: the terminal itself makes a 1-good tree, so trees come back
        assert isinstance(result, list)
        assert len(result) >= 1 and all(len(t.terminals) == 1 for t in result)


def reference_good_vertex(graph, C, trees, threshold, D):
    """The super-terminal search as one BFS per vertex of C, in ascending
    order, kept here only to check the search against."""
    C = frozenset(C)
    owner = {w: i for i, tr in enumerate(trees) for w in tr.vertices()}
    for v in sorted(C):
        dist, parent = bfs_parents(graph, [v], restriction=C, max_depth=D)
        closest = _closest_representatives(dist, owner)
        if len(closest) < threshold:
            continue
        chosen = sorted((d, i, w) for i, (d, w) in closest.items())[:threshold]
        union = {(p, u) for u, p in chain_parents(parent, [w for _, _, w in chosen]).items()}
        for _, i, _ in chosen:
            union |= trees[i].arcs()
        return v, shortest_path_tree(graph, arc_keys(graph, union), v)
    return None


def random_supers(rng, graph):
    """Vertex-disjoint packed trees over ``graph``'s arcs: each a root and up
    to two of its unused out-neighbours."""
    used: set[int] = set()
    supers = []
    for r in rng.sample(range(graph.n), graph.n):
        if len(supers) == 5:
            break
        if r in used:
            continue
        free = [x for x in graph.out_neighbors(r) if x not in used]
        children = rng.sample(free, min(len(free), rng.randint(0, 2)))
        used |= {r, *children}
        supers.append(GoodTree(r, {x: r for x in children}, frozenset(children) or frozenset({r})))
    return supers


@pytest.fixture
def search_work(monkeypatch):
    """Counts the BFSes and `reach_labels` passes the search makes."""
    calls = Counter()
    for name in ("bfs_parents", "reach_labels"):
        original = getattr(undirected, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(undirected, name, counted)
    return calls


class TestFindGoodVertexWrtSuper:
    def make_supers(self):
        return [
            GoodTree(5, {6: 5}, frozenset({5, 6})),
            GoodTree(7, {8: 7}, frozenset({7, 8})),
        ]

    def graph(self):
        return Graph(9, [(4, 5), (5, 6), (4, 7), (7, 8), (0, 4)], directed=False)

    def test_adjacent_vertex_aggregates_both(self, search_work):
        supers = self.make_supers()
        got = find_good_vertex_wrt_super(self.graph(), set(range(4, 9)), supers, 2, D=1)
        assert got is not None
        v, tree = got
        assert v == 4
        assert {5, 6, 7, 8} <= tree.vertices()
        # the lowest vertex of C succeeds: no screen runs
        assert search_work == {"bfs_parents": 1}

    def test_later_vertex_aggregates_when_the_lowest_misses(self, search_work):
        # vertex 1 reaches nothing inside C; the screen marks 4, the only
        # vertex next to both supers
        graph = Graph(9, [*self.graph().arcs, (0, 1)], directed=False)
        C = {1, 4, 5, 6, 7, 8}
        got = find_good_vertex_wrt_super(graph, C, self.make_supers(), 2, D=1)
        assert got is not None
        v, tree = got
        assert v == 4
        assert tree.parent == reference_good_vertex(graph, C, self.make_supers(), 2, 1)[1].parent
        assert search_work == {"bfs_parents": 2, "reach_labels": 1}

    def test_marked_vertex_that_falls_short_is_passed_over(self, search_work):
        # 5 represents supers 0 and 1; a BFS counts it for one of them, the
        # screen for both, so it marks 4 and 5, whose BFSes fall short, before 6
        graph = Graph(8, [(0, 1), (1, 4), (4, 5), (5, 6), (6, 7)], directed=False)
        supers = [
            GoodTree(5, {}, frozenset({5})),
            GoodTree(5, {6: 5}, frozenset({6})),
            GoodTree(7, {}, frozenset({7})),
        ]
        C = {1, 4, 5, 6, 7}
        got = find_good_vertex_wrt_super(graph, C, supers, 2, D=1)
        want = reference_good_vertex(graph, C, supers, 2, 1)
        assert got is not None and got[0] == want[0] == 6
        assert got[1].parent == want[1].parent
        assert search_work == {"bfs_parents": 4, "reach_labels": 1}

    def test_zero_radius_finds_only_members(self):
        supers = self.make_supers()
        got = find_good_vertex_wrt_super(self.graph(), {0, 4}, supers, 2, D=0)
        assert got is None

    def test_threshold_above_super_count(self):
        supers = self.make_supers()
        got = find_good_vertex_wrt_super(self.graph(), set(range(4, 9)), supers, 3, D=2)
        assert got is None

    def test_empty_C_finds_nothing(self):
        assert find_good_vertex_wrt_super(self.graph(), set(), self.make_supers(), 1, D=2) is None

    @pytest.mark.parametrize("directed", [False, True], ids=["undirected", "directed"])
    def test_matches_one_bfs_per_vertex_on_random_graphs(self, directed):
        # supers are vertex-disjoint and C is a random subset, so some
        # representatives lie outside it; every D and threshold, empty C too
        rng = random.Random(20 + directed)
        outcomes = Counter()
        for _ in range(60):
            n = rng.randint(2, 16)
            graph = random_graph(rng, n, rng.randint(1, 2 * n), directed)
            supers = random_supers(rng, graph)
            C = set(rng.sample(range(n), rng.randint(0, n)))
            outcomes["outside"] += any(not s.vertices() <= C for s in supers)
            for D in range(5):
                for threshold in range(1, len(supers) + 2):
                    got = find_good_vertex_wrt_super(graph, C, supers, threshold, D)
                    want = reference_good_vertex(graph, C, supers, threshold, D)
                    if want is None:
                        assert got is None
                        outcomes["none"] += 1
                        continue
                    assert got is not None
                    assert (got[0], got[1].parent) == (want[0], want[1].parent)
                    outcomes["first" if got[0] == min(C) else "later"] += 1
        assert min(outcomes[o] for o in ("none", "first", "later", "outside")) > 0

    def test_failing_search_on_clusters_is_one_bfs_and_one_screen(self, search_work):
        # the sweep-und-clusters shape: every hub is a super-terminal and the
        # hubs meet only at the root, so no vertex of C aggregates rho of them
        inst = generate_instance(
            "star-of-stars", {"branch": 20, "leaf": 5, "k": 80, "directed": False}
        )
        stage = stage_budget(inst, 3)
        assert isinstance(stage, SuperRound)
        search_work.clear()
        assert stage.found is None
        assert search_work == {"bfs_parents": 1, "reach_labels": 1}


class TestStaging:
    def test_first_round_contracts_its_trees_once_per_row(self, monkeypatch):
        # D = 3 is the one row past pruning; every cell aggregates the first
        # round's super-terminals (large), then covers a fresh round's (pmcover)
        searched = []
        real = undirected.find_good_vertex_wrt_super

        def recording(graph, C, trees, threshold, D):
            searched.append(trees)
            return real(graph, C, trees, threshold, D)

        monkeypatch.setattr(undirected, "find_good_vertex_wrt_super", recording)
        inst = hub_stars_instance()
        stage = stage_budget(inst, 3)
        for B in range(1, len(inst.terminals) + 1):
            _, trace = stage.trace(B)
            assert [r["branch"] for r in trace["iterations"]] == ["large", "pmcover"]
        first = stage.trees
        assert len(first) == 4
        assert [trees is first for trees in searched].count(True) == 1
        passed = [t for trees in searched for t in trees]
        assert sum(any(t is f for f in first) for t in passed) == len(first)
        assert len({id(t) for t in passed}) == len(passed)


class TestSolveUndirected:
    def test_middles_small_success_first_iteration(self):
        inst = middles_instance(8)
        stage = stage_undirected(prune_beyond(inst, 2), 2)
        tree, trace = stage.trace(8)
        assert stage.solve(8) is tree
        m = tree_metrics(tree, inst)
        assert m.terminals_covered == 8
        assert [r["branch"] for r in trace["iterations"]] == ["small"]

    def test_constructed_large_then_pmcover(self):
        inst = hub_stars_instance()
        stage = stage_undirected(prune_beyond(inst, 3), 3)
        tree, trace = stage.trace(3)
        assert stage.solve(3) is tree
        m = tree_metrics(tree, inst)
        assert m.terminals_covered == 8
        log = trace["iterations"]
        assert [r["branch"] for r in log] == ["large", "pmcover"]
        assert log[0]["covered"] == 4 and log[0]["discarded"] == 4
        assert log[1]["covered"] == 4
        # large iterations add at most 2 to region vertices
        assert log[0]["max_degree_delta_R"] <= 2

    def test_requires_undirected_graph(self):
        g = Graph(2, [(0, 1)], directed=True)
        with pytest.raises(ValueError):
            solve_undirected(MulticastInstance(g, 0, {1}, 1), PoiseGuess(1, 1))

    def test_infeasible_when_terminal_unreachable_in_budget(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3)], directed=False)
        inst = MulticastInstance(g, 0, {3}, 1)
        with pytest.raises(InfeasibleGuessError):
            prune_beyond(inst, 2)

    def test_oracle_budget_covers_k_on_random_stream(self):
        for inst in undirected_stream(120, seed=33):
            res = exact_min_poise_ktree(inst)
            pruned = prune_beyond(inst, res.D_star)
            tree = solve_undirected(pruned, PoiseGuess(res.B_star, res.D_star))
            m = tree_metrics(tree, inst)
            assert m.terminals_covered >= inst.k

    def test_iteration_and_delta_bounds_on_random_stream(self):
        for inst in undirected_stream(120, seed=77):
            res = exact_min_poise_ktree(inst)
            pruned = prune_beyond(inst, res.D_star)
            _, trace = stage_undirected(pruned, res.D_star).trace(res.B_star)
            t = len(inst.terminals)
            rho = _ceil_cbrt(t)
            log = trace["iterations"]
            assert len(log) <= rho + 1
            lg = default_iteration_cap(inst.k)
            for rec in log:
                assert rec["max_degree_delta_C"] <= 2 * rho + 2
                if rec["branch"] == "pmcover":
                    assert rec["max_degree_delta_R"] <= lg * res.B_star
                if rec["branch"] == "large":
                    assert rec["max_degree_delta_R"] <= 2

    def test_height_stays_within_four_radii(self):
        # empirical height envelope; violations are reported, not asserted hard
        loose = []
        for inst in undirected_stream(80, seed=5):
            res = exact_min_poise_ktree(inst)
            pruned = prune_beyond(inst, res.D_star)
            tree = solve_undirected(pruned, PoiseGuess(res.B_star, res.D_star))
            if tree.height() > 4 * res.D_star + 1:
                loose.append((inst, res))
        if loose:
            pytest.skip(f"height envelope exceeded on {len(loose)} instances (recorded)")

    def test_coverage_dominates_optimal_overlap_in_pmcover_iterations(self):
        # in every cover-branch iteration at the oracle budget, the terminals
        # covered must at least match what an optimal tree holds inside the
        # batch of small trees being discarded
        checked = 0
        instances = [hub_stars_instance()] + list(undirected_stream(60, seed=61))
        for inst in instances:
            res = exact_min_poise_ktree(inst, limit_n=14)
            opt_terms = res.best_tree.vertices() & inst.terminals
            stage = stage_undirected(prune_beyond(inst, res.D_star), res.D_star)
            _, trace = stage.trace(res.B_star)
            for rec in trace["detail"]:
                if rec["branch"] != "pmcover":
                    continue
                checked += 1
                overlap = len(set(rec["discarded_terminals"]) & opt_terms)
                assert len(rec["covered_terminals"]) >= overlap
        assert checked >= 1  # the constructed instance always exercises it


def test_stage_assembles_each_final_region_once(monkeypatch):
    # the sweep-und-clusters shape: every hub is a super-terminal that only
    # the cover reaches, and many degree budgets grow the same region; the
    # final tree is a function of the region's arcs, so it is built once each
    inst = generate_instance("star-of-stars", {"branch": 10, "leaf": 4, "k": 30, "directed": False})
    regions = []
    original = undirected.shortest_path_tree

    def recording(graph, arcs, root):
        if root == inst.root:  # the super-terminal search roots its trees in C
            regions.append(frozenset(arcs))
        return original(graph, arcs, root)

    monkeypatch.setattr(undirected, "shortest_path_tree", recording)
    stage = stage_budget(inst, 3)
    trees = {}
    for B in range(1, len(inst.terminals) + 1):
        try:
            trees[B] = stage.solve(B)
        except InfeasibleGuessError:
            pass
    kept = regions[:]
    regions.clear()
    for B, tree in trees.items():
        assert tree.parent == stage_budget(inst, 3).solve(B).parent
    assert len(regions) == len(trees)  # one final tree per fresh solve
    assert len(kept) == len(set(kept)) == len(set(regions)) < len(trees)
    assert set(kept) == set(regions)


def test_pmcover_discards_the_terminals_in_the_rounds_packed_trees():
    # the sweep-und-clusters shape at its one covering row: a pmcover
    # iteration retires every terminal its round packed, covered or not
    inst = generate_instance("star-of-stars", {"branch": 10, "leaf": 4, "k": 30, "directed": False})
    stage = stage_budget(inst, 3)
    checked = 0
    for B in range(1, len(inst.terminals) + 1):
        try:
            _, walked, _ = stage._walk(B)
        except InfeasibleGuessError:
            continue
        _, trace = stage.trace(B)
        for record, before in zip(trace["detail"], walked):
            if record["branch"] == "pmcover":
                packed = set().union(*(tr.vertices() for tr in before.trees))
                assert record["discarded_terminals"] == sorted(before.terminals & packed)
                checked += 1
    assert checked


def _steps(packing):
    """Every round a stage has stepped to from ``packing`` on, depth first."""
    for following in packing.steps.values():
        yield following
        yield from _steps(following)


def _stage(inst, D):
    """The row's stage, or the message of the error that finds it
    infeasible."""
    try:
        return stage_budget(inst, D)
    except InfeasibleGuessError as exc:
        return str(exc)


def _cell(stage, B):
    """A cell's (root, parent map in order, trace), or its infeasibility
    message; an infeasible row's message stands in for its stage."""
    if isinstance(stage, str):
        return stage
    try:
        tree = stage.solve(B)
    except InfeasibleGuessError as exc:
        return str(exc)
    traced, trace = stage.trace(B)
    assert traced is tree
    return tree.root, list(tree.parent.items()), trace


def test_row_merges_and_covers_once_per_distinct_step(monkeypatch):
    # the sweep-und-clusters shape at its one covering row: every budget
    # covers the first round's super-terminals, and many budgets pick alike;
    # the region's growth and its cover forest are functions of the picks
    inst = generate_instance("star-of-stars", {"branch": 10, "leaf": 4, "k": 30, "directed": False})
    merges, forests = [], []
    merge, forest = undirected._merge_arcs, undirected._cover_forest

    def merging(*args):
        merges.append(args)
        return merge(*args)

    def covering(graph, row, chosen):
        forests.append(frozenset(chosen))
        return forest(graph, row, chosen)

    monkeypatch.setattr(undirected, "_merge_arcs", merging)
    monkeypatch.setattr(undirected, "_cover_forest", covering)
    stage = stage_budget(inst, 3)
    budgets = range(1, len(inst.terminals) + 1)
    solves = [_cell(stage, B) for B in budgets]
    assert sum(isinstance(cell, str) for cell in solves) == 1
    assert len(merges) == len(forests) == len(set(forests)) < len(solves) - 1
    assert len(merges) == len(list(_steps(stage)))
    monkeypatch.undo()
    assert solves == [_cell(stage_budget(inst, 3), B) for B in budgets]


@pytest.mark.parametrize("make", [
    hub_stars_instance,
    lambda: generate_instance("grid", {"w": 8, "h": 8, "t": 24, "k": 12, "seed": 2}),
], ids=["hub-stars", "grid"])
def test_shared_stage_solves_every_budget_as_a_fresh_stage(monkeypatch, make):
    # multi-iteration solves: each later round is built once per distinct
    # step and packed at most once, however many budgets walk through it; a
    # round whose region is a walk's answer is never packed; and the rounds
    # are freed with the stage, without waiting for the cycle collector
    inst = make()
    built, packed = [], []

    class Recording(undirected.SuperRound):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(weakref.ref(self))

        @functools.cached_property
        def _packing(self):
            packed.append(weakref.ref(self))
            return undirected.Round._packing.func(self)

    monkeypatch.setattr(undirected, "SuperRound", Recording)
    budgets = range(1, len(inst.terminals) + 1)
    later_packings = region_ends = 0
    for D in range(1, eccentricity(inst.graph, inst.root) + 1):
        stage = _stage(inst, D)
        if not isinstance(stage, SuperRound):
            continue
        built.clear()
        packed.clear()
        shared = [_cell(stage, B) for B in budgets]
        later = [ref() for ref in built if ref() is not stage]
        stepped = list(_steps(stage))
        assert len(later) == len(stepped) == len({id(r) for r in later} | {id(r) for r in stepped})
        packings = [ref() for ref in packed]
        packed_ids = {id(r) for r in packings}
        assert len(packings) == len(packed_ids)
        walks = []
        for B in budgets:
            try:
                walks.append(stage._walk(B)[1:])
            except InfeasibleGuessError:
                continue
            # each trace renders its records afresh: none is shared with
            # another call, so a caller that mutates one spoils nothing
            (_, first), (_, second) = stage.trace(B), stage.trace(B)
            assert first == second
            for key in ("iterations", "detail"):
                assert not {id(r) for r in first[key]} & {id(r) for r in second[key]}
        # every round a walk goes on from is packed; none it ends on is,
        # nor builds its C = V - R
        assert all(id(r) in packed_ids for walked, _ in walks for r in walked[:-1])
        ends = [walked[-1] for walked, completes in walks if not completes]
        assert not any(id(r) in packed_ids or "C" in vars(r) for r in ends)
        later_packings += sum(r is not stage for r in packings)
        region_ends += len(ends)
        del later, stepped, packings, walks, ends
        gc.disable()
        try:
            del stage
            assert all(ref() is None for ref in built)
        finally:
            gc.enable()
        assert shared == [_cell(_stage(inst, D), B) for B in budgets]
    assert later_packings > 0 and region_ends > 0


@given(st.integers(0, 2**32 - 1), st.randoms(use_true_random=False))
@settings(max_examples=150, deadline=None)
def test_shared_stage_matches_fresh_stages_on_random_instances(seed, rng):
    # one stage per row, its budgets solved in a random order, against a
    # fresh stage per cell; infeasible cells must give the same message
    inst = next(undirected_stream(1, seed))
    budgets = list(range(1, len(inst.terminals) + 1))
    for D in range(1, eccentricity(inst.graph, inst.root) + 2):
        stage = _stage(inst, D)
        rng.shuffle(budgets)
        for B in budgets:
            assert _cell(stage, B) == _cell(_stage(inst, D), B)


def _region_keys_grow_with_their_arcs(inst):
    """Walk every cell of every row and check each round's region against
    the arcs its walk added so far; the number of rounds that added any."""
    grown = 0
    for D in range(1, eccentricity(inst.graph, inst.root) + 2):
        stage = _stage(inst, D)
        if isinstance(stage, str):
            continue
        for B in range(1, len(inst.terminals) + 1):
            try:
                walked = stage._walk(B)[1]
            except InfeasibleGuessError:
                continue
            added = []
            for packing in walked:
                added += packing.added
                grown += bool(packing.added)
                assert type(packing.arcs) is ArcKeys
                assert packing.arcs == arc_keys(packing.graph, added)
                assert packing.R == {packing.root, *(v for arc in added for v in arc)}
    return grown


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_region_keys_are_the_arcs_added_so_far_on_random_instances(seed):
    # a round's region is its keys: the stage's empty set, then the keys of
    # each step's added arcs joined to the last round's, and R their ends
    _region_keys_grow_with_their_arcs(next(undirected_stream(1, seed)))


@pytest.mark.parametrize("make", [
    lambda: generate_instance(
        "star-of-stars", {"branch": 10, "leaf": 4, "k": 30, "directed": False}
    ),
    hub_stars_instance,
    lambda: generate_instance("grid", {"w": 8, "h": 8, "t": 24, "k": 12, "seed": 2}),
], ids=["star-of-stars", "hub-stars", "grid"])
def test_region_keys_are_the_arcs_added_so_far_on_multi_round_walks(make):
    assert _region_keys_grow_with_their_arcs(make()) > 0
