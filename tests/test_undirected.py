import pytest

from poisekit import (
    Graph,
    GoodTree,
    MulticastInstance,
    PoiseGuess,
    PoiseTree,
    SuperTerminal,
    exact_min_poise_ktree,
    find_good_vertex_wrt_super,
    prune_beyond,
    small,
    solve_undirected,
    tree_metrics,
)
from poisekit import undirected
from poisekit.driver import stage_budget
from poisekit.errors import InfeasibleGuessError
from poisekit.undirected import _ceil_cbrt, _ceil_log2, stage_undirected

from conftest import hub_stars_instance, middles_instance, undirected_stream


class TestCeilCbrt:
    def test_values(self):
        assert [_ceil_cbrt(t) for t in (1, 2, 7, 8, 9, 27, 28)] == [1, 2, 2, 2, 3, 3, 4]


class TestSmall:
    def test_middles_has_no_good_vertex_and_completes(self):
        # eight 1-terminal middles: no vertex reaches 2 terminals inside C,
        # so the packing is empty and the completion covers everything
        inst = middles_instance(8)
        result = small(
            inst.graph, set(range(1, 17)), inst.terminals, t=8, k_remaining=8,
            B=8, D=2, root=0,
        )
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
        result = small(
            g, set(range(1, nxt)), inst.terminals, t=8, k_remaining=8,
            B=2, D=2, root=0,
        )
        assert isinstance(result, list)
        assert len(result) == 4
        assert all(len(t.terminals) == 2 for t in result)

    def test_packs_inside_C_and_completes_outside_it(self):
        # terminals 2, 5 hang off 1 and 4, 6 off 3; C leaves out 3, so the
        # packing finds one 2-terminal tree (at 1), below rho = 2, and the
        # completion, anchored at the root plus that tree, reaches 4 and 6
        # through 3 (with 3 in C the packing would find two trees)
        g = Graph(7, [(0, 1), (1, 2), (1, 5), (0, 3), (3, 4), (3, 6)], directed=False)
        terms = {2, 4, 5, 6}
        args = dict(t=4, k_remaining=4, B=1, D=2, root=0)
        assert len(small(g, set(range(1, 7)), terms, **args)) == 2
        result = small(g, {1, 2, 4, 5, 6}, terms, **args)
        assert isinstance(result, PoiseTree)
        assert result.root == 0
        assert result.parent == {1: 0, 2: 1, 5: 1, 3: 0, 4: 3, 6: 3}

    def test_single_terminal_degenerates(self):
        g = Graph(3, [(0, 1), (1, 2)], directed=False)
        inst = MulticastInstance(g, 0, {2}, 1)
        result = small(g, {1, 2}, inst.terminals, t=1, k_remaining=1, B=1, D=2, root=0)
        # rho = 1: the terminal itself makes a 1-good tree, so trees come back
        assert isinstance(result, list)
        assert len(result) >= 1 and all(len(t.terminals) == 1 for t in result)


class TestFindGoodVertexWrtSuper:
    def make_supers(self):
        t1 = GoodTree(5, frozenset({(5, 6)}), frozenset({5, 6}))
        t2 = GoodTree(7, frozenset({(7, 8)}), frozenset({7, 8}))
        return [
            SuperTerminal(0, t1, frozenset({5, 6})),
            SuperTerminal(1, t2, frozenset({7, 8})),
        ]

    def graph(self):
        return Graph(9, [(4, 5), (5, 6), (4, 7), (7, 8), (0, 4)], directed=False)

    def test_adjacent_vertex_aggregates_both(self):
        supers = self.make_supers()
        got = find_good_vertex_wrt_super(self.graph(), set(range(4, 9)), supers, 2, D=1)
        assert got is not None
        v, tree = got
        assert v == 4
        assert {5, 6, 7, 8} <= tree.vertices()

    def test_zero_radius_finds_only_members(self):
        supers = self.make_supers()
        got = find_good_vertex_wrt_super(self.graph(), {0, 4}, supers, 2, D=0)
        assert got is None

    def test_threshold_above_super_count(self):
        supers = self.make_supers()
        got = find_good_vertex_wrt_super(self.graph(), set(range(4, 9)), supers, 3, D=2)
        assert got is None


class TestStaging:
    def test_first_round_contracts_its_trees_once_per_row(self, monkeypatch):
        # D = 3 is the one row past pruning; every cell aggregates the first
        # round's super-terminals (large), then covers a fresh round's (pmcover)
        contracted = []

        def recording(i, tree, representatives):
            contracted.append(tree)
            return SuperTerminal(i, tree, representatives)

        monkeypatch.setattr(undirected, "SuperTerminal", recording)
        inst = hub_stars_instance()
        stage = stage_budget(inst, 3)
        for B in range(1, len(inst.terminals) + 1):
            trace = stage.solve(B).trace
            assert [r["branch"] for r in trace["iterations"]] == ["large", "pmcover"]
        first = stage.first.trees
        assert len(first) == 4
        assert sum(any(t is f for f in first) for t in contracted) == len(first)
        assert len({id(t) for t in contracted}) == len(contracted)


class TestSolveUndirected:
    def test_middles_small_success_first_iteration(self):
        inst = middles_instance(8)
        solved = stage_undirected(prune_beyond(inst, 2), 2).solve(8)
        tree, trace = solved.tree, solved.trace
        m = tree_metrics(tree, inst)
        assert m.terminals_covered == 8
        assert [r["branch"] for r in trace["iterations"]] == ["small"]

    def test_constructed_large_then_pmcover(self):
        inst = hub_stars_instance()
        solved = stage_undirected(prune_beyond(inst, 3), 3).solve(3)
        tree, trace = solved.tree, solved.trace
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
            trace = stage_undirected(pruned, res.D_star).solve(res.B_star).trace
            t = len(inst.terminals)
            rho = _ceil_cbrt(t)
            log = trace["iterations"]
            assert len(log) <= rho + 1
            lg = _ceil_log2(inst.k) + 1
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
            trace = stage_undirected(prune_beyond(inst, res.D_star), res.D_star).solve(
                res.B_star
            ).trace
            for rec in trace.get("detail", []):
                if rec["branch"] != "pmcover":
                    continue
                checked += 1
                overlap = len(set(rec["discarded_terminals"]) & opt_terms)
                assert len(rec["covered_terminals"]) >= overlap
        assert checked >= 1  # the constructed instance always exercises it
