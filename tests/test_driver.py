import pytest

from poisekit import (
    exact_min_poise_ktree,
    eccentricity,
    generate_instance,
    run_sweep,
)
from poisekit.driver import BENCH_COLUMNS, bench_rows, solve_guess, stage_budget
from poisekit.errors import InfeasibleGuessError
from poisekit.graph import PoiseGuess, bfs_distances

from conftest import middles_instance
from poisekit.graph import normalize_terminals


class TestRunSweep:
    def test_grid_is_complete(self):
        inst = generate_instance("star-of-stars", {"branch": 2, "leaf": 2, "k": 3})
        report, tree = run_sweep(inst)
        ecc = eccentricity(inst.graph, inst.root)
        t = len(inst.terminals)
        assert report.grid == {"D_max": ecc, "B_max": t}
        assert len(report.records) == ecc * t
        assert tree is not None and report.best is not None

    def test_best_matches_oracle_on_star(self):
        inst = generate_instance("star-of-stars", {"branch": 2, "leaf": 1, "k": 2})
        report, _ = run_sweep(inst)
        res = exact_min_poise_ktree(inst)
        assert report.best["poise"] == res.poise_star

    def test_plain_star_sweep_hits_m_plus_one(self):
        from poisekit import Graph, MulticastInstance

        for m in (2, 3, 4):
            g = Graph(m + 1, [(0, i) for i in range(1, m + 1)], directed=True)
            inst = MulticastInstance(g, 0, range(1, m + 1), m)
            report, _ = run_sweep(inst)
            assert report.best["poise"] == m + 1
            assert report.best["poise"] == exact_min_poise_ktree(inst).poise_star

    def test_undirected_mode_on_directed_instance_rejected_at_every_D(self):
        # pruning finds the small height budgets infeasible; the mode is
        # rejected before that, so every D answers the same way
        inst = generate_instance(
            "random-digraph", {"n": 12, "m": 30, "t": 4, "k": 3, "seed": 5}
        )
        for D in range(1, eccentricity(inst.graph, inst.root) + 3):
            with pytest.raises(ValueError, match="requires an undirected graph"):
                stage_budget(inst, D, "undirected")
            with pytest.raises(ValueError, match="requires an undirected graph"):
                solve_guess(inst, PoiseGuess(1, D), "undirected")
        with pytest.raises(ValueError, match="requires an undirected graph"):
            run_sweep(inst, "undirected")

    def test_undirected_mode_auto(self):
        inst = normalize_terminals(middles_instance(4))
        report, tree = run_sweep(inst)
        assert report.best is not None
        assert tree is not None


class TestBenchRows:
    def test_unknown_suite(self):
        with pytest.raises(ValueError):
            bench_rows("nope", 1)

    def test_rows_have_fixed_columns(self):
        rows = bench_rows("quick", 2)
        assert rows
        for row in rows:
            assert list(row) == BENCH_COLUMNS

    def test_ratio_present_for_oracle_sized_rows(self):
        rows = bench_rows("quick", 1)
        small_rows = [r for r in rows if isinstance(r["n"], int) and r["n"] <= 12]
        assert small_rows
        for row in small_rows:
            assert row["oracle_poise"] != ""
            assert float(row["ratio"]) >= 1.0


def test_sweep_runs_one_bfs_from_the_root(monkeypatch):
    # every D row prunes from the same root distances
    from poisekit import driver, graph

    inst = generate_instance("random-digraph", {"n": 30, "m": 70, "t": 8, "k": 6, "seed": 4})
    original = graph.bfs_distances
    calls = []

    def counting(g, sources, *args, **kwargs):
        if g is inst.graph and set(sources) == {inst.root}:
            calls.append(1)
        return original(g, sources, *args, **kwargs)

    monkeypatch.setattr(graph, "bfs_distances", counting)
    monkeypatch.setattr(driver, "bfs_distances", counting, raising=False)
    report, _ = run_sweep(inst)
    rows = report.grid["D_max"]
    assert rows > 1 and any(not r["feasible"] for r in report.records)
    assert len(calls) == 1


def test_middles_sweep_packs_once(monkeypatch):
    # the one D row past pruning packs its first round once, and every cell,
    # solved or swept, ends in iteration 1: a later iteration would pack again
    from poisekit import directed

    inst = middles_instance(8)
    original = directed.greedy_packing
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(directed, "greedy_packing", counting)
    report, _ = run_sweep(inst)
    assert len(calls) == 1
    assert [r["feasible"] for r in report.records if r["D"] == 1] == [False] * 8
    calls.clear()
    stage = stage_budget(inst, 2)
    for B in range(1, 9):
        try:
            stage.solve(B)
        except InfeasibleGuessError:
            assert B == 1
    assert len(calls) == 1


def _counting(calls, original, keep=lambda *args, **kwargs: True):
    def counting(*args, **kwargs):
        if keep(*args, **kwargs):
            calls.append(1)
        return original(*args, **kwargs)

    return counting


def test_directed_row_builds_paths_to_packed_roots_once(monkeypatch):
    # the few-trees round packs trees, and the paths from the root to them
    # read only D: one BFS serves every degree budget the row solves
    from poisekit import directed

    inst = normalize_terminals(generate_instance(
        "random-digraph", {"n": 12, "m": 26, "t": 6, "k": 6, "seed": 2}
    ))
    paths, completes = [], []
    monkeypatch.setattr(
        directed, "_paths_to_tree_roots", _counting(paths, directed._paths_to_tree_roots)
    )
    monkeypatch.setattr(directed, "complete", _counting(completes, directed.complete))
    stage = stage_budget(inst, 5)
    assert stage.stitched is None and len(stage.trees) >= 1
    for B in range(1, len(inst.terminals) + 1):
        stage.solve(B)
    assert len(completes) >= 2
    assert len(paths) == 1


def test_undirected_row_builds_its_aggregation_path_once(monkeypatch):
    # every solved degree budget's first iteration aggregates the same found
    # tree from the root: one region BFS serves the row
    from poisekit import undirected

    inst = normalize_terminals(generate_instance(
        "random-digraph", {"n": 11, "m": 23, "t": 6, "k": 5, "seed": 1, "directed": False}
    ))
    region_bfs = []

    def from_root(graph, sources, **kwargs):
        return list(sources) == [inst.root] and not kwargs

    monkeypatch.setattr(
        undirected, "bfs_parents", _counting(region_bfs, undirected.bfs_parents, from_root)
    )
    stage = stage_budget(inst, 4)
    for B in (1, 2):
        stage.solve(B)
    assert [stage.trace(B)[1]["iterations"][0]["branch"] for B in (1, 2)] == ["large", "large"]
    assert len(region_bfs) == 1


def test_sweep_measures_each_distinct_tree_once_per_row(monkeypatch):
    # an undirected star of stars is itself a tree, so a cell's tree is the
    # region it grew, and equal regions give the row's one kept tree: the
    # sweep measures it once, yet reports the metrics of every cell
    from poisekit import driver
    from poisekit.graph import tree_metrics

    inst = generate_instance("star-of-stars", {"branch": 10, "leaf": 4, "k": 30, "directed": False})
    measured = []
    monkeypatch.setattr(driver, "tree_metrics", _counting(measured, tree_metrics))
    report, _ = run_sweep(inst)
    expected, distinct = [], 0
    for D in range(1, report.grid["D_max"] + 1):
        try:
            stage = stage_budget(inst, D)
        except InfeasibleGuessError as exc:
            stage, reason = None, str(exc)
        trees = set()
        for B in range(1, report.grid["B_max"] + 1):
            if stage is None:
                expected.append({"B": B, "D": D, "feasible": False, "reason": reason})
                continue
            try:
                tree = stage.solve(B)
            except InfeasibleGuessError as exc:
                expected.append({"B": B, "D": D, "feasible": False, "reason": str(exc)})
                continue
            m = tree_metrics(tree, inst)
            expected.append({
                "B": B, "D": D, "feasible": True, "poise": m.poise,
                "max_out_degree": m.max_out_degree, "height": m.height,
                "terminals_covered": m.terminals_covered,
            })
            trees.add(frozenset(tree.parent.items()))
        distinct += len(trees)
    expected.sort(key=lambda rec: (rec["B"], rec["D"]))
    assert [{k: v for k, v in r.items() if k != "wall_ms"} for r in report.records] == expected
    feasible = sum(r["feasible"] for r in expected)
    assert len(measured) == distinct < feasible


@pytest.mark.parametrize("model, params", [
    ("layered-dag", {"width": 30, "depth": 2, "t": 30, "k": 24, "seed": 0}),
    ("star-of-stars", {"branch": 10, "leaf": 4, "k": 30, "directed": False}),
], ids=["directed-cover", "undirected-cover"])
def test_untraced_sweep_renders_no_trace(model, params, monkeypatch):
    # a trace is rendered only on request: a sweep that touched one would
    # raise here, and the untraced sweep reports what an unpatched one does
    from poisekit import cover
    from poisekit.directed import Round
    from poisekit.undirected import SuperRound

    def refuse(*args):
        raise AssertionError("a sweep rendered a trace")

    inst = generate_instance(model, params)
    refused = [(Round, "trace"), (SuperRound, "trace"), (SuperRound, "small_record"),
               (SuperRound, "_record")]
    for cls, name in refused:
        monkeypatch.setattr(cls, name, refuse)
    covers = []
    monkeypatch.setattr(cover, "pm_cover", _counting(covers, cover.pm_cover))
    report, tree = run_sweep(inst)
    monkeypatch.undo()
    expected, _ = run_sweep(inst)
    assert tree is not None and covers  # the sweep covered, untraced
    drop = lambda records: [{k: v for k, v in r.items() if k != "wall_ms"} for r in records]
    assert drop(report.records) == drop(expected.records)


def test_infeasible_rows_are_written_without_solving(monkeypatch):
    # stage_budget raises for a row with too few terminals in reach; the
    # sweep writes that message into every cell of the row, the record the
    # fixed-guess path reports, without solving it; the record keys keep
    # their order
    from poisekit import driver

    inst = generate_instance("layered-dag", {"width": 30, "depth": 2, "t": 30, "k": 24, "seed": 0})
    dist = bfs_distances(inst.graph, [inst.root])
    reasons = {}
    for D in range(1, max(dist.values()) + 1):
        if sum(dist.get(t, D + 1) <= D for t in inst.terminals) >= inst.k:
            continue  # a row the sweep solves
        with pytest.raises(InfeasibleGuessError) as info:
            stage_budget(inst, D)
        reasons[D] = str(info.value)
        for B in range(1, len(inst.terminals) + 1):
            with pytest.raises(InfeasibleGuessError) as info:
                solve_guess(inst, PoiseGuess(B, D))
            assert str(info.value) == reasons[D]
    assert reasons

    solved = set()

    def refusing(instance, guess, mode="auto", stage=None):
        assert guess.D not in reasons, "the sweep solved an infeasible row"
        solved.add(guess.D)
        return solve_guess(instance, guess, mode, stage)

    monkeypatch.setattr(driver, "solve_guess", refusing)
    report, tree = run_sweep(inst)
    assert tree is not None and solved == set(dist.values()) - {0} - set(reasons)
    written = [rec for rec in report.records if rec["D"] in reasons]
    assert len(written) == len(reasons) * len(inst.terminals)
    for rec in written:
        assert list(rec) == ["B", "D", "feasible", "reason", "wall_ms"]
        assert rec["feasible"] is False and rec["reason"] == reasons[rec["D"]]
