import pytest

from poisekit import (
    exact_min_poise_ktree,
    eccentricity,
    generate_instance,
    run_sweep,
)
from poisekit.driver import BENCH_COLUMNS, bench_rows, solve_guess, stage_budget
from poisekit.errors import InfeasibleGuessError
from poisekit.graph import PoiseGuess

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
