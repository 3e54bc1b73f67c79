import pytest

from poisekit import (
    exact_min_poise_ktree,
    eccentricity,
    generate_instance,
    run_sweep,
)
from poisekit.driver import BENCH_COLUMNS, bench_rows

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

    def test_fast_sweep_records_skips(self):
        inst = generate_instance("star-of-stars", {"branch": 2, "leaf": 2, "k": 3})
        full, _ = run_sweep(inst)
        fast, fast_tree = run_sweep(inst, fast=True)
        assert fast.fast_sweep
        assert len(fast.records) + fast.skipped == len(full.records)
        assert fast.best["poise"] == full.best["poise"]
        assert fast_tree is not None

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
