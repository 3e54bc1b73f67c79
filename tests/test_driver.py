from collections import Counter

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from poisekit import (
    exact_min_poise_ktree,
    eccentricity,
    generate_instance,
    run_sweep,
)
from poisekit.driver import BENCH_COLUMNS, bench_rows, solve_guess, stage_budget
from poisekit.errors import GenerationError, InfeasibleGuessError
from poisekit.graph import (
    ArcKeys, PoiseGuess, arc_keys, bfs_distances, is_normalized, tree_metrics,
)
from poisekit.undirected import SuperRound

from conftest import directed_stream, middles_instance, undirected_stream
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

    @pytest.mark.parametrize("directed, mode, message", [
        (True, "bogus", "unknown mode 'bogus'"),
        (False, "bogus", "unknown mode 'bogus'"),
        (True, "undirected", "the undirected solver requires an undirected graph"),
    ])
    def test_mode_is_checked_when_the_root_reaches_nothing(self, directed, mode, message):
        # the root has no out-arc (ecc 0), so the sweep stages no row; a bad
        # mode must still raise, with stage_budget's message
        from poisekit import Graph, MulticastInstance

        inst = MulticastInstance(Graph(3, [(1, 2)], directed), 0, {2}, 1)
        assert eccentricity(inst.graph, inst.root) == 0
        for call in (lambda: run_sweep(inst, mode), lambda: stage_budget(inst, 1, mode)):
            with pytest.raises(ValueError) as info:
                call()
            assert str(info.value) == message
        report, tree = run_sweep(inst, "directed")
        assert report.records == [] and tree is None

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
        directed, "_stitch_keys", _counting(paths, directed._stitch_keys)
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


def _records_match_tree_metrics(inst, mode):
    """Check every feasible record of ``run_sweep(inst, mode)`` against
    `tree_metrics` of the tree its row's stage solves at that budget, the
    budgets ascending as the sweep takes them; return the number of feasible
    cells whose directed stage covered picks (the few-trees branch)."""
    report, _ = run_sweep(inst, mode)
    covered = 0
    stages = {}
    for rec in sorted(report.records, key=lambda r: (r["D"], r["B"])):
        if not rec["feasible"]:
            continue
        D = rec["D"]
        if D not in stages:
            stages[D] = stage_budget(inst, D, mode)
        stage = stages[D]
        tree = stage.solve(rec["B"])
        m = tree_metrics(tree, inst)
        assert (rec["poise"], rec["max_out_degree"], rec["height"], rec["terminals_covered"]) == (
            m.poise, m.max_out_degree, m.height, m.terminals_covered
        )
        if not isinstance(stage, SuperRound) and stage.stitched is None:
            covered += any(tree is built for picks, built in stage.assembled.items() if picks)
    return covered


def _sweep_params(model, size, k_share, directed, seed):
    if model == "random-digraph":
        n = 6 + 2 * size
        t = 3 + size // 2
        return {"n": n, "m": 3 * n if directed else 2 * n, "t": t,
                "k": max(1, int(t * k_share)), "directed": directed, "connected": not directed,
                "seed": seed}
    if model == "layered-dag":
        width = 3 + 2 * size
        return {"width": width, "depth": 1 + size % 3, "t": width,
                "k": max(1, int(width * k_share)), "directed": directed, "seed": seed}
    if model == "grid":
        t = 2 + size
        return {"w": 2 + size // 2, "h": 3 + size // 3, "t": t, "k": max(1, int(t * k_share)),
                "directed": directed, "seed": seed}
    leaves = (2 + size // 2) * (1 + size % 4)
    return {"branch": 2 + size // 2, "leaf": 1 + size % 4, "k": max(1, int(leaves * k_share)),
            "directed": directed}


@given(
    model=st.sampled_from(["random-digraph", "layered-dag", "grid", "star-of-stars"]),
    size=st.integers(0, 7),
    k_share=st.floats(0.1, 1.0),
    directed=st.booleans(),
    mode=st.sampled_from(["auto", "directed"]),
    seed=st.integers(0, 10**6),
)
@settings(max_examples=80, deadline=None)
def test_sweep_records_equal_tree_metrics_of_each_cell(model, size, k_share, directed, mode, seed):
    # the sweep reads each tree's metrics off its BFS parent map: every
    # feasible record must equal the checking `tree_metrics` of that cell's
    # tree, on every model, both orientations, and with the directed solver
    # on undirected graphs
    try:
        inst = generate_instance(model, _sweep_params(model, size, k_share, directed, seed))
    except GenerationError:
        assume(False)
    if not is_normalized(inst):
        inst = normalize_terminals(inst)
    _records_match_tree_metrics(inst, mode)


def test_layered_sweep_records_equal_tree_metrics_of_covered_cells():
    # the sweep-dir-layered shape: no vertex is rho-good, so the few-trees
    # branch covers picks at every degree budget, and those trees too must
    # read as `tree_metrics` measures them
    inst = generate_instance("layered-dag", {"width": 13, "depth": 2, "t": 13, "k": 10, "seed": 0})
    assert _records_match_tree_metrics(inst, "auto") > 0


def _solver_keys_are_graph_arcs(inst, mode):
    """Solve every cell of every row of ``inst`` under ``mode`` and check
    that each key set the solvers encode without a check holds graph arcs
    only: every walked round's base and region keys, and the keys each tree
    is built over (the assembled and stitched trees, the found aggregate
    and a region's tree), whose own arcs `arc_keys` checks too.  Returns
    how many region, base and tree key sets it checked, and in how many
    walked rounds it met a stitched tree, a found aggregate or an assembled
    tree."""
    from poisekit import directed, undirected

    built = []

    def recording(original):
        def spt(graph, keys, root):
            tree = original(graph, keys, root)
            built.append((graph, keys, tree))
            return tree
        return spt

    kinds = Counter()
    every = {}

    def check(kind, graph, keys):
        if graph not in every:
            every[graph] = arc_keys(graph, graph.arcs)
        assert type(keys) is ArcKeys and keys <= every[graph], kind
        kinds[kind] += 1

    with pytest.MonkeyPatch.context() as mp:
        for module in (directed, undirected):
            mp.setattr(module, "shortest_path_tree", recording(module.shortest_path_tree))
        for D in range(1, eccentricity(inst.graph, inst.root) + 2):
            try:
                stage = stage_budget(inst, D, mode)
            except InfeasibleGuessError:
                continue
            for B in range(1, len(inst.terminals) + 1):
                try:
                    walked = stage._walk(B)[1] if isinstance(stage, SuperRound) else [stage]
                    stage.solve(B)
                except InfeasibleGuessError:
                    continue
                for packing in walked:
                    check("region", packing.graph, packing.arcs)
                    try:
                        check("base", packing.graph, packing.base)
                    except InfeasibleGuessError:
                        pass
                    for name in ("stitched", "found"):
                        kinds[name] += vars(packing).get(name) is not None
                    kinds["assembled"] += len(packing.assembled)
    for graph, keys, tree in built:
        check("tree", graph, keys)
        arc_keys(graph, tree.arcs())
    return kinds


@given(
    seed=st.integers(0, 2**32 - 1),
    case=st.sampled_from([
        (directed_stream, "auto"), (undirected_stream, "auto"), (undirected_stream, "directed"),
    ]),
)
@settings(max_examples=150, deadline=None)
def test_solver_keys_are_graph_arcs_on_random_instances(seed, case):
    # every arc the solvers join is a BFS parent arc, a cover's boundary
    # pair or a packed tree's parent arc, so they encode it with `row_keys`
    # and never check it: each key must still be a key of the graph's arcs
    stream, mode = case
    assert _solver_keys_are_graph_arcs(next(stream(1, seed)), mode)["tree"] > 0


def test_solver_keys_are_graph_arcs_on_every_branch():
    kinds = Counter()
    for model, params in [
        ("star-of-stars", {"branch": 10, "leaf": 4, "k": 30, "directed": False}),
        ("grid", {"w": 8, "h": 8, "t": 24, "k": 12, "seed": 2}),
        ("layered-dag", {"width": 13, "depth": 2, "t": 13, "k": 10, "seed": 0}),
        ("random-digraph", {"n": 60, "m": 300, "t": 12, "k": 9, "seed": 1}),
    ]:
        inst = generate_instance(model, params)
        for mode in ("auto", "directed"):
            kinds += _solver_keys_are_graph_arcs(inst, mode)
    assert min(kinds[k] for k in ("region", "base", "tree", "stitched", "found", "assembled")) > 0


def test_sweep_fails_loudly_when_its_metrics_disagree_with_tree_metrics(monkeypatch):
    from poisekit import driver
    from poisekit.graph import TreeMetrics

    inst = generate_instance("star-of-stars", {"branch": 3, "leaf": 2, "k": 4})
    monkeypatch.setattr(driver, "spt_metrics", lambda tree, terminals: TreeMetrics(1, 1, 2, 9))
    with pytest.raises(RuntimeError, match="best tree measures"):
        run_sweep(inst)


def test_sweep_measures_each_distinct_tree_once_per_row(monkeypatch):
    # an undirected star of stars is itself a tree, so a cell's tree is the
    # region it grew, and equal regions give the row's one kept tree: the
    # sweep measures it once, yet reports the metrics of every cell; only
    # the best tree goes through the checking `tree_metrics`, once
    from poisekit import driver
    from poisekit.graph import spt_metrics, tree_metrics

    inst = generate_instance("star-of-stars", {"branch": 10, "leaf": 4, "k": 30, "directed": False})
    measured, checked = [], []
    monkeypatch.setattr(driver, "spt_metrics", _counting(measured, spt_metrics))
    monkeypatch.setattr(driver, "tree_metrics", _counting(checked, tree_metrics))
    report, _ = run_sweep(inst)
    assert len(checked) == 1
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
