import contextlib
import csv
import io
import json
import os
import random
import subprocess
import sys
import tempfile
from dataclasses import asdict
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import poisekit
from poisekit import jsonio
from poisekit.cli import main

from conftest import (
    MALFORMED_INSTANCES,
    MALFORMED_SCHEDULES,
    MALFORMED_TREES,
    hub_stars_instance,
    two_branch_instance,
)


@pytest.fixture
def inst_path(tmp_path):
    path = tmp_path / "inst.json"
    jsonio.save_instance(two_branch_instance(), path)
    return str(path)


def run(argv):
    return main(argv)


class TestGen:
    def test_writes_instance(self, tmp_path):
        out = tmp_path / "g.json"
        assert run(["gen", "--model", "star-of-stars", "--param", "branch=2",
                    "--param", "leaf=2", "--k", "3", "--out", str(out)]) == 0
        inst = jsonio.load_instance(out)
        assert inst.k == 3

    def test_bad_model_exits_one(self):
        assert run(["gen", "--model", "nonsense"]) == 1

    @pytest.mark.parametrize("params, named", [
        (["w=100000", "h=100000"], "vertices exceed the cap of 1000000"),
        (["w=3", "h=3", "directed=no"], "'directed' must be true or false, got 'no'"),
        (["w=3", "h=3", "direction=true"], "unknown parameter 'direction'"),
        (["w=true", "h=3"], "'w' must be an integer, got True"),
    ])
    def test_bad_grid_params_exit_one_with_one_line(self, params, named, tmp_path, capsys):
        out = tmp_path / "g.json"
        argv = ["gen", "--model", "grid", "--k", "1", "--out", str(out)]
        for item in params:
            argv += ["--param", item]
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and named in err
        assert not out.exists()


class TestSolve:
    def test_fixed_guess_writes_tree(self, inst_path, tmp_path, capsys):
        out = tmp_path / "tree.json"
        code = run(["solve", "--input", inst_path, "--B", "2", "--D", "2",
                    "--out", str(out)])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["feasible"]
        assert payload["metrics"]["normalized"]["poise"] == 4
        assert payload["metrics"]["original"]["poise"] == 4
        tree = jsonio.load_tree(out)
        assert tree.arcs() == {(0, 1), (0, 2), (1, 3), (2, 4)}

    def test_sweep_finds_oracle_poise(self, inst_path, tmp_path, capsys):
        out = tmp_path / "tree.json"
        code = run(["solve", "--input", inst_path, "--sweep", "--out", str(out)])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["best"]["poise"] == 4
        assert len(payload["records"]) == payload["grid"]["D_max"] * payload["grid"]["B_max"]

    @pytest.mark.parametrize("make", [two_branch_instance, hub_stars_instance],
                             ids=["directed", "undirected"])
    def test_huge_height_budget_solves_promptly(self, make, tmp_path):
        # the search stops once nothing is left to reach, not after D levels
        path = tmp_path / "inst.json"
        jsonio.save_instance(make(), path)
        env = dict(os.environ, PYTHONPATH=str(Path(poisekit.__file__).parent.parent))
        done = subprocess.run(
            [sys.executable, "-m", "poisekit.cli", "solve", "--input", str(path),
             "--B", "2", "--D", str(10**11)],
            env=env, capture_output=True, text=True, timeout=30,
        )
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout)["feasible"]

    def test_infeasible_guess_exits_two(self, inst_path):
        assert run(["solve", "--input", inst_path, "--B", "1", "--D", "1"]) == 2

    def test_malformed_json_exits_one(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run(["solve", "--input", str(bad), "--sweep"]) == 1

    @pytest.mark.parametrize("budget", [["--B", "0", "--D", "2"], ["--B", "2", "--D", "0"]])
    def test_zero_budget_exits_one(self, inst_path, budget, capsys):
        assert run(["solve", "--input", inst_path, *budget]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "budgets must be at least 1" in err

    @pytest.mark.parametrize("flag", ['"false"', "0", "null"])
    def test_non_boolean_directed_exits_one(self, tmp_path, flag, capsys):
        path = tmp_path / "inst.json"
        text = jsonio.instance_to_json(two_branch_instance())
        path.write_text(text.replace('"directed": true', f'"directed": {flag}'))
        assert run(["solve", "--input", str(path), "--sweep"]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and 'field "directed" must be a JSON boolean' in err

    @pytest.mark.parametrize(
        "text, needle", [case[1:] for case in MALFORMED_INSTANCES],
        ids=[case[0] for case in MALFORMED_INSTANCES],
    )
    def test_malformed_instance_exits_one(self, tmp_path, text, needle, capsys):
        path = tmp_path / "inst.json"
        path.write_text(text)
        assert run(["solve", "--input", str(path), "--sweep"]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and needle in err

    def test_seed_flag_is_gone(self, inst_path):
        assert run(["solve", "--input", inst_path, "--sweep", "--seed", "3"]) == 1

    def test_fast_sweep_flag_is_gone(self, inst_path):
        assert run(["solve", "--input", inst_path, "--sweep", "--fast-sweep"]) == 1

    @pytest.mark.parametrize("how", [["--sweep"], ["--B", "2", "--D", "2"]])
    def test_undirected_mode_on_directed_instance_exits_one(self, inst_path, how, capsys):
        assert run(["solve", "--input", inst_path, "--mode", "undirected", *how]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "--mode undirected needs an undirected graph" in err

    def test_trace_written_for_fixed_guess(self, inst_path, tmp_path):
        trace = tmp_path / "trace.json"
        assert run(["solve", "--input", inst_path, "--B", "2", "--D", "2",
                    "--trace", str(trace)]) == 0
        data = json.loads(trace.read_text())
        assert data["solver"] == "directed"
        assert data["branch"] == "few-trees"

    @pytest.mark.parametrize("model, params", [
        ("layered-dag", {"width": 12, "depth": 2, "t": 12, "k": 10, "seed": 3}),
        ("star-of-stars", {"branch": 6, "leaf": 4, "k": 16, "seed": 9, "directed": False}),
    ], ids=["dir-layered", "und-stars-pmcover"])
    def test_trace_covers_as_often_as_the_untraced_solve(
        self, model, params, tmp_path, monkeypatch, capsys
    ):
        # the trace comes from the solve itself, so --trace adds no cover run
        from poisekit import cover

        path = tmp_path / "inst.json"
        jsonio.save_instance(poisekit.generate_instance(model, params), path)
        covers = []
        original = cover.pm_cover

        def counting(*args, **kwargs):
            covers.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(cover, "pm_cover", counting)
        counts, outputs = [], []
        for extra in ([], ["--trace", str(tmp_path / "trace")]):
            covers.clear()
            assert run(["solve", "--input", str(path), "--B", "1", "--D", "3"] + extra) == 0
            counts.append(len(covers))
            outputs.append(capsys.readouterr().out)
        assert counts[0] == counts[1] > 0
        assert outputs[0] == outputs[1]


class TestScheduleAndValidate:
    def test_pipeline(self, inst_path, tmp_path, capsys):
        tree_path = tmp_path / "tree.json"
        sched_path = tmp_path / "sched.json"
        assert run(["solve", "--input", inst_path, "--B", "2", "--D", "2",
                    "--out", str(tree_path)]) == 0
        capsys.readouterr()
        assert run(["schedule", "--input", inst_path, "--tree", str(tree_path),
                    "--out", str(sched_path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["rounds"] == 3
        assert payload["doubling_lower_bound"] == 2
        assert run(["validate", "--input", inst_path,
                    "--schedule", str(sched_path)]) == 0

    def test_invalid_schedule_exits_three(self, inst_path, tmp_path):
        sched_path = tmp_path / "sched.json"
        sched_path.write_text('{"rounds": [[[0, 1], [0, 2]]]}')
        assert run(["validate", "--input", inst_path,
                    "--schedule", str(sched_path)]) == 3

    def test_coverage_shortfall_exits_three(self, inst_path, tmp_path):
        sched_path = tmp_path / "sched.json"
        sched_path.write_text('{"rounds": [[[0, 1]]]}')
        assert run(["validate", "--input", inst_path,
                    "--schedule", str(sched_path), "--k", "1"]) == 3

    @pytest.mark.parametrize("k", ["-3", "0", "7"])
    def test_k_outside_terminal_count_exits_one(self, inst_path, tmp_path, capsys, k):
        # the two-branch instance has 2 terminals; an empty schedule would
        # otherwise pass at k <= 0 and fail coverage at k = 7
        sched_path = tmp_path / "sched.json"
        sched_path.write_text('{"rounds": []}')
        assert run(["validate", "--input", inst_path,
                    "--schedule", str(sched_path), "--k", k]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert f"need 1 <= k <= |terminals|, got k={k}, |S|=2" in captured.err

    def test_inconsistent_tree_exits_one(self, inst_path, tmp_path):
        tree_path = tmp_path / "tree.json"
        tree_path.write_text('{"root": 0, "parent": {"4": 0}}')
        assert run(["schedule", "--input", inst_path, "--tree", str(tree_path)]) == 1

    @pytest.mark.parametrize("text, needle", [
        ('{"root": 0, "parent": {"3": 100}}', "tree arc (100, 3) is not an arc"),
        ('{"root": 0, "parent": {"3": -4}}', "tree arc (-4, 3) is not an arc"),
        ('{"root": 50, "parent": {}}', "tree root 50 is not a vertex"),
    ], ids=["parent-beyond-n", "negative-parent", "root-beyond-n"])
    def test_tree_off_the_graph_exits_one(self, inst_path, tmp_path, text, needle, capsys):
        tree_path = tmp_path / "tree.json"
        tree_path.write_text(text)
        assert run(["schedule", "--input", inst_path, "--tree", str(tree_path)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and needle in err

    def test_tree_rooted_elsewhere_exits_one(self, tmp_path, capsys):
        # the README instance is rooted at 0; a tree rooted at hub 1 used to
        # schedule in fewer rounds than the doubling bound, and the schedule
        # then failed validation
        inst_path, tree_path = tmp_path / "inst.json", tmp_path / "tree.json"
        assert run(["gen", "--model", "star-of-stars", "--param", "branch=3",
                    "--param", "leaf=2", "--k", "4", "--out", str(inst_path)]) == 0
        tree_path.write_text('{"root": 1, "parent": {"4": 1, "5": 1}}')
        capsys.readouterr()
        assert run(["schedule", "--input", str(inst_path), "--tree", str(tree_path),
                    "--out", str(tmp_path / "sched.json")]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert "tree root 1 is not the instance's root 0" in captured.err
        assert not (tmp_path / "sched.json").exists()

    def test_tree_listing_the_root_exits_one(self, tmp_path, capsys):
        # the arc 1 -> 0 makes the root's listed parent a graph arc; the tree
        # used to pass the instance check and crash the scheduler
        from poisekit import Graph, MulticastInstance

        inst = MulticastInstance(Graph(3, [(0, 1), (1, 0), (1, 2)], directed=True), 0, {2}, 1)
        inst_path, tree_path = tmp_path / "inst.json", tmp_path / "tree.json"
        jsonio.save_instance(inst, inst_path)
        tree_path.write_text('{"root": 0, "parent": {"0": 1, "1": 0, "2": 1}}')
        assert run(["schedule", "--input", str(inst_path), "--tree", str(tree_path)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and 'field "parent" lists the root 0 as a key' in err

    @pytest.mark.parametrize(
        "text, needle", [case[1:] for case in MALFORMED_TREES],
        ids=[case[0] for case in MALFORMED_TREES],
    )
    def test_malformed_tree_exits_one(self, inst_path, tmp_path, text, needle, capsys):
        tree_path = tmp_path / "tree.json"
        tree_path.write_text(text)
        assert run(["schedule", "--input", inst_path, "--tree", str(tree_path)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and needle in err

    @pytest.mark.parametrize(
        "text, needle", [case[1:] for case in MALFORMED_SCHEDULES],
        ids=[case[0] for case in MALFORMED_SCHEDULES],
    )
    def test_malformed_schedule_exits_one(self, inst_path, tmp_path, text, needle, capsys):
        sched_path = tmp_path / "sched.json"
        sched_path.write_text(text)
        assert run(["validate", "--input", inst_path, "--schedule", str(sched_path)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and needle in err


class TestOracle:
    def test_poise(self, inst_path, capsys):
        assert run(["oracle", "--input", inst_path, "--which", "poise"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"poise": 4, "B": 2, "D": 2}

    def test_rounds(self, inst_path, capsys):
        assert run(["oracle", "--input", inst_path, "--which", "rounds"]) == 0
        assert json.loads(capsys.readouterr().out) == {"rounds": 3}


class TestBench:
    def test_unknown_suite_exits_one(self, tmp_path):
        assert run(["bench", "--suite", "nope", "--out", str(tmp_path / "x.csv")]) == 1

    def test_quick_suite_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(["bench", "--suite", "quick", "--seed", "5", "--out", str(a)]) == 0
        assert run(["bench", "--suite", "quick", "--seed", "5", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_with_timing_appends_a_time_column(self, tmp_path):
        # the timed CSV is the untimed one plus a last time_ms column
        plain, timed = tmp_path / "plain.csv", tmp_path / "timed.csv"
        assert run(["bench", "--suite", "quick", "--seed", "5", "--out", str(plain)]) == 0
        assert run(["bench", "--suite", "quick", "--seed", "5", "--with-timing",
                    "--out", str(timed)]) == 0
        header, *rows = csv.reader(io.StringIO(timed.read_text()))
        assert header[-1] == "time_ms" and rows
        assert all(float(row[-1]) >= 0 for row in rows)
        untimed = io.StringIO()
        csv.writer(untimed, lineterminator="\n").writerows(row[:-1] for row in [header, *rows])
        assert untimed.getvalue() == plain.read_text()


def test_round_trip_through_files(tmp_path):
    inst = two_branch_instance()
    p = tmp_path / "i.json"
    jsonio.save_instance(inst, p)
    again = jsonio.load_instance(p)
    assert jsonio.instance_to_json(again) == jsonio.instance_to_json(inst)


class TestOriginalCoordinates:
    def test_unnormalized_input_maps_back(self, tmp_path, capsys):
        # root is vertex 2 and terminals are interior vertices, so the CLI
        # must normalize, solve, and write the tree back in user ids
        from poisekit import Graph, MulticastInstance
        from poisekit.graph import is_normalized

        g = Graph(4, [(2, 0), (2, 3), (0, 1)], directed=True)
        inst = MulticastInstance(g, 2, {0, 3}, 2)  # terminal 0 is interior
        assert not is_normalized(inst)
        path = tmp_path / "raw.json"
        jsonio.save_instance(inst, path)
        out = tmp_path / "tree.json"
        assert run(["solve", "--input", str(path), "--sweep", "--out", str(out)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["metrics"]["original"]["terminals_covered"] == 2
        tree = jsonio.load_tree(out)
        assert tree.root == 2
        for v, p in tree.parent.items():
            assert g.has_arc(p, v)
        assert {0, 3} <= tree.vertices()

    @given(
        seed=st.integers(0, 2**32 - 1),
        case=st.sampled_from([(True, "auto"), (False, "auto"), (False, "directed")]),
    )
    @settings(max_examples=60, deadline=None)
    def test_random_unnormalized_input_round_trips(self, seed, case):
        # a root other than 0 and terminals that are not leaves: the written
        # tree is a tree of the caller's instance, the reported original
        # metrics are its metrics, and it schedules into a valid multicast
        from poisekit import Graph, MulticastInstance, tree_metrics
        from poisekit.graph import is_normalized

        directed, mode = case
        rng = random.Random(seed)
        n = rng.randint(3, 8)
        root = rng.randint(1, n - 1)
        order = [root] + rng.sample([v for v in range(n) if v != root], n - 1)
        arcs = [(rng.choice(order[:i]), v) for i, v in enumerate(order) if i]  # root reaches all
        arcs += [tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(0, 2 * n))]
        g = Graph(n, arcs, directed)
        terminals = rng.sample(order[1:], rng.randint(1, min(4, n - 1)))
        inst = MulticastInstance(g, root, terminals, rng.randint(1, len(terminals)))
        assume(not is_normalized(inst))
        with tempfile.TemporaryDirectory() as tmp:
            path, tree_path, sched_path = (os.path.join(tmp, f) for f in ("i", "t", "s"))
            jsonio.save_instance(inst, path)
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                assert run(["solve", "--input", path, "--sweep", "--mode", mode,
                            "--out", tree_path]) == 0
                tree = jsonio.load_tree(tree_path)
                assert tree.root == root
                metrics = tree_metrics(tree, inst)  # raises on a non-arc or a cycle
                assert metrics.terminals_covered >= inst.k
                assert json.loads(stdout.getvalue())["metrics"]["original"] == asdict(metrics)
                assert run(["schedule", "--input", path, "--tree", tree_path,
                            "--out", sched_path]) == 0
                assert run(["validate", "--input", path, "--schedule", sched_path]) == 0

    def test_undirected_trace_is_json_lines(self, tmp_path):
        from poisekit import Graph, MulticastInstance
        from conftest import middles_instance

        inst = middles_instance(4)
        path = tmp_path / "u.json"
        jsonio.save_instance(inst, path)
        trace = tmp_path / "trace.jsonl"
        assert run(["solve", "--input", str(path), "--B", "4", "--D", "2",
                    "--trace", str(trace)]) == 0
        lines = [json.loads(line) for line in trace.read_text().splitlines()]
        assert lines
        for rec in lines:
            assert set(rec) == {"iter", "branch", "supers", "covered", "discarded",
                                "max_degree_delta_R", "max_degree_delta_C"}


@pytest.mark.parametrize("site", [
    ["gen", "--model", "star-of-stars", "--param", "branch=2", "--param", "leaf=2",
     "--k", "3", "--out"],
    ["solve", "--input", "{inst}", "--B", "2", "--D", "2", "--out"],
    ["solve", "--input", "{inst}", "--B", "2", "--D", "2", "--trace"],
    ["solve", "--input", "{inst}", "--sweep", "--out"],
    ["solve", "--input", "{inst}", "--sweep", "--trace"],
    ["schedule", "--input", "{inst}", "--tree", "{tree}", "--out"],
    ["validate", "--input", "{inst}", "--schedule", "{sched}", "--out"],
    ["bench", "--suite", "quick", "--out"],
], ids=[
    "gen-out", "solve-out", "solve-trace", "sweep-out", "sweep-trace",
    "schedule-out", "validate-out", "bench-out",
])
def test_unwritable_output_exits_one_with_one_line(site, inst_path, tmp_path, capsys):
    tree, sched = tmp_path / "tree.json", tmp_path / "sched.json"
    assert run(["solve", "--input", inst_path, "--B", "2", "--D", "2", "--out", str(tree)]) == 0
    assert run(["schedule", "--input", inst_path, "--tree", str(tree), "--out", str(sched)]) == 0
    capsys.readouterr()
    bad = str(tmp_path / "no-such-dir" / "out")
    argv = [a.format(inst=inst_path, tree=tree, sched=sched) for a in site] + [bad]
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {bad!r}: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["solve", "schedule", "validate"])
def test_closed_stdout_exits_141_without_a_traceback_and_keeps_the_files(
    command, inst_path, tmp_path
):
    # `poisekit solve --sweep --out t.json --trace tr.txt | true`: each
    # command writes its files before it prints into the closed pipe
    tree, trace = tmp_path / "tree.json", tmp_path / "trace.json"
    sched, report = tmp_path / "sched.json", tmp_path / "report.json"
    argv = {
        "solve": ["solve", "--input", inst_path, "--sweep", "--out", str(tree),
                  "--trace", str(trace)],
        "schedule": ["schedule", "--input", inst_path, "--tree", str(tree), "--out", str(sched)],
        "validate": ["validate", "--input", inst_path, "--schedule", str(sched),
                     "--out", str(report)],
    }
    written = {"solve": [tree, trace], "schedule": [sched], "validate": [report]}
    for name in argv:
        assert run(argv[name]) == 0
    expected = {path: path.read_text() for path in written[command]}
    for path in expected:
        path.unlink()
    env = dict(os.environ, PYTHONPATH=str(Path(poisekit.__file__).parent.parent))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "poisekit.cli", *argv[command]],
            env=env, stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=60,
        )
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (141, "")
    assert {path: path.read_text() for path in expected} == expected
