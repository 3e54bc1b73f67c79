"""Self-tests of the benchmark harness at a tiny size.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import dataclasses
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run.import_program()

from tracing import ROOT, Tracer, layer_metrics, self_times  # noqa: E402
from workloads import WORKLOADS, build_corpus  # noqa: E402

# Each workload's models at a size that runs in well under a second.
TINY = {
    "sweep-dir-random": dataclasses.replace(
        WORKLOADS["sweep-dir-random"],
        rows=(("random-digraph", {"n": 24, "m": 120, "t": 8, "k": 4}),), size=3,
    ),
    "sweep-dir-layered": dataclasses.replace(
        WORKLOADS["sweep-dir-layered"],
        rows=(("layered-dag", {"width": 10, "depth": 2, "t": 10, "k": 8}),), size=2,
    ),
    "sweep-und-clusters": dataclasses.replace(
        WORKLOADS["sweep-und-clusters"],
        rows=(("star-of-stars", {"branch": 6, "leaf": 3, "k": 12, "directed": False}),),
        size=2,
    ),
    "certify": dataclasses.replace(WORKLOADS["certify"], size=24),
}

COUNTERS = (
    "graph.bfs_calls", "directed.pack_candidates", "driver.cells", "cover.pairs_built",
    "undirected.super_search_calls", "oracle.poise_calls",
)


def timed(workload, seed):
    check = run.Checker(workload.oracle)
    values, _ = run.timed_run(workload, build_corpus(workload, seed), 0.0, check, run.Speed())
    return {m: v for m, (v, _) in values.items()}, check


def traced(workload, seed):
    check = run.Checker(workload.oracle)
    tracer = Tracer()
    values, _ = run.traced_run(workload, build_corpus(workload, seed), check, tracer)
    return {m: v for m, (v, _) in values.items()}, check, tracer


@pytest.mark.parametrize("name", sorted(TINY))
def test_counters_repeat_exactly_for_one_seed(name):
    workload = TINY[name]
    first, _ = timed(workload, 7)
    second, _ = timed(workload, 7)
    for metric in ("best_poise", "schedule_rounds"):
        assert first[metric] == second[metric]
    layers_a, check_a, _ = traced(workload, 7)
    layers_b, check_b, _ = traced(workload, 7)
    assert check_a.failed == check_b.failed == 0
    for metric in COUNTERS:
        assert layers_a[metric] == layers_b[metric], metric


@pytest.mark.parametrize("name", sorted(TINY))
def test_digest_same_with_and_without_tracing(name):
    workload = TINY[name]
    _, plain = timed(workload, 3)
    _, with_trace, _ = traced(workload, 3)
    assert plain.failed == with_trace.failed == 0
    assert plain.digest() == with_trace.digest()


@pytest.mark.parametrize("name", sorted(TINY))
def test_self_times_fit_in_the_root_span(name):
    _, _, tracer = traced(TINY[name], 5)
    spans = tracer.spans
    own = self_times(spans)
    roots = [i for i, s in enumerate(spans) if tracer.names[s[0]] == ROOT]
    assert len(roots) == TINY[name].size
    root_time = sum(spans[i][2] - spans[i][1] for i in roots)
    assert all(t >= -1e-9 for t in own)
    assert sum(own) <= root_time * (1 + 1e-9)


def test_layers_a_workload_bypasses_stay_at_zero():
    layered, _, _ = traced(TINY["sweep-dir-layered"], 1)
    clusters, _, _ = traced(TINY["sweep-und-clusters"], 1)
    certify, _, _ = traced(TINY["certify"], 1)
    assert layered["cover.pm_cover_calls"] > 0
    assert layered["undirected.small_calls"] == 0
    assert clusters["undirected.super_search_calls"] > 0
    assert layered["oracle.poise_calls"] == clusters["oracle.poise_calls"] == 0
    assert certify["oracle.poise_calls"] == certify["oracle.rounds_calls"] == 1


def test_a_wrong_output_counts_as_failed():
    workload = TINY["certify"]
    instance = build_corpus(workload, 2)[0]
    out = run.run_op(instance, workload.oracle)
    check = run.Checker(workload.oracle)
    assert check(0, instance, out)
    out.schedule = dataclasses.replace(out.schedule, rounds=out.schedule.rounds[:-1])
    out.exact_poise = out.report.best["poise"] + 1
    assert not check(0, instance, out)
    assert (check.attempted, check.failed) == (2, 1)
    assert len(run.problems(instance, out, workload.oracle)) >= 2


def test_fails_without_the_program_sources(tmp_path):
    copy = tmp_path / "perfbench"
    shutil.copytree(BENCH, copy, ignore=shutil.ignore_patterns("tests", "out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(copy / "run.py"), "--workload", "certify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_cover_iterations_count_a_stalled_pm_cover():
    import poisekit.cover as cover
    from poisekit.errors import InfeasibleGuessError
    from poisekit.graph import Graph

    # The terminals 3 and 4 are unreachable, so the first iteration covers
    # nothing and pm_cover raises.
    graph = Graph(5, [(0, 1), (0, 2)], directed=True)
    tracer = Tracer()
    tracer.install()
    try:
        with pytest.raises(InfeasibleGuessError):
            tracer.root(0, lambda: cover.pm_cover(
                graph, 0, {0}, {1, 2, 3, 4}, [3, 4], {3: (3,), 4: (4,)}, target=2, B=1, D=2,
            ))
    finally:
        tracer.uninstall()
    metrics = layer_metrics(tracer, 1)
    assert metrics["cover.pm_cover_calls"] == 1
    assert metrics["cover.iterations"] == 1


def test_run_child_returns_the_printed_only_metrics_too():
    proc, result = run.run_child("certify", 1, 0.0, False)
    assert proc.returncode == 0, proc.stderr
    assert result["correct"] and result["failed"] == 0
    assert {"instances_per_s", "setup_s", "instance_ms_p90", "poise_ratio_mean"} <= set(result["metrics"])
    assert proc.stdout.strip().splitlines()[-1].startswith("{")
