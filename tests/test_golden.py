"""Golden corpus: sweep reports, solver traces and bench CSVs must match the
snapshots in tests/golden/ byte for byte.

The corpus covers all four generator models, directed and undirected, and
every solver branch: directed many-trees and few-trees with a partition-matroid
cover, undirected small, large and pmcover iterations, and cells that are
infeasible by pruning and by a cover that runs out of iterations.

Regenerate the snapshots only for an intended change of behaviour, and record
it in CHANGES.md:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest

from poisekit import generate_instance, jsonio, run_sweep
from poisekit.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

# name -> (generator model, parameters)
SWEEPS: dict[str, tuple[str, dict]] = {
    "dir-random-many": ("random-digraph", {"n": 60, "m": 300, "t": 12, "k": 9, "seed": 1}),
    "dir-random-few": ("random-digraph", {"n": 120, "m": 480, "t": 16, "k": 12, "seed": 4}),
    "dir-random-large": ("random-digraph", {"n": 400, "m": 1200, "t": 24, "k": 16, "seed": 7}),
    "dir-layered": ("layered-dag", {"width": 12, "depth": 2, "t": 12, "k": 10, "seed": 3}),
    "dir-grid": ("grid", {"w": 4, "h": 4, "t": 4, "k": 3, "seed": 7, "directed": True}),
    "dir-stars": ("star-of-stars", {"branch": 4, "leaf": 3, "k": 8, "seed": 8}),
    "dir-stars-cap": ("star-of-stars", {"branch": 6, "leaf": 1, "k": 6}),
    "und-random": ("random-digraph", {"n": 60, "m": 90, "t": 20, "k": 12, "seed": 12,
                                      "directed": False, "connected": True}),
    "und-random-large": ("random-digraph", {"n": 200, "m": 400, "t": 24, "k": 12, "seed": 7,
                                            "directed": False, "connected": True}),
    "und-layered": ("layered-dag", {"width": 6, "depth": 3, "t": 6, "k": 5, "seed": 5,
                                    "directed": False}),
    "und-grid": ("grid", {"w": 5, "h": 5, "t": 6, "k": 4, "seed": 6}),
    "und-stars-pmcover": ("star-of-stars", {"branch": 6, "leaf": 4, "k": 16, "seed": 9,
                                            "directed": False}),
    "und-stars-small": ("star-of-stars", {"branch": 8, "leaf": 2, "k": 12, "seed": 9,
                                          "directed": False}),
    "und-stars-cap": ("star-of-stars", {"branch": 6, "leaf": 1, "k": 6, "directed": False}),
}

# (sweep corpus name, B, D) for `poisekit solve --B --D --trace`; B = D = None
# runs `solve --sweep --trace`, whose trace is taken at the best cell.
TRACES: list[tuple[str, int | None, int | None]] = [
    ("dir-random-many", 1, 3),
    ("dir-random-many", 2, 2),
    ("dir-random-few", 2, 4),
    ("dir-layered", 1, 3),
    ("dir-stars-cap", 1, 3),
    ("dir-stars-cap", 2, 3),
    ("dir-grid", None, None),
    ("und-random", 1, 5),
    ("und-random", 3, 4),
    ("und-stars-pmcover", 2, 3),
    ("und-stars-pmcover", 1, 3),
    ("und-stars-small", 2, 3),
    ("und-stars-cap", 1, 3),
    ("und-stars-pmcover", None, None),
]

BENCH_SEEDS = (1, 7)


def _instance(name: str):
    model, params = SWEEPS[name]
    return generate_instance(model, params)


def _report_text(report, tree) -> str:
    result = report.to_dict()
    result["records"] = [
        {k: v for k, v in rec.items() if k != "wall_ms"} for rec in result["records"]
    ]
    if result["best"] is not None:
        result["best"].pop("wall_ms")
    tree_text = jsonio.tree_to_json(tree) if tree is not None else "null"
    return json.dumps(result) + "\n" + tree_text + "\n"


def sweep_snapshot(name: str) -> str:
    return _report_text(*run_sweep(_instance(name)))


def _cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def trace_snapshot(name: str, B: int | None, D: int | None, tmp: Path) -> str:
    inst, trace, tree = tmp / "inst.json", tmp / "trace.txt", tmp / "tree.json"
    for path in (trace, tree):
        path.unlink(missing_ok=True)
    jsonio.save_instance(_instance(name), inst)
    argv = ["solve", "--input", str(inst), "--trace", str(trace), "--out", str(tree)]
    argv += ["--sweep"] if B is None else ["--B", str(B), "--D", str(D)]
    code, stdout = _cli(argv)
    if B is None:
        stdout = "(sweep report not kept: it holds wall times)\n"
    parts = [f"exit {code}\n", stdout]
    for label, path in (("trace", trace), ("tree", tree)):
        parts.append(f"--- {label}\n")
        parts.append(path.read_text() if path.exists() else "(not written)\n")
    return "".join(parts)


def bench_snapshot(seed: int, tmp: Path) -> str:
    out = tmp / "bench.csv"
    code, _ = _cli(["bench", "--suite", "quick", "--seed", str(seed), "--out", str(out)])
    assert code == 0
    return out.read_text()


def _trace_file(name: str, B: int | None, D: int | None) -> Path:
    cell = "sweep" if B is None else f"B{B}-D{D}"
    return GOLDEN / f"trace-{name}-{cell}.txt"


@pytest.mark.parametrize("name", sorted(SWEEPS))
def test_sweep_matches_golden(name):
    assert sweep_snapshot(name) == (GOLDEN / f"sweep-{name}.txt").read_text()


@pytest.mark.parametrize("name,B,D", TRACES)
def test_solve_trace_matches_golden(name, B, D, tmp_path):
    assert trace_snapshot(name, B, D, tmp_path) == _trace_file(name, B, D).read_text()


@pytest.mark.parametrize("seed", BENCH_SEEDS)
def test_quick_bench_matches_golden(seed, tmp_path):
    assert bench_snapshot(seed, tmp_path) == (GOLDEN / f"bench-quick-seed{seed}.csv").read_text()


def write_snapshots() -> None:
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp_dir:
        tmp = Path(tmp_dir)
        for name in SWEEPS:
            (GOLDEN / f"sweep-{name}.txt").write_text(sweep_snapshot(name))
        for name, B, D in TRACES:
            _trace_file(name, B, D).write_text(trace_snapshot(name, B, D, tmp))
        for seed in BENCH_SEEDS:
            (GOLDEN / f"bench-quick-seed{seed}.csv").write_text(bench_snapshot(seed, tmp))


if __name__ == "__main__":
    write_snapshots()
