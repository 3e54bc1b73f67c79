#!/usr/bin/env python3
"""Measure one trajectory point and append it to perfbench/trajectory.json.

    python3 perfbench/trajectory.py --label "what was measured"

Runs every workload RUNS times timed (seeds 1..RUNS, each in its own process,
one after another, for BENCHMARK.json's ``run_seconds``) and once traced
(seed 1).  For each end-to-end metric it records the median, the quartiles
and the spread, (q3 - q1) / median, as ``statistics.quantiles(values, n=4)``
gives them; for each per-layer metric, the traced run's value.  Exits 1,
appending nothing, if any run fails a check.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
TRAJECTORY = HERE / "trajectory.json"
RUNS = 10

sys.path.insert(0, str(HERE))

from run import run_child  # noqa: E402


def run_once(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    proc, result = run_child(workload, seed, seconds, trace)
    if proc.returncode != 0 or result is None:
        sys.stderr.write(proc.stdout + proc.stderr)
        sys.exit(f"error: {workload} seed {seed} trace {int(trace)} exited {proc.returncode}")
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    args = parser.parse_args()
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    point: dict = {
        "label": args.label,
        "machine": f"{platform.machine()}, CPython {platform.python_version()}",
        "runs": RUNS,
        "seconds": seconds,
        "workloads": {},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        values: dict[str, list[float]] = {}
        for seed in range(1, RUNS + 1):
            result = run_once(workload, seed, seconds, False)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        end_to_end = {}
        for name, vals in values.items():
            q1, median, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / median
            end_to_end[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread, "values": vals}
            print(f"{workload:20s} {name:20s} median {median:14.6f} spread {spread:.4f}", flush=True)
        traced = run_once(workload, 1, seconds, True)
        point["workloads"][workload] = {
            "end_to_end": end_to_end,
            "per_layer": {name: m["value"] for name, m in traced["metrics"].items()},
        }
    trajectory = json.loads(TRAJECTORY.read_text()) if TRAJECTORY.exists() else []
    trajectory.append(point)
    TRAJECTORY.write_text(json.dumps(trajectory, indent=1) + "\n")
    print(f"appended point {len(trajectory)} to {TRAJECTORY.relative_to(HERE.parent)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
