#!/usr/bin/env python3
"""poisekit benchmark: four seeded workloads, end-to-end and per-layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all  --seed N --seconds S --trace 0|1

One workload runs in one process on one thread.  ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` traces calls into each layer and prints the
per-layer metrics.  Every operation's output is checked; the last line of
standard output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``, and the exit code is 1 when any check failed.  ``all`` runs
each workload in its own child process, one after another, and prints a
summary table.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Any

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
THREADS_ENV = "POISEKIT_THREADS"
# Set-up is repeated at least this many times, and for at least this long.
SETUP_REPEATS = 5
SETUP_SECONDS = 1.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "sweep_s": "s",
    "instances_per_s": "1/s",
    "instance_ms_p50": "ms",
    "best_poise": "poise",
    "schedule_rounds": "rounds",
    "peak_rss_mb": "MB",
}
# Printed with the end-to-end metrics, but not part of the JSON result: on a
# sweep workload p90 is the slowest of a few instances, only certify has an
# exact optimum to compare with, and the last two show how times were scaled.
PRINTED_UNITS = {
    "instance_ms_p90": "ms",
    "poise_ratio_mean": "ratio",
    "sweep_wall_s": "s",
    "speed_factor": "ratio",
}
# On a shared machine the neighbours' load changes this process's speed by
# tens of percent, for seconds to minutes at a time.  A fixed pure-Python
# probe loop, independent of poisekit, is timed before operations and set-up
# builds (at most every PROBE_EVERY_S), and each operation's and build's time
# is scaled by the latest probe to the speed at which the probe takes
# REFERENCE_PROBE_S.
PROBE_LOOPS = 50_000
PROBE_EVERY_S = 0.1
REFERENCE_PROBE_S = 0.0025
# The traced run takes each instance this many times untraced and as many
# times traced, in alternating order, to measure the tracer's overhead.
OVERHEAD_PAIRS = 3
# Prefix of the output line that carries the printed-only metrics as JSON.
PRINTED_PREFIX = "printed-only "


class Speed:
    """The probe loop's times over one run."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._last = -math.inf

    def now(self) -> float:
        """Multiplier from wall time to reference-speed time, from the latest
        probe; probes first if that is older than PROBE_EVERY_S."""
        if perf_counter() - self._last >= PROBE_EVERY_S:
            total = 0
            start = perf_counter()
            for i in range(PROBE_LOOPS):
                total += i & 7
            self._last = perf_counter()
            self.samples.append(self._last - start)
        return REFERENCE_PROBE_S / self.samples[-1]

    def factor(self) -> float:
        """The run's typical multiplier, from its median probe."""
        return REFERENCE_PROBE_S / statistics.median(self.samples)


def import_program() -> None:
    """Import poisekit from this checkout's sources, never from elsewhere."""
    package = SRC / "poisekit"
    if not (package / "__init__.py").is_file():
        sys.exit(f"error: poisekit sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import poisekit

    if Path(poisekit.__file__).resolve().parent != package.resolve():
        sys.exit(f"error: imported poisekit from {poisekit.__file__}, not from {package}")


@dataclass
class Outcome:
    report: Any
    tree: Any
    schedule: Any
    valid: bool
    exact_poise: int | None
    exact_rounds: int | None
    sweep_s: float
    op_s: float


def run_op(instance, with_oracle: bool) -> Outcome:
    """One operation: a user's pipeline on one instance.  Calls go through
    module attributes so that the tracer's wrappers see them."""
    import poisekit.driver as driver
    import poisekit.oracle as oracle
    import poisekit.scheduling as scheduling

    start = perf_counter()
    report, tree = driver.run_sweep(instance)
    swept = perf_counter()
    schedule = None
    valid = False
    if tree is not None:
        schedule = scheduling.tree_broadcast_schedule(tree)
        valid = scheduling.validate_schedule(instance, schedule, instance.k).valid
    exact_poise = exact_rounds = None
    if with_oracle:
        exact_poise = oracle.exact_min_poise_ktree(instance).poise_star
        exact_rounds = oracle.exact_multicast_rounds(instance)
    end = perf_counter()
    return Outcome(report, tree, schedule, valid, exact_poise, exact_rounds, swept - start, end - start)


def records_digest(report) -> str:
    """Hash of the sweep records and best record, wall times removed."""

    def strip(rec):
        return {k: v for k, v in rec.items() if k != "wall_ms"}

    best = strip(report.best) if report.best is not None else None
    payload = json.dumps([[strip(r) for r in report.records], best], sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


def problems(instance, out: Outcome, with_oracle: bool) -> list[str]:
    """Everything wrong with one operation's output."""
    import poisekit.graph as graph
    import poisekit.scheduling as scheduling

    if out.tree is None:
        return ["no budget produced a tree"]
    try:
        m = graph.tree_metrics(out.tree, instance)
    except ValueError as exc:
        return [f"best tree rejected: {exc}"]
    found = []
    if m.terminals_covered < instance.k:
        found.append(f"best tree covers {m.terminals_covered} < k={instance.k} terminals")
    if m.poise != out.report.best["poise"]:
        found.append(f"best tree has poise {m.poise}, report says {out.report.best['poise']}")
    if not out.valid:
        found.append("schedule fails validation")
    rounds = len(out.schedule.rounds)
    if rounds != scheduling.broadcast_rounds(out.tree)[out.tree.root]:
        found.append(f"schedule has {rounds} rounds, broadcast_rounds disagrees")
    if with_oracle:
        if m.poise < out.exact_poise:
            found.append(f"solver poise {m.poise} below the exact optimum {out.exact_poise}")
        if rounds < out.exact_rounds:
            found.append(f"schedule rounds {rounds} below the exact minimum {out.exact_rounds}")
        if out.exact_rounds < math.ceil(math.log2(instance.k + 1)):
            found.append(f"exact rounds {out.exact_rounds} below ceil(log2(k+1))")
    return found


class Checker:
    """Checks every operation and counts attempts and failures.  The first
    output of each instance is its reference: later runs of the instance,
    traced or not, must reproduce its sweep records exactly."""

    def __init__(self, with_oracle: bool) -> None:
        self.with_oracle = with_oracle
        self.attempted = 0
        self.failed = 0
        self.reference: dict[int, str] = {}

    def __call__(self, index: int, instance, out: Outcome) -> bool:
        self.attempted += 1
        found = problems(instance, out, self.with_oracle)
        digest = records_digest(out.report)
        if self.reference.setdefault(index, digest) != digest:
            found.append("sweep records differ from the first run of this instance")
        if found:
            self.failed += 1
            print(f"check failed: instance {index}: {'; '.join(found)}", file=sys.stderr)
        return not found

    def digest(self) -> str:
        joined = "\n".join(self.reference[i] for i in sorted(self.reference))
        return hashlib.sha256(joined.encode()).hexdigest()


def timed_run(workload, corpus, seconds: float, check: Checker, speed: Speed) -> tuple[dict, list[str]]:
    """Take every instance once, then keep repeating the corpus until
    ``seconds`` have passed.  Each operation's time is scaled by the speed
    just before it; timings are per-instance medians, so instances weigh the
    same however many repeats fit."""
    check(0, corpus[0], run_op(corpus[0], workload.oracle))  # warm-up
    sweeps: list[list[float]] = [[] for _ in corpus]
    walls: list[list[float]] = [[] for _ in corpus]
    ops: list[list[float]] = [[] for _ in corpus]
    poise_sum = rounds_sum = 0
    ratios = []
    deadline = perf_counter() + seconds
    repeat = 0
    while repeat == 0 or perf_counter() < deadline:
        for i, instance in enumerate(corpus):
            if repeat and perf_counter() >= deadline:
                break
            f = speed.now()
            out = run_op(instance, workload.oracle)
            sweeps[i].append(f * out.sweep_s)
            walls[i].append(out.sweep_s)
            ops[i].append(f * out.op_s)
            if check(i, instance, out) and repeat == 0:
                poise_sum += out.report.best["poise"]
                rounds_sum += len(out.schedule.rounds)
                if workload.oracle:
                    ratios.append(out.report.best["poise"] / out.exact_poise)
        repeat += 1
    op_med = [statistics.median(o) for o in ops]
    k = len(corpus)
    values = {
        "sweep_s": (statistics.fmean(statistics.median(s) for s in sweeps), k),
        "instances_per_s": (k / sum(op_med), k),
        "instance_ms_p50": (1000.0 * statistics.median(op_med), k),
        "instance_ms_p90": (1000.0 * statistics.quantiles(op_med, n=10)[-1], k),
        "best_poise": (poise_sum, k),
        "schedule_rounds": (rounds_sum, k),
        "sweep_wall_s": (statistics.fmean(statistics.median(s) for s in walls), k),
        "speed_factor": (speed.factor(), len(speed.samples)),
    }
    if ratios:
        values["poise_ratio_mean"] = (statistics.fmean(ratios), len(ratios))
    return values, [f"timed operations {sum(len(o) for o in ops)} over {k} instances"]


def traced_run(workload, corpus, check: Checker, tracer) -> tuple[dict, list[str]]:
    """Take each instance OVERHEAD_PAIRS times untraced and as many times
    traced, alternating which goes first, and derive the per-layer metrics
    from the spans of each instance's first traced operation.

    The tracing overhead is, per instance, the median of the paired
    differences traced minus untraced, averaged over the corpus."""
    from tracing import layer_metrics, self_times

    check(0, corpus[0], run_op(corpus[0], workload.oracle))  # warm-up
    overheads = []
    for i, instance in enumerate(corpus):
        diffs = []
        for pair in range(OVERHEAD_PAIRS):
            op_s = {}
            for traced in (False, True) if (i + pair) % 2 == 0 else (True, False):
                if not traced:
                    out = run_op(instance, workload.oracle)
                else:
                    kept = len(tracer.spans)
                    tracer.install()
                    try:
                        out = tracer.root(i, lambda: run_op(instance, workload.oracle))
                    finally:
                        tracer.uninstall()
                    if pair:
                        # Recorded like the first, then dropped: one traced
                        # operation per instance feeds the metrics.
                        del tracer.spans[kept:]
                op_s[traced] = out.op_s
                check(i, instance, out)
            diffs.append(op_s[True] - op_s[False])
        overheads.append(statistics.median(diffs))
    metrics = layer_metrics(tracer, len(corpus))
    metrics["trace.overhead_s"] = statistics.fmean(overheads)
    self_sum = sum(self_times(tracer.spans)) / len(corpus)
    if self_sum > metrics["trace.root_s"] * (1 + 1e-9):
        raise RuntimeError(f"self times sum to {self_sum} s, more than the root spans' {metrics['trace.root_s']} s")
    overhead = metrics["trace.overhead_s"]
    resolved = "" if overhead > 0 else ": unresolved, below the run-to-run noise"
    notes = [
        f"tracing overhead {overhead:.6f} s per instance, "
        f"{100.0 * overhead / metrics['trace.root_s']:.1f}% of a traced operation "
        f"(median of {OVERHEAD_PAIRS} paired repeats){resolved}",
    ]
    return {name: (value, len(corpus)) for name, value in metrics.items()}, notes


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ns_per_reached"):
        return "ns"
    if name.endswith(("_yield", "_ratio")):
        return "ratio"
    return "count"


def run_workload(name: str, seed: int, seconds: float, trace: bool, env_note: str) -> int:
    from workloads import WORKLOADS, build_corpus

    workload = WORKLOADS[name]
    check = Checker(workload.oracle)
    speed = Speed()
    setup = []
    while len(setup) < SETUP_REPEATS or sum(setup) < SETUP_SECONDS:
        f = speed.now()
        start = perf_counter()
        corpus = build_corpus(workload, seed)
        setup.append(f * (perf_counter() - start))
    gc.collect()
    if trace:
        from tracing import Tracer

        tracer = Tracer()
        values, notes = traced_run(workload, corpus, check, tracer)
        units = {metric: layer_unit(metric) for metric in values}
        reported = list(values)
        spans_path = HERE / "out" / f"{name}-seed{seed}.spans.tsv.gz"
        tracer.write(spans_path)
        notes.append(f"{len(tracer.spans)} spans written to {spans_path.relative_to(HERE.parent)}")
    else:
        values, notes = timed_run(workload, corpus, seconds, check, speed)
        values["setup_s"] = (statistics.median(setup), len(setup))
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        values["peak_rss_mb"] = (rss_mb, 1)
        units = {**END_TO_END_UNITS, **PRINTED_UNITS}
        reported = list(END_TO_END_UNITS)
        values = {m: values[m] for m in units if m in values}
    print(f"workload {name}  seed {seed}  trace {int(trace)}  instances {len(corpus)}")
    print(f"  {env_note}")
    for metric, (value, samples) in values.items():
        shown = "" if metric in reported else "  (printed only)"
        print(f"  {metric:36s} {value:>16.6f} {units[metric]:6s} n={samples}{shown}")
    ratio = check.failed / check.attempted
    print(f"  {'fail_ratio':36s} {ratio:>16.6f}        ({check.failed} failed of {check.attempted} attempted)")
    for note in notes:
        print(f"  {note}")
    print(f"  digest {name} {check.digest()}")
    printed = {m: {"value": values[m][0], "unit": units[m]} for m in values if m not in reported}
    print(PRINTED_PREFIX + json.dumps(printed))
    result = {
        "correct": check.failed == 0,
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": {m: {"value": values[m][0], "unit": units[m]} for m in reported},
    }
    print(json.dumps(result))
    return 0 if check.failed == 0 else 1


def run_child(workload: str, seed: int, seconds: float, trace: bool) -> tuple[subprocess.CompletedProcess, dict | None]:
    """Run one workload in a child process.  Returns the process and its JSON
    result, with the printed-only metrics added to ``metrics``; the result is
    None when the child printed none."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace)),
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        return proc, None
    try:
        result = json.loads(lines[-1])
        for line in lines:
            if line.startswith(PRINTED_PREFIX):
                result["metrics"].update(json.loads(line[len(PRINTED_PREFIX):]))
    except json.JSONDecodeError:
        return proc, None
    return proc, result


def run_all(seed: int, seconds: float, trace: bool, env_note: str) -> int:
    """Each workload in its own child process, so that peak memory belongs to
    one workload; then a table of every metric."""
    from workloads import WORKLOADS

    print(env_note)
    results: dict[str, dict | None] = {}
    status = 0
    for name in WORKLOADS:
        proc, results[name] = run_child(name, seed, seconds, trace)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or results[name] is None:
            status = 1
    names = list(results)
    print()
    print(f"{'metric':36s} {'unit':6s} " + " ".join(f"{n:>20s}" for n in names))
    units = {m: v["unit"] for r in results.values() if r for m, v in r["metrics"].items()}
    for metric, unit in units.items():
        cells = [
            f"{results[n]['metrics'][metric]['value']:>20.6f}"
            if results[n] and metric in results[n]["metrics"] else f"{'-':>20s}"
            for n in names
        ]
        print(f"{metric:36s} {unit:6s} " + " ".join(cells))
    cells = [
        f"{results[n]['failed']:>9d}/{results[n]['attempted']:<10d}" if results[n] else f"{'-':>20s}"
        for n in names
    ]
    print(f"{'failed/attempted':36s} {'':6s} " + " ".join(cells))
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # The sweep's thread count is not a benchmark setting: runs are single-threaded.
    removed = os.environ.pop(THREADS_ENV, None)
    env_note = (
        f"environment: removed {THREADS_ENV}={removed!r}" if removed is not None
        else f"environment: {THREADS_ENV} not set"
    )
    import_program()
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace), env_note)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from all, {', '.join(WORKLOADS)}")
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace), env_note)


if __name__ == "__main__":
    sys.exit(main())
