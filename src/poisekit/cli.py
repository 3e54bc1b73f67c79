"""Command-line surface: gen, solve, schedule, validate, oracle, bench."""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

from . import jsonio
from .driver import BENCH_COLUMNS, bench_rows, run_sweep, stage_budget
from .errors import GenerationError, InfeasibleGuessError, InfeasibleInstanceError
from .generators import MODELS, generate_instance
from .graph import (
    MulticastInstance,
    PoiseGuess,
    PoiseTree,
    invert_relabel,
    is_normalized,
    normalize_terminals,
    root_first_relabel,
    strip_attached_leaves,
    tree_metrics,
)
from .oracle import exact_min_poise_ktree, exact_multicast_rounds
from .scheduling import round_lower_bounds, tree_broadcast_schedule, validate_schedule

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2
EXIT_INVALID = 3


def _fail(message: str, code: int = EXIT_USAGE) -> SystemExit:
    print(message, file=sys.stderr)
    return SystemExit(code)


def _load_instance(path: str) -> MulticastInstance:
    try:
        return jsonio.load_instance(path)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise _fail(f"error: cannot read instance {path!r}: {exc}")


def _with_k(instance: MulticastInstance, k: int | None) -> MulticastInstance:
    """The instance with target count k (when given), which must lie in
    1..|terminals|."""
    if k is None:
        return instance
    try:
        return MulticastInstance(instance.graph, instance.root, instance.terminals, k)
    except ValueError as exc:
        raise _fail(f"error: {exc}")


def _coerce(value: str):
    if value in ("true", "True"):
        return True
    if value in ("false", "False"):
        return False
    try:
        return int(value)
    except ValueError:
        return value


class Prepared:
    """An instance lifted to normalized shape plus the map back to the
    caller's coordinates.  Already-normal instances pass through untouched."""

    def __init__(self, original: MulticastInstance):
        self.original = original
        if is_normalized(original):
            self.instance = original
            self.relabel = None
        else:
            self.instance = normalize_terminals(original)
            self.relabel = root_first_relabel(original.root, original.graph.n)

    def tree_in_original(self, tree: PoiseTree) -> PoiseTree:
        if self.relabel is None:
            return tree
        stripped = strip_attached_leaves(tree, self.original.graph.n)
        inv = invert_relabel(self.relabel)
        return PoiseTree(
            inv[stripped.root], {inv[v]: inv[p] for v, p in stripped.parent.items()}
        )

    def metrics_pair(self, tree: PoiseTree) -> dict:
        def as_dict(m):
            return {
                "max_out_degree": m.max_out_degree,
                "height": m.height,
                "poise": m.poise,
                "terminals_covered": m.terminals_covered,
            }

        return {
            "normalized": as_dict(tree_metrics(tree, self.instance)),
            "original": as_dict(tree_metrics(self.tree_in_original(tree), self.original)),
        }


def cmd_gen(args: argparse.Namespace) -> int:
    params: dict = {"seed": args.seed}
    for item in args.param:
        if "=" not in item:
            raise _fail(f"error: --param expects key=value, got {item!r}")
        key, value = item.split("=", 1)
        params[key] = _coerce(value)
    if args.k is not None:
        params["k"] = args.k
    if args.t is not None:
        params["t"] = args.t
    try:
        instance = generate_instance(args.model, params)
    except (GenerationError, ValueError) as exc:
        raise _fail(f"error: {exc}")
    text = jsonio.instance_to_json(instance)
    if args.out:
        Path(args.out).write_text(text + "\n")
    else:
        print(text)
    return EXIT_OK


def cmd_solve(args: argparse.Namespace) -> int:
    original = _with_k(_load_instance(args.input), args.k)
    if args.mode == "undirected" and original.graph.directed:
        raise _fail("error: --mode undirected needs an undirected graph")
    prep = Prepared(original)
    if args.sweep:
        report, tree = run_sweep(prep.instance, mode=args.mode)
        result = report.to_dict()
        if tree is None:
            print(json.dumps(result))
            return EXIT_INFEASIBLE
        result["metrics"] = prep.metrics_pair(tree)
        print(json.dumps(result))
        if args.out:
            jsonio.save_tree(prep.tree_in_original(tree), args.out)
        if args.trace:
            best = stage_budget(prep.instance, report.best["D"], args.mode)
            _write_trace(best.solve(report.best["B"]).trace, args.trace)
        return EXIT_OK
    if args.B is None or args.D is None:
        raise _fail("error: provide --B and --D, or use --sweep")
    try:
        guess = PoiseGuess(args.B, args.D)
    except ValueError as exc:
        raise _fail(f"error: {exc}")
    try:
        solved = stage_budget(prep.instance, guess.D, args.mode).solve(guess.B)
    except InfeasibleGuessError as exc:
        print(json.dumps({"feasible": False, "B": args.B, "D": args.D, "reason": str(exc)}))
        return EXIT_INFEASIBLE
    print(json.dumps({
        "feasible": True, "B": args.B, "D": args.D, "metrics": prep.metrics_pair(solved.tree),
    }))
    if args.out:
        jsonio.save_tree(prep.tree_in_original(solved.tree), args.out)
    if args.trace:
        _write_trace(solved.trace, args.trace)
    return EXIT_OK


def _write_trace(trace: dict, path: str) -> None:
    # undirected traces are JSON lines of iteration records; directed traces
    # are a single JSON object
    if trace.get("solver") == "undirected":
        lines = [json.dumps(rec) for rec in trace.get("iterations", [])]
        Path(path).write_text("\n".join(lines) + ("\n" if lines else ""))
    else:
        Path(path).write_text(json.dumps(trace) + "\n")


def cmd_schedule(args: argparse.Namespace) -> int:
    instance = _load_instance(args.input)
    try:
        tree = jsonio.load_tree(args.tree)
    except (OSError, ValueError) as exc:
        raise _fail(f"error: cannot read tree {args.tree!r}: {exc}")
    try:
        tree_metrics(tree, instance)
    except (ValueError, KeyError) as exc:
        raise _fail(f"error: tree inconsistent with instance: {exc}")
    schedule = tree_broadcast_schedule(tree)
    if args.out:
        jsonio.save_schedule(schedule, args.out)
    doubling, poise_half = round_lower_bounds(instance, tree)
    print(json.dumps({
        "rounds": len(schedule.rounds),
        "doubling_lower_bound": doubling,
        "poise_half_lower_bound": poise_half,
    }))
    return EXIT_OK


def cmd_validate(args: argparse.Namespace) -> int:
    instance = _with_k(_load_instance(args.input), args.k)
    try:
        schedule = jsonio.load_schedule(args.schedule)
    except (OSError, ValueError) as exc:
        raise _fail(f"error: cannot read schedule {args.schedule!r}: {exc}")
    report = validate_schedule(instance, schedule, instance.k)
    text = json.dumps(report.to_dict())
    if args.out:
        Path(args.out).write_text(text + "\n")
    print(text)
    return EXIT_OK if report.valid else EXIT_INVALID


def cmd_oracle(args: argparse.Namespace) -> int:
    instance = _load_instance(args.input)
    try:
        if args.which == "poise":
            res = exact_min_poise_ktree(instance)
            print(json.dumps({"poise": res.poise_star, "B": res.B_star, "D": res.D_star}))
        else:
            print(json.dumps({"rounds": exact_multicast_rounds(instance)}))
    except InfeasibleInstanceError as exc:
        print(json.dumps({"infeasible": True, "reason": str(exc)}))
        return EXIT_INFEASIBLE
    except ValueError as exc:
        raise _fail(f"error: {exc}")
    return EXIT_OK


def cmd_bench(args: argparse.Namespace) -> int:
    try:
        rows = bench_rows(args.suite, args.seed, with_timing=args.with_timing)
    except (ValueError, GenerationError) as exc:
        raise _fail(f"error: {exc}")
    columns = BENCH_COLUMNS + (["time_ms"] if args.with_timing else [])
    out = Path(args.out)
    with out.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    print(f"wrote {len(rows)} rows to {out}")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on usage errors, 2 stays "infeasible"
        self.print_usage(sys.stderr)
        raise SystemExit(EXIT_USAGE)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="poisekit",
        description="Low-poise multicast k-trees and telephone-model schedules",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("gen", help="generate a seeded random instance")
    p.add_argument("--model", required=True, choices=MODELS)
    p.add_argument("--param", action="append", default=[], metavar="KEY=VALUE")
    p.add_argument("--t", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("solve", help="solve one guess or sweep all budgets")
    p.add_argument("--input", required=True)
    p.add_argument("--mode", choices=("auto", "directed", "undirected"), default="auto")
    p.add_argument("--B", type=int)
    p.add_argument("--D", type=int)
    p.add_argument("--sweep", action="store_true")
    p.add_argument("--k", type=int)
    p.add_argument("--trace")
    p.add_argument("--out")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("schedule", help="turn a tree into a telephone schedule")
    p.add_argument("--input", required=True)
    p.add_argument("--tree", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_schedule)

    p = sub.add_parser("validate", help="replay and check a schedule")
    p.add_argument("--input", required=True)
    p.add_argument("--schedule", required=True)
    p.add_argument("--k", type=int)
    p.add_argument("--out")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("oracle", help="exact desk-scale optimum")
    p.add_argument("--input", required=True)
    p.add_argument("--which", choices=("poise", "rounds"), default="poise")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("bench", help="run a benchmark suite to CSV")
    p.add_argument("--suite", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--with-timing", action="store_true")
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
