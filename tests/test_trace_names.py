"""The benchmark's tracer looks up every function its ``TRACED`` table names
with ``getattr`` on the function's home module, so a poisekit rename that
the table still lists would crash every traced benchmark run.  This reads
the table from perfbench/tracing.py, without importing or running it, and
checks each name here first."""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def traced_table() -> dict[str, tuple[str, ...]]:
    """The literal value of ``TRACED`` in perfbench/tracing.py."""
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.AnnAssign) and getattr(node.target, "id", None) == "TRACED":
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TRACED table in {TRACING}")


def test_every_traced_name_resolves_in_its_home_module():
    table = traced_table()
    assert "graph" in table and "directed" in table
    missing = [
        f"poisekit.{layer}.{name}"
        for layer, names in table.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"poisekit.{layer}"), name, None))
    ]
    assert not missing, f"names the benchmark's tracer cannot find: {missing}"
