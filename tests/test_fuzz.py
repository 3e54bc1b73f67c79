"""Fuzzing the input boundary: arbitrary JSON values and mutated valid files
go through the instance, tree and schedule loaders and through the CLI's
``solve`` and ``validate`` commands, run in-process.

A loader either returns or raises ValueError with a one-line message.  The
CLI exits 0-3, writes at most one line to standard error, and never lets an
exception out.
"""

from __future__ import annotations

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from poisekit import jsonio
from poisekit.cli import main

from conftest import two_branch_instance

VALID = {
    "instance": jsonio.instance_to_json(two_branch_instance()),
    "tree": '{"root": 0, "parent": {"1": 0, "2": 0, "3": 1, "4": 2}}',
    "schedule": '{"rounds": [[[0, 1]], [[0, 2], [1, 3]], [[2, 4]]]}',
}
LOADERS = {
    "instance": jsonio.instance_from_json,
    "tree": jsonio.tree_from_json,
    "schedule": jsonio.schedule_from_json,
}
FIELDS = ["directed", "n", "edges", "root", "terminals", "k", "parent", "rounds", "0", "1"]

# Small integers keep every graph a fuzzed file can describe small; the
# large ones probe the bounds.
json_scalars = (
    st.none()
    | st.booleans()
    | st.integers(-3, 12)
    | st.sampled_from([10**6 + 1, 2**64, -(2**63)])
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=4)
)
json_values = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(FIELDS) | st.text(max_size=3), inner, max_size=6),
    max_leaves=20,
)


@st.composite
def mutated_files(draw, kind: str) -> str:
    """A valid file of ``kind`` with one field replaced or dropped, or its
    text cut, spliced or nested."""
    data = json.loads(VALID[kind])
    how = draw(st.sampled_from(["replace", "drop", "splice", "cut", "nest"]))
    if how == "replace":
        data[draw(st.sampled_from(sorted(data)))] = draw(json_values)
        return json.dumps(data)
    if how == "drop":
        del data[draw(st.sampled_from(sorted(data)))]
        return json.dumps(data)
    text = VALID[kind]
    at = draw(st.integers(0, len(text)))
    if how == "splice":
        return text[:at] + draw(st.text(alphabet='{}[],:"0123456789-.etruflasn ', max_size=2)) + text[at:]
    if how == "cut":
        return text[:at] + text[min(len(text), at + draw(st.integers(1, 8))):]
    depth = draw(st.integers(1, 5000))
    return text[:at] + "[" * depth + text[at:]


def files(kind: str):
    return mutated_files(kind) | json_values.map(json.dumps)


@pytest.mark.parametrize("kind", sorted(LOADERS))
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_loader_returns_or_raises_one_line(kind, data):
    text = data.draw(files(kind))
    try:
        LOADERS[kind](text)
    except ValueError as exc:
        assert "\n" not in str(exc)


@pytest.mark.parametrize("kind", sorted(LOADERS))
def test_deep_nesting_is_one_line_error(kind):
    # json.loads recurses once per level: around the recursion limit either
    # the parse or the message quoting the value would run out of stack
    for depth in [*range(900, 1001), 10**5]:
        nested = "[" * depth + "]" * depth
        for text in (nested, f'{{"n": {nested}, "parent": {nested}, "rounds": {nested}}}'):
            with pytest.raises(ValueError) as info:
                LOADERS[kind](text)
            assert "\n" not in str(info.value)


def run_cli(argv: list[str]) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def check_exit(code: int, err: str) -> None:
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err
    assert len(err.splitlines()) <= (1 if code else 0)


@given(instance=files("instance"))
@example(instance="[" * 10**5)
@settings(max_examples=30, deadline=None)
def test_cli_solve_exits_cleanly(instance):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "inst.json"
        path.write_text(instance)
        for extra in (["--sweep"], ["--B", "2", "--D", "2"]):
            check_exit(*run_cli(["solve", "--input", str(path), *extra]))


@given(instance=files("instance"), schedule=files("schedule"))
@example(instance=VALID["instance"], schedule="[" * 10**5)
@settings(max_examples=30, deadline=None)
def test_cli_validate_exits_cleanly(instance, schedule):
    with tempfile.TemporaryDirectory() as tmp:
        inst_path, sched_path = Path(tmp) / "inst.json", Path(tmp) / "sched.json"
        inst_path.write_text(instance)
        sched_path.write_text(schedule)
        check_exit(*run_cli(["validate", "--input", str(inst_path), "--schedule", str(sched_path)]))
