"""Source hygiene of the package's modules, read with ``ast`` and never
imported: a module imports no name it never reads, so a signature trimmed
down to fewer types leaves no stale import behind."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "poisekit"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unread_imports(source: str) -> list[str]:
    """The names ``source`` binds by an import and never loads, in order;
    ``from __future__`` imports bind nothing and are skipped."""
    tree = ast.parse(source)
    imported: list[str] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # `import a.b` binds `a`
                imported.append(alias.asname or alias.name.split(".")[0])
    read = {
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return [name for name in imported if name not in read]


def test_every_module_is_checked():
    assert {p.stem for p in MODULES} >= {"graph", "directed", "undirected", "driver", "cli"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_module_reads_every_name_it_imports(path):
    assert unread_imports(path.read_text()) == []


def test_an_unread_import_is_caught():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "from .graph import Graph, PoiseGuess as Guess, bfs_distances\n"
        "def f(g: Graph) -> int:\n"
        "    return len(bfs_distances(g, [0]))\n"
    )
    assert unread_imports(source) == ["os", "Guess"]
