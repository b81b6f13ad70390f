"""Every import under `src/mtsc/` is used, exported, or marked with a reason.

No linter ships with the project, so this reads each module's syntax tree
with `ast`. An imported name must be read somewhere in its module, be
listed in the module's `__all__`, or sit on a line marked
`# noqa: F401` followed by the reason it stays (a re-export, say).
"""

import ast
import re
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "mtsc"
MODULES = sorted(SRC.rglob("*.py"))
MARKED = re.compile(r"#\s*noqa:\s*F401\s+\S")  # the marker, then a reason


def _exported(tree) -> set:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(text: str) -> list:
    """(line, name) of each import in `text` that nothing reads, exports
    or marks."""
    tree = ast.parse(text)
    lines = text.splitlines()
    kept = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    kept |= _exported(tree)
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if any(MARKED.search(line) for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name != "*" and name not in kept:
                unused.append((node.lineno, name))
    return unused


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_every_import_is_used_exported_or_marked(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_check_finds_an_import_left_behind():
    text = ("from __future__ import annotations\n"
            "from enum import Enum\n"
            "import os.path\n"
            "from typing import Optional  # noqa: F401\n"
            "from .vm import execute as run  # noqa: F401  re-exported\n"
            "from .vm import deploy\n"
            "__all__ = ['deploy']\n"
            "def f(x):\n"
            "    return os.path.join(x)\n")
    assert unused_imports(text) == [(2, "Enum"), (4, "Optional")]
