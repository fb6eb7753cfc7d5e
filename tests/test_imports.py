"""Every module of funcon uses each name it imports.

No linter ships with the test environment, so this walks each module's
syntax tree: a name bound by an import must be read somewhere in the module
or exported through ``__all__``.  ``from __future__`` imports are exempt."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "funcon")
                 .glob("*.py"))


def _unused_imports(tree):
    imported = {}
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            exported |= set(ast.literal_eval(node.value))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used and name not in exported)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    unused = _unused_imports(ast.parse(path.read_text(), str(path)))
    assert not unused, f"{path.name}: unused imports " + ", ".join(
        f"{name!r} (line {line})" for line, name in unused)


def test_unused_import_detected():
    tree = ast.parse("from __future__ import annotations\n"
                     "import os.path\nimport numpy as np\n"
                     "from a import b, c\n__all__ = ['c']\nnp.zeros(1)\n")
    assert _unused_imports(tree) == [(2, "os"), (4, "b")]
