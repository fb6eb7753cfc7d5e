"""Every module of funcon uses each name it imports, and every private
module-level name is read somewhere in the package.

No linter ships with the test environment, so this walks each module's
syntax tree: a name bound by an import must be read somewhere in the module
or exported through ``__all__``.  ``from __future__`` imports are exempt.  A
module-level function, class or constant whose name starts with ``_`` (not
a dunder) must be read by some statement of the package other than its own
definition: as a name, as an attribute (``module._name``) or by a
``from module import _name``."""

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


def _private_definitions(tree):
    """(line, name, statement) of each module-level private function, class
    or assigned constant."""
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names = [stmt.name]
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) \
                else [stmt.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield stmt.lineno, name, stmt


def _reads(stmt):
    """Every name ``stmt`` reads: loaded names, attributes and names
    imported from another module."""
    out = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out |= {alias.name for alias in node.names}
    return out


def _unread_privates(trees):
    """(module, line, name) of each private module-level definition of the
    modules ``trees`` ({module: syntax tree}) that no other statement of
    any of them reads."""
    reads = [(stmt, _reads(stmt)) for tree in trees.values()
             for stmt in tree.body]
    return sorted(
        (module, line, name) for module, tree in trees.items()
        for line, name, own in _private_definitions(tree)
        if not any(name in names for stmt, names in reads if stmt is not own))


def test_no_unread_private_names():
    trees = {path.name: ast.parse(path.read_text(), str(path))
             for path in SOURCES}
    unread = _unread_privates(trees)
    assert not unread, "private names never read: " + ", ".join(
        f"{module}:{line} {name!r}" for module, line, name in unread)


def test_unread_private_detected():
    trees = {
        "a.py": ast.parse("_USED = 1\n_UNUSED: int = 2\n__version__ = 3\n"
                          "def _helper():\n    return _USED\n"
                          "def _recursive(n):\n    return _recursive(n - 1)\n"
                          "class _Base:\n    pass\n"),
        "b.py": ast.parse("import a\nfrom a import _helper\n"
                          "x = a._Base\n"),
    }
    assert _unread_privates(trees) == [("a.py", 2, "_UNUSED"),
                                       ("a.py", 6, "_recursive")]
