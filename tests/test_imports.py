"""Every name a program module imports is used in that module, and every
module-level private name is referenced somewhere in the package.

No linter ships with the project, so these stand in for its unused-import
and dead-code checks. The import check leaves ``__init__.py`` out: it
imports names to re-export them.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "absmove"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def imported_and_used(tree):
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported, used


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    imported, used = imported_and_used(ast.parse(path.read_text(), filename=str(path)))
    unused = sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def test_catches_an_unused_import():
    imported, used = imported_and_used(ast.parse(
        "import numpy as np\nfrom .baselines import ea_step, kmeans_centroids\n"
        "def f(x: np.ndarray):\n    return ea_step(x)\n"
    ))
    assert set(imported) - used == {"kmeans_centroids"}


def private_definitions(tree):
    """Each module-level ``_name`` a module binds (functions, classes and
    assignments; dunders excluded), with the statement that binds it."""
    defined = {}
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            targets = [ast.Name(stmt.name)]
        elif isinstance(stmt, ast.Assign):
            targets = stmt.targets
        elif isinstance(stmt, ast.AnnAssign):
            targets = [stmt.target]
        else:
            continue
        for target in targets:
            if isinstance(target, ast.Name) and target.id.startswith("_") \
                    and not target.id.startswith("__"):
                defined[target.id] = stmt
    return defined


def references(stmt):
    """The names a statement loads, the attributes it reads and the names
    it imports."""
    refs = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            refs.update(alias.name for alias in node.names)
    return refs


def unreferenced(trees):
    """Module-level private names of ``trees`` that no statement outside
    their own definition references; a helper that only calls itself is
    unreferenced."""
    stmts = [stmt for tree in trees for stmt in tree.body]
    refs = [references(stmt) for stmt in stmts]
    return sorted(
        name
        for tree in trees
        for name, own in private_definitions(tree).items()
        if not any(name in r for stmt, r in zip(stmts, refs) if stmt is not own)
    )


def test_every_private_name_is_referenced():
    trees = [ast.parse(p.read_text(), filename=str(p)) for p in sorted(SRC.glob("*.py"))]
    assert sum(len(private_definitions(tree)) for tree in trees) > 0
    assert unreferenced(trees) == [], "module-level private names nothing references"


def test_catches_an_orphaned_helper():
    trees = [ast.parse(src) for src in (
        "_LIMIT = 3\n_SCALE: float = 2.0\n__all__ = []\n"
        "def _used(x):\n    return x * _SCALE\n"
        "def _orphan(x):\n    return _orphan(x - 1) if x else _LIMIT\n"
        "class _Gone:\n    pass\n",
        "from .a import _used\ndef f(m):\n    return _used(m._attr_only)\n"
        "_attr_only = 1\n",
    )]
    assert unreferenced(trees) == ["_Gone", "_orphan"]
