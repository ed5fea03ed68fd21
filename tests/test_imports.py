"""Every name a program module imports is used in that module.

No linter ships with the project, so this stands in for its unused-import
check. ``__init__.py`` is left out: it imports names to re-export them.
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
