"""The package's import structure: every import sits at module level, and
the optimality checks do not depend on the adjoint module."""

import ast
from pathlib import Path

import pytest

import singopt

SOURCES = sorted(Path(singopt.__file__).parent.glob("*.py"))


def imported_names(node):
    """The dotted module parts and names an import statement mentions."""
    if isinstance(node, ast.Import):
        return {part for alias in node.names for part in alias.name.split(".")}
    return set((node.module or "").split(".")) | {alias.name for alias in node.names}


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_import_inside_a_function(path):
    tree = ast.parse(path.read_text())
    nested = [
        (func.name, inner.lineno)
        for func in ast.walk(tree)
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        for inner in ast.walk(func)
        if isinstance(inner, (ast.Import, ast.ImportFrom))
    ]
    assert nested == []


def test_optimality_does_not_import_adjoint():
    path = Path(singopt.__file__).parent / "optimality.py"
    tree = ast.parse(path.read_text())
    imports = [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert imports
    assert all("adjoint" not in imported_names(node) for node in imports)
