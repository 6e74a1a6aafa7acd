"""The package's import structure: every import sits at module level, and
the optimality checks do not depend on the adjoint module.  The sweeps
read a relaxed control's measure only through RelaxedControl.average,
block_total and cell_averages, never through its atoms or weights, and in
sde and adjoint only sde._linearization reads the state gradients b_x,
sigma_x and h_x of the problem."""

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


SWEEPS = [p for p in SOURCES if p.name in ("sde.py", "adjoint.py", "optimality.py")]


@pytest.mark.parametrize("path", SWEEPS, ids=[p.name for p in SWEEPS])
def test_sweeps_do_not_read_atoms_or_weights(path):
    tree = ast.parse(path.read_text())
    reads = [
        (node.attr, node.lineno)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in ("atoms", "weights")
    ]
    assert reads == []


LINEARIZED = [p for p in SOURCES if p.name in ("sde.py", "adjoint.py")]


@pytest.mark.parametrize("path", LINEARIZED, ids=[p.name for p in LINEARIZED])
def test_only_the_linearization_reads_state_gradients(path):
    tree = ast.parse(path.read_text())
    readers = {
        getattr(top, "name", None)
        for top in tree.body
        for node in ast.walk(top)
        if isinstance(node, ast.Attribute) and node.attr in ("b_x", "sigma_x", "h_x")
    }
    assert readers <= {"_linearization"}


def test_no_module_imports_cell_average():
    importers = [
        path.name
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, (ast.Import, ast.ImportFrom)) and "_cell_average" in imported_names(node)
    ]
    assert importers == []
