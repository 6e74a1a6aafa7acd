"""The package's import structure: every import sits at module level, every
name a module imports is read there, and the optimality checks do not
depend on the adjoint module.  The sweeps read a relaxed control's measure
only through RelaxedControl.average, block_total and cell_averages, never
through its atoms or weights, and in sde, adjoint and optimality only
sde._Linearization reads the state gradients b_x, sigma_x and h_x of the
problem.  Only model forks, kills, reaps or exits a process, builds a
thread or maps shared memory, so every fork sits behind
model._single_threaded, which no other module names.  Only model names
numpy's PCG64 and Generator, so the path generators of the noise are
seeded in one place.  Importing the CLI loads no module beyond numpy and a
fixed set of the standard library."""

import ast
import os
import subprocess
import sys
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


LINEARIZED = [p for p in SOURCES if p.name in ("sde.py", "adjoint.py", "optimality.py")]


@pytest.mark.parametrize("path", LINEARIZED, ids=[p.name for p in LINEARIZED])
def test_only_the_linearization_reads_state_gradients(path):
    tree = ast.parse(path.read_text())
    readers = {
        getattr(top, "name", None)
        for top in tree.body
        for node in ast.walk(top)
        if isinstance(node, ast.Attribute) and node.attr in ("b_x", "sigma_x", "h_x")
    }
    assert readers <= {"_Linearization"}


def test_no_module_imports_cell_average():
    importers = [
        path.name
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, (ast.Import, ast.ImportFrom)) and "_cell_average" in imported_names(node)
    ]
    assert importers == []


SPAWNERS = {("os", "fork"), ("os", "kill"), ("os", "waitpid"), ("os", "_exit"),
            ("threading", "Thread"), ("mmap", "mmap")}
FORK_HELPERS = {"_single_threaded"}


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_only_model_forks_threads_or_maps(path):
    # os.fork(), os.kill(...), os.waitpid(...), os._exit(...) (the whole
    # life of model._ahead's worker, shared by chatter's noise and the
    # backward sweep of verify and certify), threading.Thread(...), a
    # subclass of it, mmap.mmap(...), a from-import of any of them, or any
    # reference to model's fork gate _single_threaded; model itself must
    # be found using them
    uses = [
        node.lineno
        for node in ast.walk(ast.parse(path.read_text()))
        if (isinstance(node, ast.Attribute)
            and (node.attr in FORK_HELPERS
                 or isinstance(node.value, ast.Name) and (node.value.id, node.attr) in SPAWNERS))
        or (isinstance(node, ast.Name) and node.id in FORK_HELPERS)
        or (isinstance(node, ast.ImportFrom)
            and any((node.module, alias.name) in SPAWNERS or alias.name in FORK_HELPERS
                    for alias in node.names))
    ]
    assert bool(uses) == (path.name == "model.py"), uses


PATH_GENERATORS = {"PCG64", "Generator"}


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_only_model_names_the_path_generators(path):
    # np.random.PCG64, np.random.Generator (also through a bare `random`)
    # or a from-import of either out of numpy.random; a default_rng probe
    # (certify's midpoint, validate_problem) names neither.  model itself
    # must be found naming them
    uses = [
        node.lineno
        for node in ast.walk(ast.parse(path.read_text()))
        if (isinstance(node, ast.Attribute) and node.attr in PATH_GENERATORS
            and (isinstance(node.value, ast.Attribute) and node.value.attr == "random"
                 or isinstance(node.value, ast.Name) and node.value.id == "random"))
        or (isinstance(node, ast.ImportFrom) and node.module == "numpy.random"
            and any(alias.name in PATH_GENERATORS for alias in node.names))
    ]
    assert bool(uses) == (path.name == "model.py"), uses


UNUSED_CHECKED = [p for p in SOURCES if p.name != "__init__.py"]


@pytest.mark.parametrize("path", UNUSED_CHECKED, ids=[p.name for p in UNUSED_CHECKED])
def test_every_imported_name_is_read(path):
    # the name an import binds is its alias, or the first part of a dotted module
    tree = ast.parse(path.read_text())
    bound = {
        (alias.asname or alias.name).split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    } - {"annotations"}
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    assert sorted(bound - read) == []


# what `import singopt.cli` adds to sys.modules after `import numpy`, all of
# it standard library; numpy.random waits for the first noise draw
CLI_IMPORTS = {"__future__", "_blake2", "_hashlib", "_json", "argparse", "copy", "dataclasses",
               "gettext", "hashlib", "json", "json.decoder", "json.encoder", "json.scanner",
               "mmap"}


def test_importing_the_cli_adds_no_dependency():
    # every command pays for these imports before it starts (perfbench's
    # setup_s); a module that the interpreter or numpy already loaded is
    # not counted, so only a new import fails
    code = ("import sys, numpy\n"
            "before = set(sys.modules)\n"
            "import singopt.cli\n"
            "print(sorted(set(sys.modules) - before), 'numpy.random' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=str(Path(singopt.__file__).parent.parent))
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, check=True, timeout=60)
    added, random_loaded = result.stdout.rsplit(" ", 1)
    modules = {name for name in ast.literal_eval(added) if name.split(".")[0] != "singopt"}
    assert modules <= CLI_IMPORTS, sorted(modules - CLI_IMPORTS)
    assert random_loaded == "False\n"
