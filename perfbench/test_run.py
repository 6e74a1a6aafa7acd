"""Properties of the benchmark harness.

    python3 -m pytest perfbench -q

The launch tests run every workload at its full size, three launches each:
half a minute to a minute on 2 CPUs, with a peak of about 1.3 GB in the
``chatter_refined`` child.
"""

import importlib
import shutil
import sys
import tempfile
from pathlib import Path

import pytest

import child
import run

SEED = 3


@pytest.fixture(scope="module")
def launches():
    """Per workload: an untraced launch and two traced ones, same seed."""
    cache = {}

    def get(name):
        if name not in cache:
            run.WORK.mkdir(exist_ok=True)
            scratch = Path(tempfile.mkdtemp(prefix="test-", dir=run.WORK))
            try:
                bench = run.Run(name, SEED, scratch)
                cache[name] = [bench.launch(mode) for mode in ("plain", "traced", "traced")]
            finally:
                shutil.rmtree(scratch, ignore_errors=True)
        return cache[name]

    return get


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_tracing_leaves_artefacts_byte_identical(launches, name):
    plain, traced, _ = launches(name)
    assert plain["ok"], plain.get("error")
    assert traced["ok"], traced.get("error")
    assert plain["digests"] == traced["digests"]


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_count_metrics_repeat_exactly(launches, name):
    _, first, second = launches(name)
    assert first["ok"] and second["ok"]
    exact = [metric for metric, unit, _, _ in run.LAYER_METRICS if unit != "s"]
    assert {m: first["layers"][m] for m in exact} == {m: second["layers"][m] for m in exact}


def test_tracer_covers_names_imported_across_modules():
    sys.path.insert(0, str(run.SRC))
    from singopt import adjoint, cli, controls, optimality, sde

    modules = {name: importlib.import_module(f"singopt.{name}") for name in child.LAYERS}
    child.install_tracer("singopt", modules)
    for module, attr in [(adjoint, "relaxed_hamiltonian_batch"),
                         (optimality, "strict_hamiltonian_batch"),
                         (adjoint, "variational_inequality_value"),
                         (sde, "chattering"), (controls, "chattering"),
                         (cli, "main")]:
        assert hasattr(getattr(module, attr), "__wrapped__"), (module.__name__, attr)
    assert hasattr(sde.NoiseBatch.generate, "__wrapped__")
    assert hasattr(cli.COMMANDS["certify"], "__wrapped__")
    assert not hasattr(sde._check_finite, "__wrapped__")


def test_layer_metrics_from_spans():
    # main -> certify -> verify -> Hamiltonian calls (one nested); main -> CSV export
    spans = [
        ["cli.main", 0.0, 10.0, -1, None],
        ["optimality.certify_sufficient", 1.0, 8.0, 0, None],
        ["optimality.verify_necessary", 2.0, 7.0, 1, None],
        ["optimality.strict_hamiltonian_batch", 3.0, 4.0, 2, None],
        ["optimality.minimize_hamiltonian", 4.0, 6.0, 2, None],
        ["optimality.strict_hamiltonian_batch", 4.5, 5.0, 4, None],
        ["io.ensemble_to_csv", 8.0, 9.5, 0, 1234],
    ]
    m = run.layer_metrics(spans)
    assert m["cli.self_s"] == 10.0 - 7.0 - 1.5
    assert m["optimality.certify_self_s"] == 7.0 - 5.0
    assert m["optimality.verify_s"] == 5.0
    # the nested Hamiltonian call is inside an outer one: busy time counts it once
    assert m["optimality.hamiltonian_s"] == 1.0 + 2.0
    assert m["optimality.hamiltonian_calls"] == 3
    assert m["io.csv_s"] == 1.5 and m["io.csv_bytes"] == 1234
    assert m["sde.simulate_s"] == 0.0 and m["adjoint.fit_calls"] == 0
