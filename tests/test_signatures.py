"""The public sweeps that extend a trajectory ensemble read its grid and noise
from the ensemble: none takes a second copy of either, and each rejects a
control defined on another grid and a result computed along another
ensemble."""

import inspect
from types import SimpleNamespace

import pytest

from singopt import adjoint, optimality, sde
from singopt.adjoint import (
    adjoint_bsde,
    adjoint_explicit,
    auxiliary_processes,
    duality_residual,
    martingale_route_P,
    variational_inequality_value,
)
from singopt.controls import constant_relaxed, constant_strict, dirac_embed, zero_singular
from singopt.model import NoiseBatch, TimeGrid, builtin_problem
from singopt.optimality import certify_sufficient, verify_necessary
from singopt.sde import (
    SimulationError,
    fundamental_solutions,
    simulate_relaxed,
    simulate_variational,
)

MODULES = (sde, adjoint, optimality)


@pytest.mark.parametrize("module", MODULES, ids=[m.__name__ for m in MODULES])
def test_no_function_takes_an_ensemble_and_its_grid_or_noise(module):
    restated = []
    for name, fn in vars(module).items():
        if name.startswith("_") or not inspect.isfunction(fn):
            continue
        if fn.__module__ != module.__name__:
            continue
        params = set(inspect.signature(fn).parameters)
        if params & {"traj", "base_traj"} and params & {"grid", "noise"}:
            restated.append(name)
    assert restated == []


def _run_along(spec, grid, seed):
    """An ensemble on grid with everything computed along it."""
    good = (constant_relaxed(grid, [[-1.0], [1.0]], [0.5, 0.5]), zero_singular(grid, 1))
    toward = (dirac_embed(constant_strict(grid, [1.0])), zero_singular(grid, 1))
    traj = simulate_relaxed(spec, *good, grid, NoiseBatch.generate(8, grid, spec.d, seed))
    fund = fundamental_solutions(spec, good, traj)
    z = simulate_variational(spec, good, toward, traj)
    aux = auxiliary_processes(spec, good, traj, fund, z)
    adj = adjoint_bsde(spec, good, traj)
    return SimpleNamespace(spec=spec, good=good, toward=toward, traj=traj,
                           fund=fund, z=z, aux=aux, adj=adj)


@pytest.fixture(scope="module")
def ten_step_run():
    """A 10-step run, plus a control pair on a 20-step grid of the same
    horizon (`bad`) and a 20-step run on the same number of paths (`fine`)."""
    spec = builtin_problem("example2_stochastic")
    run = _run_along(spec, TimeGrid(10, spec.horizon), 3)
    run.fine = _run_along(spec, TimeGrid(20, spec.horizon), 4)
    run.bad = run.fine.good
    return run


MISMATCHED_CALLS = {
    "simulate_variational-base":
        lambda r: simulate_variational(r.spec, r.bad, r.toward, r.traj),
    "simulate_variational-direction":
        lambda r: simulate_variational(r.spec, r.good, r.bad, r.traj),
    "fundamental_solutions": lambda r: fundamental_solutions(r.spec, r.bad, r.traj),
    "adjoint_explicit": lambda r: adjoint_explicit(r.spec, r.bad, r.traj, r.fund),
    "adjoint_bsde": lambda r: adjoint_bsde(r.spec, r.bad, r.traj),
    "auxiliary_processes":
        lambda r: auxiliary_processes(r.spec, r.bad, r.traj, r.fund, r.z),
    "martingale_route_P":
        lambda r: martingale_route_P(r.spec, r.bad, r.traj, r.fund, r.aux, r.adj.p),
    "variational_inequality_value-base":
        lambda r: variational_inequality_value(r.spec, r.bad, r.toward, r.adj, r.traj),
    "variational_inequality_value-direction":
        lambda r: variational_inequality_value(r.spec, r.good, r.bad, r.adj, r.traj),
    "duality_residual-base": lambda r: duality_residual(r.spec, r.bad, r.toward, r.traj),
    "duality_residual-direction": lambda r: duality_residual(r.spec, r.good, r.bad, r.traj),
    "verify_necessary": lambda r: verify_necessary(r.spec, r.bad, r.adj, r.traj),
    "certify_sufficient": lambda r: certify_sufficient(r.spec, r.bad, r.adj, r.traj),
}


@pytest.mark.parametrize("call", MISMATCHED_CALLS.values(), ids=list(MISMATCHED_CALLS))
def test_control_on_another_grid_is_rejected(ten_step_run, call):
    with pytest.raises(
        SimulationError,
        match=r"^control defined on 20 steps does not match the simulation grid of 10 steps$",
    ):
        call(ten_step_run)


# Each sweep given one result of the 20-step run and everything else of the
# 10-step run.
FOREIGN_RESULTS = {
    "verify_necessary-adjoint":
        lambda r: verify_necessary(r.spec, r.good, r.fine.adj, r.traj),
    "certify_sufficient-adjoint":
        lambda r: certify_sufficient(r.spec, r.good, r.fine.adj, r.traj),
    "variational_inequality_value-adjoint":
        lambda r: variational_inequality_value(r.spec, r.good, r.toward, r.fine.adj, r.traj),
    "adjoint_explicit-fund": lambda r: adjoint_explicit(r.spec, r.good, r.traj, r.fine.fund),
    "auxiliary_processes-fund":
        lambda r: auxiliary_processes(r.spec, r.good, r.traj, r.fine.fund, r.z),
    "auxiliary_processes-variational":
        lambda r: auxiliary_processes(r.spec, r.good, r.traj, r.fund, r.fine.z),
    "martingale_route_P-fund":
        lambda r: martingale_route_P(r.spec, r.good, r.traj, r.fine.fund, r.aux, r.adj.p),
    "martingale_route_P-aux":
        lambda r: martingale_route_P(r.spec, r.good, r.traj, r.fund, r.fine.aux, r.adj.p),
    "martingale_route_P-p":
        lambda r: martingale_route_P(r.spec, r.good, r.traj, r.fund, r.aux, r.fine.adj.p),
}


@pytest.mark.parametrize("call", FOREIGN_RESULTS.values(), ids=list(FOREIGN_RESULTS))
def test_result_of_another_ensemble_is_rejected(ten_step_run, call):
    with pytest.raises(
        SimulationError,
        match=r"^[\w.]+ was computed along another ensemble: leading shape \(8, 21\), "
              r"expected \(paths, knots\) = \(8, 11\)$",
    ):
        call(ten_step_run)
