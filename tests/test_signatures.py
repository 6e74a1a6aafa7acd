"""A trajectory ensemble carries the problem, the controls, the grid and the
noise it was simulated with, and every result carries its ensemble.  No
public sweep takes any of these a second time; each rejects a direction
control defined on another grid, and where two results meet, a result
computed along another ensemble.  Records that hold arrays compare by
identity."""

import inspect
from types import SimpleNamespace

import pytest

from singopt import adjoint, optimality, sde
from singopt.adjoint import (
    adjoint_bsde,
    auxiliary_processes,
    duality_residual,
    martingale_route_P,
    variational_inequality_value,
)
from singopt.controls import constant_relaxed, constant_strict, dirac_embed, zero_singular
from singopt.model import NoiseBatch, TimeGrid, builtin_problem
from singopt.sde import (
    SimulationError,
    fundamental_solutions,
    simulate_relaxed,
    simulate_variational,
)

MODULES = (sde, adjoint, optimality)
CARRIERS = {"traj", "adjoint", "fund", "variational", "aux"}
CARRIED = {"spec", "grid", "noise", "pair", "base", "candidate", "control", "eta"}


@pytest.mark.parametrize("module", MODULES, ids=[m.__name__ for m in MODULES])
def test_no_function_takes_an_ensemble_and_its_grid_or_noise(module):
    restated = []
    for name, fn in vars(module).items():
        if name.startswith("_") or not inspect.isfunction(fn):
            continue
        if fn.__module__ != module.__name__:
            continue
        params = set(inspect.signature(fn).parameters)
        if params & CARRIERS and params & CARRIED:
            restated.append(name)
    assert restated == []


def _run_along(spec, grid, seed):
    """An 8-path ensemble on grid with everything computed along it."""
    good = (constant_relaxed(grid, [[-1.0], [1.0]], [0.5, 0.5]), zero_singular(grid, 1))
    toward = (dirac_embed(constant_strict(grid, [1.0])), zero_singular(grid, 1))
    traj = simulate_relaxed(spec, *good, NoiseBatch.generate(8, grid, spec.d, seed))
    fund = fundamental_solutions(traj)
    z = simulate_variational(traj, toward)
    aux = auxiliary_processes(fund)
    adj = adjoint_bsde(traj)
    return SimpleNamespace(good=good, traj=traj, fund=fund, z=z, aux=aux, adj=adj)


@pytest.fixture(scope="module")
def ten_step_run():
    """A 10-step run, plus a control pair on a 20-step grid of the same
    horizon (`bad`), a 20-step run on the same number of paths (`fine`) and
    a 10-step run of the same size with another seed (`twin`)."""
    spec = builtin_problem("example2_stochastic")
    run = _run_along(spec, TimeGrid(10, spec.horizon), 3)
    run.fine = _run_along(spec, TimeGrid(20, spec.horizon), 4)
    run.twin = _run_along(spec, TimeGrid(10, spec.horizon), 4)
    run.bad = run.fine.good
    return run


MISMATCHED_CALLS = {
    "simulate_variational-direction": lambda r: simulate_variational(r.traj, r.bad),
    "variational_inequality_value-direction":
        lambda r: variational_inequality_value(r.adj, r.bad),
    "duality_residual-direction": lambda r: duality_residual(r.traj, r.bad),
}


@pytest.mark.parametrize("call", MISMATCHED_CALLS.values(), ids=list(MISMATCHED_CALLS))
def test_control_on_another_grid_is_rejected(ten_step_run, call):
    with pytest.raises(
        SimulationError,
        match=r"^control defined on 20 steps does not match the simulation grid of 10 steps$",
    ):
        call(ten_step_run)


@pytest.mark.parametrize("module", MODULES, ids=[m.__name__ for m in MODULES])
def test_no_function_takes_a_grid(module):
    """A run's grid is the grid of its control, so no public function of the
    simulation, adjoint or verification layers takes one."""
    takes_grid = [
        name for name, fn in vars(module).items()
        if not name.startswith("_") and inspect.isfunction(fn)
        and fn.__module__ == module.__name__ and "grid" in inspect.signature(fn).parameters
    ]
    assert takes_grid == []


# Where two results meet, each sweep given one result of another run and the
# rest of the 10-step run: of the 20-step `fine` run, or of the same-size
# `twin` run, which no comparison of shapes can tell apart.  The adjoint pair
# supplies the p that martingale_route_P reads.
MEETINGS = {
    "martingale_route_P-fund": lambda r, o: martingale_route_P(o.fund, r.aux, r.adj),
    "martingale_route_P-aux": lambda r, o: martingale_route_P(r.fund, o.aux, r.adj),
    "martingale_route_P-p": lambda r, o: martingale_route_P(r.fund, r.aux, o.adj),
}
FOREIGN_RESULTS = {
    name + suffix: (call, other)
    for suffix, other in (("", "fine"), ("-same-size", "twin"))
    for name, call in MEETINGS.items()
}


@pytest.mark.parametrize("call, other", FOREIGN_RESULTS.values(), ids=list(FOREIGN_RESULTS))
def test_result_of_another_ensemble_is_rejected(ten_step_run, call, other):
    with pytest.raises(SimulationError, match=r"^\w+ was computed along another ensemble$"):
        call(ten_step_run, getattr(ten_step_run, other))


def test_records_that_hold_arrays_compare_by_identity():
    """Two runs from the same inputs hold equal arrays, yet each record
    equals itself only and hashes, so records can be compared and kept in
    sets."""

    def records(run):
        return (run.traj.spec, run.traj.noise, constant_strict(run.traj.grid, [1.0]),
                *run.good, run.traj, run.z, run.fund, run.aux, run.adj)

    grid = TimeGrid(10, 1.0)
    first, second = (_run_along(builtin_problem("example2_stochastic"), grid, 3)
                     for _ in range(2))
    for one, twin in zip(records(first), records(second)):
        name = type(one).__name__
        assert one == one and one != twin, name
        assert len({one, twin, one}) == 2, name
