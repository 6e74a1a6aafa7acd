"""Forward simulation of the controlled state equations.

All schemes are explicit Euler-Maruyama on a uniform grid, vectorized over
paths: the strict and relaxed state equations, the (first-order) variational
equation of a convex control perturbation, and the matrix-valued fundamental
solution of the linearized dynamics together with its inverse; the last
two, and the pathwise adjoint, step with one Euler Jacobian per knot
(_linearization).  The singular increment of a cell is applied inside the
same step as drift and diffusion (end-of-cell convention, matching the
left-continuity convention of singular controls).

Ensembles have shape (M, N+1, ...) and are stored time-major
(model.ensemble_zeros), so the slice [:, j] of one knot is contiguous.
Everything is deterministic given (problem, controls, grid, noise); means
and suprema reduce in fixed path order.

A TrajectoryEnsemble carries the problem, the controls and the noise it was
simulated with, and its grid is the grid of its control; every result
computed along it carries the ensemble (a reference, its `traj` field), so a
sweep reads its context from its inputs and never takes it twice.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .controls import (
    RelaxedControl,
    SingularControl,
    as_relaxed,
    chattering,
    dirac_embed,
    regrid_relaxed,
    regrid_singular,
)
from .model import NoiseBatch, NoiseStream, ProblemSpec, TimeGrid, ensemble_zeros

# Knots per block: the Euler kernel advances and checks for finiteness one
# block of steps at a time, the running cost calls h once per atom of a block,
# and chattering_gap streams both controls through windows of one block.
_BLOCK_KNOTS = 64
# Steps per noise window of chattering_gap, a multiple of _BLOCK_KNOTS.  Each
# window costs one standard_normal call per path, so a narrower window pays
# that call more often and a wider one holds more increments (M x window x d
# floats: 31 MiB at M = 4 000, d = 1 and 1 024 steps).
_NOISE_WINDOW_KNOTS = 1024


class SimulationError(RuntimeError):
    """Raised when a simulated state stops being finite (blow-up)."""


@dataclass(frozen=True, eq=False)
class TrajectoryEnsemble:
    """Simulated states, shape (M, N+1, n), plus the problem, the relaxed
    control, the singular control and the noise that produced them."""

    states: np.ndarray = field(repr=False)
    spec: ProblemSpec = field(repr=False)
    control: RelaxedControl = field(repr=False)
    singular: SingularControl = field(repr=False)
    noise: NoiseBatch

    @property
    def grid(self) -> TimeGrid:
        return self.control.grid

    @property
    def num_paths(self) -> int:
        return self.states.shape[0]

    @property
    def terminal(self) -> np.ndarray:
        return self.states[:, -1, :]


@dataclass(frozen=True, eq=False)
class VariationalEnsemble:
    """First-order state sensitivities z, shape (M, N+1, n); z_0 = 0, along
    the ensemble traj."""

    z: np.ndarray = field(repr=False)
    traj: TrajectoryEnsemble = field(repr=False)


@dataclass(frozen=True, eq=False)
class FundamentalPair:
    """Fundamental solution Phi of the linearized dynamics and its inverse Psi
    along the ensemble traj.

    Both have shape (M, N+1, n, n) with identity initial value.  Psi solves
    the Ito inverse equation; the product Psi Phi is monitored, not
    re-inverted, so its defect exposes the discretization error.
    """

    Phi: np.ndarray = field(repr=False)
    Psi: np.ndarray = field(repr=False)
    traj: TrajectoryEnsemble = field(repr=False)

    def inverse_defect(self) -> float:
        """max over paths and knots of || Psi_t Phi_t - I ||_F, reduced knot
        by knot, so no product of the whole pair is formed."""
        eye = np.eye(self.Phi.shape[-1])
        return max(
            float(np.sqrt(((self.Psi[:, j] @ self.Phi[:, j] - eye) ** 2).sum(axis=(-2, -1))).max())
            for j in range(self.Phi.shape[1])
        )


def _check_finite(windows, first):
    """Raise SimulationError if a time-major window (K, M, ...) holds a
    non-finite value, naming the first bad knot (windows start at knot
    `first`) and, at that knot, the first bad path (windows are scanned in
    the order given)."""
    if all(np.isfinite(values).all() for values in windows):
        return
    for i in range(len(windows[0])):
        for values in windows:
            knot = values[i]
            bad = ~np.isfinite(knot.reshape(len(knot), -1)).all(axis=1)
            if bad.any():
                raise SimulationError(
                    f"state became non-finite at step {first + i}, "
                    f"first affected path {int(np.argmax(bad))}"
                )


def _checked_steps(num_steps, *ensembles):
    """Yield the steps 0..num_steps-1 of an Euler loop that writes knot j+1
    at step j; the knots written since the last check are checked for
    finiteness after every _BLOCK_KNOTS steps and after the last one."""
    for start in range(0, num_steps, _BLOCK_KNOTS):
        stop = min(start + _BLOCK_KNOTS, num_steps)
        yield from range(start, stop)
        _check_finite([e[:, start + 1:stop + 1].swapaxes(0, 1) for e in ensembles], start + 1)


def _euler_block(spec: ProblemSpec, q: RelaxedControl, eta: SingularControl,
                 dW: np.ndarray, start: int, x: np.ndarray):
    """Advance the time-major window x, shape (K+1, M, n), by K Euler steps
    of q's grid from knot `start`, held in x[0], driven by the time-major
    increments dW, shape (K, M, d), of those steps; then check the K knots
    written for finiteness.

    Step j forms (x_j + drift_j dt) + diffusion_j dW_j, plus G(t_j) times
    the singular increment.  When neither drift nor diffusion has a state
    term, their per-cell averages are constants of q (q.cell_averages), and
    the noise terms of all K steps are written into x[1:] by one einsum per
    state component, which sums over the noise dimension as the per-step
    einsum does, bit for bit (one einsum over all of (k, m, p) is several
    times slower than the per-step loop once n and d are both 2 or more).
    """
    knots = q.grid.knots
    dt = q.grid.dt
    stop = start + len(dW)
    inc = eta.increments
    has_singular = bool(inc.any())
    drift = q.cell_averages(spec.b, x[0])
    diff = q.cell_averages(spec.sigma, x[0])
    state_free = drift is not None and diff is not None
    if state_free:
        drift_dt = drift[start:stop] * dt
        for p in range(spec.n):
            np.einsum("kj,kmj->km", diff[start:stop, p], dW, out=x[1:, :, p])
    for i, j in enumerate(range(start, stop)):
        t = knots[j]
        xj = x[i]
        if state_free:
            x[i + 1] += xj + drift_dt[i]
        else:
            drift_j = q.average(spec.b, j, t, xj)
            diff_j = q.average(spec.sigma, j, t, xj)
            x[i + 1] = xj + drift_j * dt + np.einsum("...pj,...j->...p", diff_j, dW[i])
        if has_singular:
            x[i + 1] += spec.G(t) @ inc[j]
    _check_finite([x[1:]], start + 1)


def _require_grid(grid: TimeGrid, *controls):
    for c in controls:
        if c.grid != grid:
            raise SimulationError(
                f"control defined on {c.grid.num_steps} steps does not match the "
                f"simulation grid of {grid.num_steps} steps"
            )


def _require_controls(spec: ProblemSpec, grid: TimeGrid, q: RelaxedControl,
                      eta: SingularControl):
    """Raise SimulationError unless q and eta are defined on grid, q acts in
    the problem's k control dimensions and eta in its m singular ones."""
    _require_grid(grid, q, eta)
    if q.control_dim != spec.k:
        raise SimulationError(f"control of dimension {q.control_dim} does not match "
                              f"the problem's k = {spec.k}")
    if eta.singular_dim != spec.m:
        raise SimulationError(f"singular control of dimension {eta.singular_dim} does not "
                              f"match the problem's m = {spec.m}")


def _require_horizon(spec: ProblemSpec, grid: TimeGrid):
    if grid.horizon != spec.horizon:
        raise SimulationError(f"control horizon {grid.horizon!r} does not match the "
                              f"problem horizon {spec.horizon!r}")


def _require_along(traj: TrajectoryEnsemble, *named):
    """Raise SimulationError unless each (name, result) pair was computed
    along traj itself."""
    for name, result in named:
        if result.traj is not traj:
            raise SimulationError(f"{name} was computed along another ensemble")


def simulate_relaxed(spec: ProblemSpec, q, eta: SingularControl,
                     noise: NoiseBatch) -> TrajectoryEnsemble:
    """Euler-Maruyama for the measure-controlled state equation on q's grid,
    which eta and the noise share and which spans the problem's horizon.

    q is a relaxed control or a strict one, which plays its point masses
    (controls.as_relaxed); the ensemble keeps the relaxed form.  Drift and
    diffusion are replaced by their per-cell measure averages.
    """
    q = as_relaxed(q)
    grid = q.grid
    _require_controls(spec, grid, q, eta)
    if noise.grid != grid or noise.increments.shape[2] != spec.d:
        raise SimulationError("noise batch does not match the grid / noise dimension")
    _require_horizon(spec, grid)
    x = ensemble_zeros(len(noise.increments), grid.num_steps + 1, spec.n)
    x[:, 0, :] = spec.x0
    windows = x.swapaxes(0, 1)
    dW = noise.increments.swapaxes(0, 1)
    for start in range(0, grid.num_steps, _BLOCK_KNOTS):
        stop = start + _BLOCK_KNOTS
        _euler_block(spec, q, eta, dW[start:stop], start, windows[start:stop + 1])
    return TrajectoryEnsemble(x, spec, q, eta, noise)


def _linearization(traj: TrajectoryEnsemble, j: int) -> tuple:
    """The first-order expansion of Euler step j along the ensemble, averaged
    over cell j's measure: hbar_x (M, n); the step's Jacobian in the state
    J_j = I + bbar_x dt + sum_i sbar_x,i dW_i (M, n, n), with which the
    variational equation and the fundamental pair step, and with whose
    transpose the pathwise adjoint steps; and sbar_x, (d, n, n) when shared
    by all paths, else (M, d, n, n)."""
    spec, mu = traj.spec, traj.control
    M, n = traj.num_paths, spec.n
    t, xj = traj.grid.knots[j], traj.states[:, j, :]
    hx = np.broadcast_to(mu.average(spec.h_x, j, t, xj), (M, n))
    sx = mu.average(spec.sigma_x, j, t, xj)
    # sum_i sx_i dW_i, one (n, n) noise matrix per path
    dW = traj.noise.increments[:, j, None, :]
    J = np.matmul(dW, sx.reshape(*sx.shape[:-2], n * n)).reshape(M, n, n)
    J += mu.average(spec.b_x, j, t, xj) * traj.grid.dt + np.eye(n)
    return hx, J, sx


def simulate_variational(traj: TrajectoryEnsemble, direction: tuple) -> VariationalEnsemble:
    """Simulate the first-order sensitivity z of the state to the perturbation
    moving the ensemble's controls toward `direction`.

    The linearization runs along the ensemble, on its grid and noise:
    z_{j+1} = J_j z_j plus the coefficient differences in the direction
    (direction - base) and the singular increment difference, so
    (x_theta - x) / theta converges to z in mean square as theta -> 0.  A
    strict direction control plays its point masses (controls.as_relaxed).
    """
    spec, mu, xi = traj.spec, traj.control, traj.singular
    q, eta = direction
    q = as_relaxed(q)
    grid = traj.grid
    _require_controls(spec, grid, q, eta)
    dt = grid.dt
    dW = traj.noise.increments
    knots = grid.knots
    dinc = eta.increments - xi.increments
    z = ensemble_zeros(traj.num_paths, grid.num_steps + 1, spec.n)
    for j in _checked_steps(grid.num_steps, z):
        t = knots[j]
        xj = traj.states[:, j, :]
        _, J, _ = _linearization(traj, j)
        db = q.average(spec.b, j, t, xj) - mu.average(spec.b, j, t, xj)
        ds = q.average(spec.sigma, j, t, xj) - mu.average(spec.sigma, j, t, xj)
        z[:, j + 1, :] = (
            np.einsum("mpq,mq->mp", J, z[:, j, :])
            + db * dt
            + np.einsum("...pj,...j->...p", ds, dW[:, j, :])
            + spec.G(t) @ dinc[j]
        )
    return VariationalEnsemble(z, traj)


def fundamental_solutions(traj: TrajectoryEnsemble) -> FundamentalPair:
    """Euler-Maruyama for the fundamental matrix of the linearized dynamics
    and for its inverse.

    Phi solves dPhi = bx Phi dt + sx Phi dW along the ensemble, on its grid
    and noise: Phi_{j+1} = J_j Phi_j.  The inverse solves the Ito equation
    dPsi = Psi (sum_i sx_i^2 - bx) dt - sum_i Psi sx_i dW_i:
    Psi_{j+1} = Psi_j (2 I - J_j + sum_i sx_i^2 dt), so Psi_t Phi_t stays
    within discretization error of the identity.
    """
    grid = traj.grid
    M = traj.num_paths
    n = traj.spec.n
    eye = np.eye(n)
    Phi = ensemble_zeros(M, grid.num_steps + 1, n, n)
    Psi = ensemble_zeros(M, grid.num_steps + 1, n, n)
    Phi[:, 0] = eye
    Psi[:, 0] = eye
    for j in _checked_steps(grid.num_steps, Phi, Psi):
        _, J, sx = _linearization(traj, j)
        np.matmul(J, Phi[:, j], out=Phi[:, j + 1])
        inverse_step = (np.matmul(sx, sx).sum(axis=-3) * grid.dt + 2 * eye) - J
        np.matmul(Psi[:, j], inverse_step, out=Psi[:, j + 1])
    return FundamentalPair(Phi, Psi, traj)


# ---------------------------------------------------------------------------
# cost functional
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CostEstimate:
    """Monte Carlo cost estimate with its standard error and components."""

    value: float
    std_error: float
    terminal: float
    running: float
    singular: float
    num_paths: int

    def as_dict(self) -> dict:
        return asdict(self)


def _std_error(values: np.ndarray) -> float:
    """Standard error of the mean of per-path values; 0 for a single path."""
    M = len(values)
    return float(values.std(ddof=1) / np.sqrt(M)) if M > 1 else 0.0


def _cost_terms(traj: TrajectoryEnsemble) -> tuple:
    """Per-path terminal cost g(x_T) and left-endpoint running quadrature,
    both (M,), and the singular quadrature sum_j k(t_j) . delta_eta_j, of
    the ensemble's controls."""
    spec, mu, eta = traj.spec, traj.control, traj.singular
    grid = traj.grid
    knots = grid.knots
    M = traj.num_paths
    x = traj.states.swapaxes(0, 1)
    running = np.zeros(M)
    for start in range(0, grid.num_steps, _BLOCK_KNOTS):
        block = slice(start, min(start + _BLOCK_KNOTS, grid.num_steps))
        running += mu.block_total(spec.h, start, knots[block, None], x[block])
    running *= grid.dt
    singular = float(
        sum(spec.k_cost(knots[j]) @ eta.increments[j] for j in range(grid.num_steps))
    )
    terminal = np.broadcast_to(np.asarray(spec.g(traj.terminal), dtype=float), (M,))
    return terminal, running, singular


def per_path_cost(traj: TrajectoryEnsemble) -> np.ndarray:
    """Per-path total cost of the ensemble's controls: terminal +
    left-endpoint running quadrature + singular quadrature
    sum_j k(t_j) . delta_eta_j."""
    terminal, running, singular = _cost_terms(traj)
    return terminal + running + singular


def estimate_cost(traj: TrajectoryEnsemble) -> CostEstimate:
    """Monte Carlo estimate of the expected cost of the ensemble's controls."""
    terminal, running, singular = _cost_terms(traj)
    costs = terminal + running + singular
    terminal_mean = float(np.mean(terminal))
    return CostEstimate(
        value=float(costs.mean()),
        std_error=_std_error(costs),
        terminal=terminal_mean,
        running=float(costs.mean()) - terminal_mean - singular,
        singular=singular,
        num_paths=len(costs),
    )


# ---------------------------------------------------------------------------
# chattering convergence experiment
# ---------------------------------------------------------------------------

def chattering_gap(spec: ProblemSpec, q: RelaxedControl, eta: SingularControl,
                   n: int, num_paths: int, seed) -> dict:
    """Trajectory and cost gap between a relaxed control and its n-th
    chattering approximant, under common refined-grid noise.

    The approximant plays the n-block time-average of q; both controls are
    simulated on the approximant's refined grid.  Returns the sup-over-knots
    mean-square trajectory gap, |J(u_n) - J(q)| and the standard error of
    the per-path cost difference.

    The two controls are advanced side by side, one block of _BLOCK_KNOTS
    knots at a time, in two windows of _BLOCK_KNOTS + 1 knots; the gap and
    the running costs are accumulated per block.  The noise is drawn one
    window of _NOISE_WINDOW_KNOTS steps at a time, so no array grows with
    the number of paths times the number of steps.  The singular quadrature
    is the same for both controls and cancels from the cost difference.
    A control whose horizon is not the problem's raises SimulationError.
    """
    _require_horizon(spec, q.grid)
    qn = regrid_relaxed(q, n)
    un = chattering(qn, n)
    refined = un.grid
    q_ref = regrid_relaxed(q, refined.num_steps)
    eta_ref = regrid_singular(eta, refined.num_steps)
    noise = NoiseStream(num_paths, refined, spec.d, (seed, n))
    _require_grid(refined, un, q_ref, eta_ref)
    measures = (dirac_embed(un), q_ref)
    windows = (np.empty((_BLOCK_KNOTS + 1, num_paths, spec.n)),
               np.empty((_BLOCK_KNOTS + 1, num_paths, spec.n)))
    dW = np.empty((min(_NOISE_WINDOW_KNOTS, refined.num_steps), num_paths, spec.d))
    running = (np.zeros(num_paths), np.zeros(num_paths))
    knots = refined.knots
    for x in windows:
        x[0] = spec.x0
    gap = 0.0
    for start in range(0, refined.num_steps, _BLOCK_KNOTS):
        stop = min(start + _BLOCK_KNOTS, refined.num_steps)
        K = stop - start
        offset = start % _NOISE_WINDOW_KNOTS
        if offset == 0:
            noise.fill(dW[: refined.num_steps - start])
        for measure, x, acc in zip(measures, windows, running):
            _euler_block(spec, measure, eta_ref, dW[offset:offset + K], start, x[:K + 1])
            acc += measure.block_total(spec.h, start, knots[start:stop, None], x[:K])
        x_strict, x_relax = windows
        sq = ((x_strict[1:K + 1] - x_relax[1:K + 1]) ** 2).sum(axis=2)
        gap = max(gap, float(sq.mean(axis=1).max()))
        for x in windows:
            x[0] = x[K]
    cost_strict, cost_relax = (
        np.broadcast_to(np.asarray(spec.g(x[K]), dtype=float), (num_paths,)) + acc * refined.dt
        for x, acc in zip(windows, running)
    )
    diff = cost_strict - cost_relax
    return {
        "n": n,
        "traj_gap": gap,
        "cost_gap": abs(float(diff.mean())),
        "cost_gap_se": _std_error(diff),
        "refined_steps": refined.num_steps,
    }
