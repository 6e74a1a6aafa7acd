"""Forward simulation of the controlled state equations.

All schemes are explicit Euler-Maruyama on a uniform grid, vectorized over
paths: the strict and relaxed state equations, the (first-order) variational
equation of a convex control perturbation, and the matrix-valued fundamental
solution of the linearized dynamics together with its inverse.  The singular
increment of a cell is applied inside the same step as drift and diffusion
(end-of-cell convention, matching the left-continuity convention of
singular controls).

Ensembles have shape (M, N+1, ...) and are stored time-major
(model.ensemble_zeros), so the slice [:, j] of one knot is contiguous.
Everything is deterministic given (problem, controls, grid, noise); means
and suprema reduce in fixed path order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .controls import (
    RelaxedControl,
    SingularControl,
    StrictControl,
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
# window costs one standard_normal call per path.  At M = 4 000 and 8 192
# steps (one Xeon core, numpy 2.4) the draws took 0.94 s in windows of 128
# steps, 0.83 s in windows of 512 and 0.71 s in windows of 1 024, and only
# the last matched the whole-grid draw in end-to-end time; the peak RSS of
# the run rose from 58 to 70 and 85 MiB.
_NOISE_WINDOW_KNOTS = 1024


class SimulationError(RuntimeError):
    """Raised when a simulated state stops being finite (blow-up)."""


@dataclass(frozen=True)
class TrajectoryEnsemble:
    """Simulated states, shape (M, N+1, n), plus the noise that produced them."""

    states: np.ndarray = field(repr=False)
    grid: TimeGrid
    noise: NoiseBatch

    @property
    def num_paths(self) -> int:
        return self.states.shape[0]

    @property
    def terminal(self) -> np.ndarray:
        return self.states[:, -1, :]


@dataclass(frozen=True)
class VariationalEnsemble:
    """First-order state sensitivities z, shape (M, N+1, n); z_0 = 0."""

    z: np.ndarray = field(repr=False)


@dataclass(frozen=True)
class FundamentalPair:
    """Fundamental solution Phi of the linearized dynamics and its inverse Psi.

    Both have shape (M, N+1, n, n) with identity initial value.  Psi solves
    the Ito inverse equation; the product Psi Phi is monitored, not
    re-inverted, so its defect exposes the discretization error.
    """

    Phi: np.ndarray = field(repr=False)
    Psi: np.ndarray = field(repr=False)

    def inverse_defect(self) -> float:
        """max over paths and knots of || Psi_t Phi_t - I ||_F."""
        prod = np.matmul(self.Psi, self.Phi)
        eye = np.eye(prod.shape[-1])
        return float(np.sqrt(((prod - eye) ** 2).sum(axis=(-2, -1))).max())


def _cell_average(fn, t, x, atoms, weights):
    """Measure average sum_a w_a fn(t, x, a) over one cell's atoms."""
    total = None
    for atom, w in zip(atoms, weights):
        if w == 0.0:
            continue
        value = fn(t, x, atom)
        total = w * value if total is None else total + w * value
    return total


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


def _euler_block(spec: ProblemSpec, atoms, weights, eta: SingularControl,
                 grid: TimeGrid, dW: np.ndarray, start: int, x: np.ndarray):
    """Advance the time-major window x, shape (K+1, M, n), by K Euler steps
    from knot `start`, held in x[0], driven by the time-major increments dW,
    shape (K, M, d), of those steps; then check the K knots written for
    finiteness.  atoms and weights are the measures of the whole grid."""
    knots = grid.knots
    dt = grid.dt
    steps = range(start, start + len(dW))
    inc = eta.increments
    has_singular = bool(inc.any())
    for i, j in enumerate(steps):
        t = knots[j]
        xj = x[i]
        drift = _cell_average(spec.b, t, xj, atoms[j], weights[j])
        diff = _cell_average(spec.sigma, t, xj, atoms[j], weights[j])
        step = xj + drift * dt + np.einsum("...pj,...j->...p", diff, dW[i])
        if has_singular:
            step = step + spec.G(t) @ inc[j]
        x[i + 1] = step
    _check_finite([x[1:]], start + 1)


def _simulate(spec: ProblemSpec, atoms, weights, eta: SingularControl,
              grid: TimeGrid, noise: NoiseBatch) -> TrajectoryEnsemble:
    if noise.increments.shape[1:] != (grid.num_steps, spec.d):
        raise SimulationError("noise batch does not match the grid / noise dimension")
    x = ensemble_zeros(len(noise.increments), grid.num_steps + 1, spec.n)
    x[:, 0, :] = spec.x0
    windows = x.swapaxes(0, 1)
    dW = noise.increments.swapaxes(0, 1)
    for start in range(0, grid.num_steps, _BLOCK_KNOTS):
        stop = start + _BLOCK_KNOTS
        _euler_block(spec, atoms, weights, eta, grid, dW[start:stop], start,
                     windows[start:stop + 1])
    return TrajectoryEnsemble(x, grid, noise)


def _require_grid(grid: TimeGrid, *controls):
    for c in controls:
        if c.grid != grid:
            raise SimulationError(
                f"control defined on {c.grid.num_steps} steps does not match the "
                f"simulation grid of {grid.num_steps} steps"
            )


def _require_along(traj: TrajectoryEnsemble, *named):
    """Raise SimulationError unless each (name, array) pair was computed
    along traj: its leading axes are the ensemble's (paths, knots).  A None
    array (an adjoint pair without P) is skipped."""
    want = traj.states.shape[:2]
    for name, values in named:
        if values is not None and values.shape[:2] != want:
            raise SimulationError(
                f"{name} was computed along another ensemble: leading shape "
                f"{values.shape[:2]}, expected (paths, knots) = {want}"
            )


def simulate_strict(spec: ProblemSpec, v: StrictControl, eta: SingularControl,
                    grid: TimeGrid, noise: NoiseBatch) -> TrajectoryEnsemble:
    """Euler-Maruyama for the strictly controlled state equation."""
    _require_grid(grid, v, eta)
    q = dirac_embed(v)
    return _simulate(spec, q.atoms, q.weights, eta, grid, noise)


def simulate_relaxed(spec: ProblemSpec, q: RelaxedControl, eta: SingularControl,
                     grid: TimeGrid, noise: NoiseBatch) -> TrajectoryEnsemble:
    """Euler-Maruyama for the measure-controlled state equation.

    Drift and diffusion are replaced by their per-cell measure averages; a
    point-mass control reproduces simulate_strict bit for bit.
    """
    _require_grid(grid, q, eta)
    return _simulate(spec, q.atoms, q.weights, eta, grid, noise)


def simulate_variational(
    spec: ProblemSpec,
    base: tuple,
    direction: tuple,
    base_traj: TrajectoryEnsemble,
) -> VariationalEnsemble:
    """Simulate the first-order sensitivity z of the state to the perturbation
    moving `base` toward `direction`.

    The linearization runs along the base trajectory, on its grid and noise;
    the inhomogeneous terms carry the coefficient differences in the
    direction (direction - base), so (x_theta - x) / theta converges to z in
    mean square as theta -> 0.
    """
    mu, xi = base
    q, eta = direction
    grid = base_traj.grid
    _require_grid(grid, mu, xi, q, eta)
    M = base_traj.num_paths
    dt = grid.dt
    dW = base_traj.noise.increments
    knots = grid.knots
    dinc = eta.increments - xi.increments
    z = ensemble_zeros(M, grid.num_steps + 1, spec.n)
    for j in _checked_steps(grid.num_steps, z):
        t = knots[j]
        xj = base_traj.states[:, j, :]
        zj = z[:, j, :]
        bx = np.broadcast_to(
            _cell_average(spec.b_x, t, xj, mu.atoms[j], mu.weights[j]), (M, spec.n, spec.n)
        )
        sx = np.broadcast_to(
            _cell_average(spec.sigma_x, t, xj, mu.atoms[j], mu.weights[j]),
            (M, spec.d, spec.n, spec.n),
        )
        db = _cell_average(spec.b, t, xj, q.atoms[j], q.weights[j]) - _cell_average(
            spec.b, t, xj, mu.atoms[j], mu.weights[j]
        )
        ds = _cell_average(spec.sigma, t, xj, q.atoms[j], q.weights[j]) - _cell_average(
            spec.sigma, t, xj, mu.atoms[j], mu.weights[j]
        )
        ds = np.broadcast_to(ds, (M, spec.n, spec.d))
        z[:, j + 1, :] = (
            zj
            + (np.einsum("mpq,mq->mp", bx, zj) + db) * dt
            + np.einsum("mjpq,mq,mj->mp", sx, zj, dW[:, j, :])
            + np.einsum("mpj,mj->mp", ds, dW[:, j, :])
            + spec.G(t) @ dinc[j]
        )
    return VariationalEnsemble(z)


def fundamental_solutions(
    spec: ProblemSpec,
    pair: tuple,
    base_traj: TrajectoryEnsemble,
) -> FundamentalPair:
    """Euler-Maruyama for the fundamental matrix of the linearized dynamics
    and for its inverse.

    Phi solves dPhi = bx Phi dt + sx Phi dW along the base trajectory, on its
    grid and noise; the inverse solves the Ito equation
    dPsi = Psi (sum_i sx_i^2 - bx) dt - sum_i Psi sx_i dW_i, so Psi_t Phi_t
    stays within discretization error of the identity.
    """
    mu, _ = pair
    grid = base_traj.grid
    _require_grid(grid, *pair)
    M = base_traj.num_paths
    n = spec.n
    dt = grid.dt
    dW = base_traj.noise.increments
    knots = grid.knots
    eye = np.eye(n)
    Phi = ensemble_zeros(M, grid.num_steps + 1, n, n)
    Psi = ensemble_zeros(M, grid.num_steps + 1, n, n)
    Phi[:, 0] = eye
    Psi[:, 0] = eye
    for j in _checked_steps(grid.num_steps, Phi, Psi):
        t = knots[j]
        xj = base_traj.states[:, j, :]
        bx = _cell_average(spec.b_x, t, xj, mu.atoms[j], mu.weights[j])
        # bx (n, n) and sx (d, n, n) may be shared by all paths or given per path
        sx = _cell_average(spec.sigma_x, t, xj, mu.atoms[j], mu.weights[j])
        sx_sq = np.matmul(sx, sx).sum(axis=-3)
        # S = sum_i sx_i dW_i, one (n, n) noise matrix per path
        S = np.matmul(dW[:, j, None, :], sx.reshape(*sx.shape[:-2], n * n)).reshape(M, n, n)
        Pj = Phi[:, j]
        Qj = Psi[:, j]
        np.matmul(bx * dt + S, Pj, out=Phi[:, j + 1])
        Phi[:, j + 1] += Pj
        np.matmul(Qj, (sx_sq - bx) * dt - S, out=Psi[:, j + 1])
        Psi[:, j + 1] += Qj
    return FundamentalPair(Phi, Psi)


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
        return {
            "value": self.value,
            "std_error": self.std_error,
            "terminal": self.terminal,
            "running": self.running,
            "singular": self.singular,
            "num_paths": self.num_paths,
        }


def _std_error(values: np.ndarray) -> float:
    """Standard error of the mean of per-path values; 0 for a single path."""
    M = len(values)
    return float(values.std(ddof=1) / np.sqrt(M)) if M > 1 else 0.0


def _running_block(spec: ProblemSpec, t, x, atoms, weights) -> np.ndarray:
    """Per-path running cost summed over the K knots of a block,
    sum_j sum_a w_ja h(t_j, x_j, a), shape (M,).

    t has shape (K, 1), x (K, M, n), atoms (K, A, k) and weights (K, A).  h
    is called once per distinct atom of positive weight, with the whole
    block, and its values are contracted with that atom's per-knot weight.
    """
    K, M = x.shape[:2]
    total = np.zeros(M)
    for atom in np.unique(atoms[weights > 0], axis=0):
        w = np.where((atoms == atom).all(axis=-1), weights, 0.0).sum(axis=1)
        total += w @ np.broadcast_to(spec.h(t, x, atom), (K, M))
    return total


def _cost_terms(spec: ProblemSpec, traj: TrajectoryEnsemble, control,
                eta: SingularControl) -> tuple:
    """Per-path terminal cost g(x_T) and left-endpoint running quadrature,
    both (M,), and the singular quadrature sum_j k(t_j) . delta_eta_j."""
    grid = traj.grid
    mu = as_relaxed(control)
    _require_grid(grid, mu, eta)
    knots = grid.knots
    M = traj.num_paths
    x = traj.states.swapaxes(0, 1)
    running = np.zeros(M)
    for start in range(0, grid.num_steps, _BLOCK_KNOTS):
        block = slice(start, min(start + _BLOCK_KNOTS, grid.num_steps))
        running += _running_block(
            spec, knots[block, None], x[block], mu.atoms[block], mu.weights[block]
        )
    running *= grid.dt
    singular = float(
        sum(spec.k_cost(knots[j]) @ eta.increments[j] for j in range(grid.num_steps))
    )
    terminal = np.broadcast_to(np.asarray(spec.g(traj.terminal), dtype=float), (M,))
    return terminal, running, singular


def per_path_cost(spec: ProblemSpec, traj: TrajectoryEnsemble, control,
                  eta: SingularControl) -> np.ndarray:
    """Per-path total cost: terminal + left-endpoint running quadrature +
    singular quadrature sum_j k(t_j) . delta_eta_j."""
    terminal, running, singular = _cost_terms(spec, traj, control, eta)
    return terminal + running + singular


def estimate_cost(spec: ProblemSpec, traj: TrajectoryEnsemble, control,
                  eta: SingularControl) -> CostEstimate:
    """Monte Carlo estimate of the expected cost of (control, eta)."""
    terminal, running, singular = _cost_terms(spec, traj, control, eta)
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
    """
    qn = regrid_relaxed(q, n)
    un = chattering(qn, n)
    refined = un.grid
    q_ref = regrid_relaxed(q, refined.num_steps)
    eta_ref = regrid_singular(eta, refined.num_steps)
    noise = NoiseStream(num_paths, refined, spec.d, (seed, n))
    _require_grid(refined, un, q_ref, eta_ref)
    strict = dirac_embed(un)
    measures = ((strict.atoms, strict.weights), (q_ref.atoms, q_ref.weights))
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
        for (atoms, weights), x, acc in zip(measures, windows, running):
            _euler_block(spec, atoms, weights, eta_ref, refined, dW[offset:offset + K],
                         start, x[:K + 1])
            acc += _running_block(
                spec, knots[start:stop, None], x[:K], atoms[start:stop], weights[start:stop]
            )
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
