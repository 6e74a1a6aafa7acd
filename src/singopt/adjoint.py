"""First-order adjoint processes by two independent numerical routes.

The adjoint pair (p, P) prices state perturbations.  Route one evaluates the
explicit conditional-expectation formula: p_t is the time-t conditional
expectation of the terminal-gradient term transported by the fundamental
solution pair plus the accumulated running-cost gradient.  Route two sweeps
the linear backward SDE with terminal value g_x(x_T), estimating the
martingale integrand P and the drift by least-squares projection on a
polynomial basis in the current state (Longstaff-Schwartz style).  The two
routes cross-validate each other; agreement tolerances are part of the
test-suite.

Conditional expectations given the time-t state are least-squares
regressions; a regression of an identically-zero target returns exactly
zero, and a constant state column (deterministic problems) reduces the
projection to the plain mean.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations_with_replacement

import numpy as np

from .controls import as_relaxed
from .model import ensemble_zeros
from .optimality import relaxed_hamiltonian_batch, relaxed_hamiltonian_gradient
from .sde import (
    FundamentalPair,
    TrajectoryEnsemble,
    _require_along,
    _require_controls,
    _std_error,
    fundamental_solutions,
    simulate_variational,
)


class RegressionError(RuntimeError):
    """Raised when a conditional-expectation regression is unusable."""


def polynomial_features(x: np.ndarray, degree: int) -> np.ndarray:
    """Monomial features of total degree <= degree in the state, shape (M, F)."""
    M, n = x.shape
    cols = [np.ones(M)]
    for deg in range(1, degree + 1):
        for combo in combinations_with_replacement(range(n), deg):
            col = np.ones(M)
            for idx in combo:
                col = col * x[:, idx]
            cols.append(col)
    return np.column_stack(cols)


def fit_conditional(features: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Project targets onto the feature span; returns fitted values.

    targets may be (M,) or (M, ...) (each trailing component is regressed
    separately).  Raises RegressionError when there are fewer paths than
    basis functions or the solve produces non-finite coefficients; reduce
    the basis degree or add paths in that case.
    """
    M, F = features.shape
    if M < F:
        raise RegressionError(
            f"regression needs at least {F} paths for {F} basis functions, got {M}; "
            "reduce the basis degree or increase the number of paths"
        )
    flat = targets.reshape(M, -1)
    coeff, *_ = np.linalg.lstsq(features, flat, rcond=None)
    if not np.all(np.isfinite(coeff)):
        raise RegressionError(
            "regression produced non-finite coefficients; reduce the basis degree "
            "or increase the number of paths"
        )
    return (features @ coeff).reshape(targets.shape)


@dataclass(frozen=True, eq=False)
class AdjointPair:
    """Adjoint estimates p (M, N+1, n) and P (M, N+1, n, d) along the
    ensemble traj, stored time-major (model.ensemble_zeros).

    P is None on the explicit route (that route produces p only; P can be
    recovered from the martingale integrand, see martingale_route_P), and
    the optimality checks refuse such a pair.  By
    convention P[:, N] = 0: no Brownian exposure remains at the horizon.
    """

    p: np.ndarray = field(repr=False)
    P: np.ndarray | None = field(repr=False)
    method: str
    diagnostics: dict
    traj: TrajectoryEnsemble = field(repr=False)

    def require_P(self) -> np.ndarray:
        """P; a pair without P (the explicit route) raises ValueError,
        since P = 0 would misprice a control that enters the diffusion."""
        if self.P is None:
            raise ValueError("an adjoint pair of the explicit route has no P; use adjoint_bsde, "
                             "or attach the P of martingale_route_P")
        return self.P


@dataclass(frozen=True, eq=False)
class AuxiliaryProcesses:
    """The terminal functional X, the compensated martingale Y and the
    martingale integrand estimate Q along the ensemble traj; the ensembles
    are stored time-major (model.ensemble_zeros)."""

    X: np.ndarray = field(repr=False)      # (M, n)
    Y: np.ndarray = field(repr=False)      # (M, N+1, n)
    Q: np.ndarray = field(repr=False)      # (M, N, n, d)
    traj: TrajectoryEnsemble = field(repr=False)


def _transpose_apply(mats: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """(mats^T vecs) per path: mats (M, n, n), vecs (M, n) -> (M, n)."""
    return np.einsum("mqp,mq->mp", mats, vecs)


def _terminal_gradient(traj: TrajectoryEnsemble) -> np.ndarray:
    """g_x(x_T) per path, (M, n)."""
    spec = traj.spec
    return np.broadcast_to(np.asarray(spec.g_x(traj.terminal), dtype=float),
                           (traj.num_paths, spec.n))


def _grad_sums(fund: FundamentalPair) -> np.ndarray:
    """Prefix sums of Phi_s^* hbar_x(s) ds along fund's ensemble
    (left-endpoint rule), (M, N+1, n) with prefix_0 = 0.  The terms are
    written into the prefix array and summed there in place."""
    traj = fund.traj
    spec, mu = traj.spec, traj.control
    grid = traj.grid
    M = traj.num_paths
    knots = grid.knots
    prefix = ensemble_zeros(M, grid.num_steps + 1, spec.n)
    terms = prefix[:, 1:, :]
    for j in range(grid.num_steps):
        hx = np.broadcast_to(mu.average(spec.h_x, j, knots[j], traj.states[:, j, :]), (M, spec.n))
        terms[:, j, :] = _transpose_apply(fund.Phi[:, j], hx)
    terms *= grid.dt
    np.cumsum(terms, axis=1, out=terms)
    return prefix


def _tail_fits(fund: FundamentalPair, degree: int):
    """The terminal functional X = head + prefix_N, with
    head = Phi_N^* g_x(x_T) and prefix the _grad_sums, and its regressions.

    Returns (head, prefix, fits); fits yields, for j = N-1, ..., 0,
    (j, features, tail, fitted): the part of X not yet accumulated at time
    j, tail = head + (prefix_N - prefix_j), the polynomial features of x_j
    and the regression of tail on them.
    """
    traj = fund.traj
    N = traj.grid.num_steps
    head = _transpose_apply(fund.Phi[:, N], _terminal_gradient(traj))
    prefix = _grad_sums(fund)

    def fits():
        for j in range(N - 1, -1, -1):
            feats = polynomial_features(traj.states[:, j, :], degree)
            tail = head + (prefix[:, N, :] - prefix[:, j, :])
            yield j, feats, tail, fit_conditional(feats, tail)

    return head, prefix, fits()


def adjoint_explicit(fund: FundamentalPair, degree: int = 2) -> AdjointPair:
    """Adjoint p from the explicit conditional-expectation representation,
    along fund's ensemble.

    For each knot, the inner random variable Phi_T^* g_x(x_T) plus the
    remaining running-cost gradient integral is regressed on the polynomial
    basis in the time-t state, then transported by Psi_t^*.  At the horizon
    p equals g_x(x_T) exactly, per path.
    """
    traj = fund.traj
    M = traj.num_paths
    N = traj.grid.num_steps
    p = ensemble_zeros(M, N + 1, traj.spec.n)
    p[:, N, :] = _terminal_gradient(traj)
    _, _, fits = _tail_fits(fund, degree)
    worst = 0.0
    for j, feats, tail, fitted in fits:
        worst = max(worst, float(np.sqrt(np.mean((tail - fitted) ** 2))))
        p[:, j, :] = _transpose_apply(fund.Psi[:, j], fitted)
    diags = {"basis_degree": degree, "basis_size": feats.shape[1], "max_residual_rms": worst}
    return AdjointPair(p=p, P=None, method="explicit", diagnostics=diags, traj=traj)


def adjoint_bsde(traj: TrajectoryEnsemble, degree: int = 2) -> AdjointPair:
    """Adjoint pair (p, P) from a backward regression sweep of the linear
    backward SDE with terminal value g_x(x_T), along the ensemble.

    Per backward step, P_j is the regression of the martingale part of
    p_{j+1} against the Brownian increment (the time-j projection of p_{j+1}
    is subtracted first; this leaves the estimand unchanged because the
    increment has zero conditional mean, and removes most of the variance),
    and p_j is the regression of p_{j+1} plus the Hamiltonian-gradient drift
    evaluated at p_{j+1} (explicit backward Euler).
    """
    spec, mu = traj.spec, traj.control
    grid = traj.grid
    M = traj.num_paths
    N = grid.num_steps
    dt = grid.dt
    dW = traj.noise.increments
    knots = grid.knots
    p = ensemble_zeros(M, N + 1, spec.n)
    P = ensemble_zeros(M, N + 1, spec.n, spec.d)
    p[:, N, :] = _terminal_gradient(traj)
    worst = 0.0
    for j in range(N - 1, -1, -1):
        xj = traj.states[:, j, :]
        feats = polynomial_features(xj, degree)
        p_next = p[:, j + 1, :]
        p_proj = fit_conditional(feats, p_next)
        mart = np.einsum("mp,mj->mpj", p_next - p_proj, dW[:, j, :]) / dt
        P[:, j] = fit_conditional(feats, mart)
        hx = relaxed_hamiltonian_gradient(spec, knots[j], xj, mu, j, p_next, P[:, j])
        target = p_next + hx * dt
        fitted = fit_conditional(feats, target)
        worst = max(worst, float(np.sqrt(np.mean((target - fitted) ** 2))))
        p[:, j, :] = fitted
    diags = {"basis_degree": degree, "basis_size": feats.shape[1], "max_residual_rms": worst}
    return AdjointPair(p=p, P=P, method="bsde-regression", diagnostics=diags, traj=traj)


# ---------------------------------------------------------------------------
# auxiliary processes and the duality identity
# ---------------------------------------------------------------------------

def auxiliary_processes(fund: FundamentalPair, degree: int = 2) -> AuxiliaryProcesses:
    """The terminal functional X, the compensated conditional expectation Y,
    and the martingale integrand Q, along the ensemble of fund.

    Y uses regressions for the interior knots and the exact identity
    Y_T = X - (full gradient integral) at the horizon.  Q regresses the
    discrete martingale increments against the Brownian increments.
    """
    traj = fund.traj
    spec = traj.spec
    M = traj.num_paths
    N = traj.grid.num_steps
    dt = traj.grid.dt
    dW = traj.noise.increments
    head, prefix, fits = _tail_fits(fund, degree)
    X = head + prefix[:, N, :]
    # martingale E[X | F_t]: the accumulated part of X is known pathwise at
    # time t; only the remaining tail is a function of the Markov state and
    # goes through the regression.  Exact at the horizon, so one backward
    # sweep fits mart[j] and then Q[j] from mart[j + 1] on the same features.
    mart = ensemble_zeros(M, N + 1, spec.n)
    mart[:, N, :] = X
    Q = ensemble_zeros(M, N, spec.n, spec.d)
    for j, feats, _, fitted in fits:
        mart[:, j, :] = prefix[:, j, :] + fitted
        incr = np.einsum("mp,mj->mpj", mart[:, j + 1, :] - mart[:, j, :], dW[:, j, :]) / dt
        Q[:, j] = fit_conditional(feats, incr)
    Y = mart - prefix
    return AuxiliaryProcesses(X=X, Y=Y, Q=Q, traj=traj)


def martingale_route_P(
    fund: FundamentalPair,
    aux: AuxiliaryProcesses,
    adjoint: AdjointPair,
) -> np.ndarray:
    """Reconstruct P from the martingale integrand: P = Psi^* Q - sbar_x^* p,
    with p of the adjoint pair; all three inputs along one ensemble.

    Returns an (M, N+1, n, d) array with the terminal slice zero, providing
    the cross-check route against the backward-sweep estimate.
    """
    traj = fund.traj
    _require_along(traj, ("aux", aux), ("adjoint", adjoint))
    spec, mu = traj.spec, traj.control
    M = traj.num_paths
    N = traj.grid.num_steps
    knots = traj.grid.knots
    P = ensemble_zeros(M, N + 1, spec.n, spec.d)
    for j in range(N):
        xj = traj.states[:, j, :]
        sx = np.broadcast_to(mu.average(spec.sigma_x, j, knots[j], xj), (M, spec.d, spec.n, spec.n))
        P[:, j] = np.einsum("mqp,mqj->mpj", fund.Psi[:, j], aux.Q[:, j]) - np.einsum(
            "mjqp,mq->mpj", sx, adjoint.p[:, j, :]
        )
    return P


def duality_residual(traj: TrajectoryEnsemble, direction: tuple) -> tuple:
    """Monte Carlo residual of the duality identity E[alpha_T . Y_T] =
    E[g_x(x_T) . z_T], with the standard error of the per-path difference.

    All ingredients are computed along the ensemble, on its noise, for the
    perturbation of its controls toward direction.  Y_T uses the exact
    horizon identity, so the residual isolates transport error of the
    fundamental pair rather than regression noise.
    """
    z = simulate_variational(traj, direction)
    fund = fundamental_solutions(traj)
    N = traj.grid.num_steps
    gx_T = _terminal_gradient(traj)
    alpha_T = np.einsum("mpq,mq->mp", fund.Psi[:, N], z.z[:, N, :])
    Y_T = _transpose_apply(fund.Phi[:, N], gx_T)
    per_path = np.einsum("mp,mp->m", alpha_T, Y_T) - np.einsum("mp,mp->m", gx_T, z.z[:, N, :])
    return abs(float(per_path.mean())), _std_error(per_path)


def variational_inequality_value(adjoint: AdjointPair, direction: tuple) -> tuple:
    """Monte Carlo estimate (value, standard error) of the first-order
    optimality functional at the controls of the adjoint's ensemble: the
    Hamiltonian difference toward the direction measure plus the singular
    slack paired with the increment difference.

    At an optimal base the value is nonnegative up to Monte Carlo and
    discretization error, for every direction.  A strict direction control
    plays its point masses (controls.as_relaxed).  A pair without P (the
    explicit route) raises ValueError (see AdjointPair.require_P).
    """
    traj = adjoint.traj
    spec, mu, xi = traj.spec, traj.control, traj.singular
    q, eta = direction
    q = as_relaxed(q)
    grid = traj.grid
    _require_controls(spec, grid, q, eta)
    M = traj.num_paths
    dt = grid.dt
    knots = grid.knots
    P = adjoint.require_P()
    per_path = np.zeros(M)
    dinc = eta.increments - xi.increments
    for j in range(grid.num_steps):
        xj = traj.states[:, j, :]
        pj = adjoint.p[:, j, :]
        Pj = P[:, j]
        h_dir = relaxed_hamiltonian_batch(spec, knots[j], xj, q, j, pj, Pj)
        h_base = relaxed_hamiltonian_batch(spec, knots[j], xj, mu, j, pj, Pj)
        slack = spec.k_cost(knots[j]) + np.einsum("pq,mp->mq", spec.G(knots[j]), pj)
        per_path += (h_dir - h_base) * dt + slack @ dinc[j]
    return float(per_path.mean()), _std_error(per_path)
