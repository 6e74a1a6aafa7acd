"""First-order adjoint processes by two independent numerical routes.

The adjoint pair (p, P) prices state perturbations.  Route one is the
pathwise discrete adjoint (Giles & Glasserman 2006): per path, the exact
derivative of the Euler cost with respect to the state at each knot, swept
back from g_x(x_T) through the transposes J_j^T of the one-step Jacobians
of sde._linearization, which also carry the variational equation and the
fundamental pair forward, then projected on the time-t state; it gives p
only.  Route two sweeps the linear backward SDE with terminal value
g_x(x_T), estimating the martingale integrand P and the drift by
least-squares projection on a polynomial basis in the current state
(Longstaff-Schwartz style).  The two routes cross-validate each other;
agreement tolerances are part of the test-suite.

Conditional expectations given the time-t state are projections on one
basis per knot (Gobet, Lemor & Warin 2005): each state component is centred
and scaled over the paths (a component that takes one value on every path,
as at knot 0 or in a deterministic problem, is dropped), its monomials are
built by polynomial_features, and one thin QR factor gives an orthonormal
basis Q of their span.  Every target fitted at that knot is projected as
Q (Q^T y), so the fitted values are those of least squares on the raw
monomials, without refactoring per target and without the loss of digits of
raw monomials far from the origin.  A zero target fits exactly zero, and
with every component dropped the basis is the constant alone and the
projection is the path mean.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations_with_replacement
from math import comb

import numpy as np

from .controls import as_relaxed
from .model import ensemble_zeros
from .optimality import relaxed_hamiltonian_batch, relaxed_hamiltonian_gradient
from .sde import (
    FundamentalPair,
    TrajectoryEnsemble,
    _linearization,
    _require_along,
    _require_controls,
    _std_error,
    fundamental_solutions,
    simulate_variational,
)


class RegressionError(RuntimeError):
    """Raised when a conditional-expectation regression is unusable."""


def polynomial_features(x: np.ndarray, degree: int) -> np.ndarray:
    """Monomial features of total degree <= degree in the state, shape (M, F).

    Each monomial is the one without its last factor times that factor, so
    its factors multiply left to right.  The columns are contiguous (the
    array is Fortran-ordered), as LAPACK reads them.
    """
    M, n = x.shape
    combos = [()] + [combo for deg in range(1, degree + 1)
                     for combo in combinations_with_replacement(range(n), deg)]
    rows = {(): 0}
    out = np.empty((len(combos), M))
    out[0] = 1.0
    for k, combo in enumerate(combos[1:], 1):
        np.multiply(out[rows[combo[:-1]]], x[:, combo[-1]], out=out[k])
        rows[combo] = k
    return out.T


@dataclass(frozen=True, eq=False)
class RegressionBasis:
    """An orthonormal basis q (M, rank) of the polynomial features of the
    state at one knot; rank_loss counts the features lost to collinear
    components and cond is the condition number of the retained ones."""

    q: np.ndarray = field(repr=False)
    rank_loss: int
    cond: float


def regression_basis(x: np.ndarray, degree: int) -> RegressionBasis:
    """The basis of the monomials of total degree <= degree in the state x
    (M, n), centred and scaled per component over the paths.

    A component that takes one value on every path is dropped: the constant
    covers it.  One thin QR factors the features, and the singular values
    of the small factor R, which are the features' own, give the rank by
    lstsq's rule (above eps * max(M, F) times the largest) and the
    condition number of the retained part.  On rank loss (collinear
    components) Q is rotated onto the retained singular vectors of R, so
    the projection gives lstsq's minimum-norm fitted values.  Raises
    RegressionError when there are fewer paths than basis functions or
    the features are not finite.
    """
    M, n = x.shape
    size = comb(n + degree, degree)
    if M < size:
        raise RegressionError(
            f"regression needs at least {size} paths for {size} basis functions, got {M}; "
            "reduce the basis degree or increase the number of paths"
        )
    # one contiguous row per component: numpy reduces an (M, n) array along
    # its paths several times slower than n rows of M
    rows = np.ascontiguousarray(x.T)
    centre = rows.mean(axis=1)
    # exact: a rounded mean leaves a constant component a tiny nonzero deviation;
    # a NaN compares unequal and an infinite first path is kept, so both are refused below
    varying = (rows.max(axis=1) != rows.min(axis=1)) | ~np.isfinite(rows[:, 0])
    if not varying.all():
        rows, centre = rows[varying], centre[varying]
    dev = rows - centre[:, None]
    dev /= np.sqrt(np.mean(dev * dev, axis=1))[:, None]
    feats = polynomial_features(dev.T, degree)
    q, r = np.linalg.qr(feats)
    if not np.all(np.isfinite(r)):
        raise RegressionError(
            "regression produced non-finite features from the state; reduce the basis "
            "degree or check the problem's coefficients for overflow"
        )
    u, s, _ = np.linalg.svd(r)
    rank = int(np.count_nonzero(s > np.finfo(float).eps * max(feats.shape) * s[0]))
    if rank == len(s):
        return RegressionBasis(q, 0, float(s[0] / s[-1]))
    return RegressionBasis(q @ u[:, :rank], len(s) - rank, float(s[0] / s[rank - 1]))


def fit_conditional(basis: RegressionBasis, targets: np.ndarray) -> np.ndarray:
    """Project targets on the basis of one knot; returns fitted values.

    targets may be (M,) or (M, ...) (each trailing component is projected
    separately).  Raises RegressionError when the projection is not finite;
    reduce the basis degree or add paths in that case.
    """
    q = basis.q
    flat = targets.reshape(len(q), -1)
    coeff = q.T @ flat
    if not np.all(np.isfinite(coeff)):
        raise RegressionError(
            "regression produced non-finite coefficients; reduce the basis degree "
            "or increase the number of paths"
        )
    return (q @ coeff).reshape(targets.shape)


@dataclass(frozen=True, eq=False)
class AdjointPair:
    """Adjoint estimates p (M, N+1, n) and P (M, N+1, n, d) along the
    ensemble traj, stored time-major (model.ensemble_zeros).

    P is None on the explicit route, which produces p only, and the
    optimality checks refuse such a pair.  (martingale_route_P is no
    substitute when sigma_x != 0: its auxiliary martingale then misses the
    stochastic exponential in Phi.)  By convention P[:, N] = 0: no
    Brownian exposure remains at the horizon.
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
            raise ValueError("an adjoint pair of the explicit route has no P; use adjoint_bsde")
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
    grid = traj.grid
    prefix = ensemble_zeros(traj.num_paths, grid.num_steps + 1, traj.spec.n)
    terms = prefix[:, 1:, :]
    for j in range(grid.num_steps):
        hx, _, _ = _linearization(traj, j)
        terms[:, j, :] = _transpose_apply(fund.Phi[:, j], hx)
    terms *= grid.dt
    np.cumsum(terms, axis=1, out=terms)
    return prefix


def _knot_health(basis: RegressionBasis, target: np.ndarray, fitted: np.ndarray) -> tuple:
    """(residual rms, rank loss, cond) of the fit of p at one knot."""
    return float(np.sqrt(np.mean((target - fitted) ** 2))), basis.rank_loss, basis.cond


def _diagnostics(degree: int, n: int, health: list) -> dict:
    """A route's diagnostics: its basis and the worst of its knots' health."""
    residual, loss, cond = zip(*health)
    return {"basis_degree": degree, "basis_size": comb(n + degree, degree),
            "max_residual_rms": max(residual), "max_rank_loss": max(loss),
            "max_basis_cond": max(cond)}


def adjoint_explicit(traj: TrajectoryEnsemble, degree: int = 2) -> AdjointPair:
    """Adjoint p from the pathwise discrete adjoint along the ensemble.

    Per path, lam_j is the derivative of the Euler cost with respect to x_j:
    lam_N = g_x(x_N) and, stepping back through the transposed Euler
    Jacobians of the state (sde._linearization),
    lam_j = J_j^T lam_{j+1} + hbar_x(t_j) dt.  lam_j depends on x_j and the
    noise after t_j only, so p_j is its regression on the basis in x_j.  At
    the horizon p equals g_x(x_T) exactly, per path.
    """
    spec = traj.spec
    grid = traj.grid
    N = grid.num_steps
    p = ensemble_zeros(traj.num_paths, N + 1, spec.n)
    lam = _terminal_gradient(traj)
    p[:, N, :] = lam
    health = []
    for j in range(N - 1, -1, -1):
        xj = traj.states[:, j, :]
        hx, J, _ = _linearization(traj, j)
        lam = _transpose_apply(J, lam) + hx * grid.dt
        basis = regression_basis(xj, degree)
        p[:, j, :] = fit_conditional(basis, lam)
        health.append(_knot_health(basis, lam, p[:, j, :]))
    diags = _diagnostics(degree, spec.n, health)
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
    health = []
    for j in range(N - 1, -1, -1):
        xj = traj.states[:, j, :]
        basis = regression_basis(xj, degree)
        p_next = p[:, j + 1, :]
        p_proj = fit_conditional(basis, p_next)
        mart = np.einsum("mp,mj->mpj", p_next - p_proj, dW[:, j, :]) / dt
        P[:, j] = fit_conditional(basis, mart)
        hx = relaxed_hamiltonian_gradient(spec, knots[j], xj, mu, j, p_next, P[:, j])
        target = p_next + hx * dt
        fitted = fit_conditional(basis, target)
        health.append(_knot_health(basis, target, fitted))
        p[:, j, :] = fitted
    diags = _diagnostics(degree, spec.n, health)
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
    prefix = _grad_sums(fund)
    X = _transpose_apply(fund.Phi[:, N], _terminal_gradient(traj)) + prefix[:, N, :]
    # martingale E[X | F_t]: the accumulated part of X is known pathwise at
    # time t; only the remaining tail is a function of the Markov state and
    # goes through the regression.  Exact at the horizon, so one backward
    # sweep fits mart[j] and then Q[j] from mart[j + 1] on the same features.
    mart = ensemble_zeros(M, N + 1, spec.n)
    mart[:, N, :] = X
    Q = ensemble_zeros(M, N, spec.n, spec.d)
    for j in range(N - 1, -1, -1):
        basis = regression_basis(traj.states[:, j, :], degree)
        mart[:, j, :] = prefix[:, j, :] + fit_conditional(basis, X - prefix[:, j, :])
        incr = np.einsum("mp,mj->mpj", mart[:, j + 1, :] - mart[:, j, :], dW[:, j, :]) / dt
        Q[:, j] = fit_conditional(basis, incr)
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
    spec = traj.spec
    N = traj.grid.num_steps
    P = ensemble_zeros(traj.num_paths, N + 1, spec.n, spec.d)
    for j in range(N):
        _, _, sx = _linearization(traj, j)
        P[:, j] = np.einsum("mqp,mqj->mpj", fund.Psi[:, j], aux.Q[:, j]) - np.einsum(
            "...jqp,...q->...pj", sx, adjoint.p[:, j, :]
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
