"""First-order adjoint processes by two independent numerical routes.

The adjoint pair (p, P) prices state perturbations.  Route one is the
pathwise discrete adjoint (Giles & Glasserman 2006): per path, the exact
derivative of the Euler cost with respect to the state at each knot, swept
back from g_x(x_T) through the transposed one-step Jacobians J_j^T, then
projected on the time-t state; it gives p only.  Route two sweeps the
linear backward SDE with terminal value g_x(x_T), estimating the
martingale integrand P and the drift by projection on a polynomial basis
in the current state (Longstaff-Schwartz style).  Both read the state
gradients' cell averages from sde._Linearization; adjoint_routes sweeps the
two together, on one basis and one linearization per knot, and their
agreement cross-validates them (tolerances in the test-suite).

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
from .optimality import relaxed_hamiltonian_batch
from .sde import (
    TrajectoryEnsemble,
    _Linearization,
    _fundamental_steps,
    _require_controls,
    _std_error,
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

    P is None on the explicit route (the first pair of adjoint_routes),
    which produces p only, and the optimality checks refuse such a pair.
    By convention P[:, N] = 0: no Brownian exposure remains at the horizon.
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

    def knots(self):
        """(j, p_j, P_j) from knot N-1 down to 0, as the sweep produced them."""
        P = self.require_P()
        for j in range(self.traj.grid.num_steps - 1, -1, -1):
            yield j, self.p[:, j, :], P[:, j]


@dataclass(frozen=True, eq=False)
class BackwardSweep:
    """adjoint_bsde's sweep along traj, run anew by each knots() and not
    stored, for checks that read each knot once (optimality.verify_necessary)."""

    traj: TrajectoryEnsemble = field(repr=False)
    degree: int = 2

    def knots(self):
        """(j, p_j, P_j, health) from knot N-1 down to 0, bit for bit those of
        adjoint_bsde(traj, degree); only p_{j+1} is held between knots."""
        p = np.array(_terminal_gradient(self.traj))
        for basis, lin in _backward_knots(self.traj, self.degree):
            p, P, health = _bsde_step(basis, lin, p)
            yield lin.j, p, P, health


def _transpose_apply(mats: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """(mats^T vecs) per path: mats (M, n, n), vecs (M, n) -> (M, n)."""
    return np.einsum("mqp,mq->mp", mats, vecs)


def _terminal_gradient(traj: TrajectoryEnsemble) -> np.ndarray:
    """g_x(x_T) per path, (M, n)."""
    spec = traj.spec
    return np.broadcast_to(np.asarray(spec.g_x(traj.terminal), dtype=float),
                           (traj.num_paths, spec.n))


def _knot_health(basis: RegressionBasis, target: np.ndarray, fitted: np.ndarray) -> tuple:
    """(residual rms, rank loss, cond) of the fit of p at one knot."""
    return float(np.sqrt(np.mean((target - fitted) ** 2))), basis.rank_loss, basis.cond


def _diffusion_gradient(sx, P):
    """sum_i sbar_x,i^T P_i over a path batch -> (M, n), for sx (d, n, n) or
    (M, d, n, n) and P (M, n, d), summed channel by channel and row by row:
    the order of the einsum "mjqp,mqj->mp" on sx broadcast to (M, d, n, n),
    bit for bit except with n = 1 and d >= 3, where einsum sums the
    channels in two interleaved lanes and the last bits differ."""
    M, n, d = P.shape
    total = np.zeros((M, n))
    for i in range(d):
        for r in range(n):
            total += P[:, r, i, None] * sx[..., i, r, :]
    return total


def _backward_knots(traj: TrajectoryEnsemble, degree: int):
    """Knots N-1 down to 0 as (regression basis in x_j, linearization), one of each."""
    for j in range(traj.grid.num_steps - 1, -1, -1):
        yield regression_basis(traj.states[:, j, :], degree), _Linearization(traj, j)


def _bsde_step(basis: RegressionBasis, lin: _Linearization, p_next: np.ndarray) -> tuple:
    """adjoint_bsde's step from p_{j+1} to knot j = lin.j, with H_x = hbar_x
    + bbar_x^T p_{j+1} + sum_i sbar_x,i^T P_j,i; returns (p_j, P_j, health)."""
    dt = lin.traj.grid.dt
    p_proj = fit_conditional(basis, p_next)
    mart = np.einsum("mp,mj->mpj", p_next - p_proj, lin.traj.noise.increments[:, lin.j, :]) / dt
    P = fit_conditional(basis, mart)
    bx = np.broadcast_to(lin.bx, p_next.shape + p_next.shape[-1:])
    hx = lin.hx + np.einsum("mqp,mq->mp", bx, p_next) + _diffusion_gradient(lin.sx, P)
    target = p_next + hx * dt
    p = fit_conditional(basis, target)
    return p, P, _knot_health(basis, target, p)


def _pair(traj: TrajectoryEnsemble, degree: int, p, P, method: str, health: list) -> AdjointPair:
    """A route's pair, diagnosed by its basis and the worst of its knots' health."""
    residual, loss, cond = zip(*health)
    diags = {"basis_degree": degree, "basis_size": comb(traj.spec.n + degree, degree),
             "max_residual_rms": max(residual), "max_rank_loss": max(loss),
             "max_basis_cond": max(cond)}
    return AdjointPair(p=p, P=P, method=method, diagnostics=diags, traj=traj)


def adjoint_routes(traj: TrajectoryEnsemble, degree: int = 2) -> tuple:
    """The adjoint along the ensemble by both routes, (explicit, bsde), from
    one backward sweep that builds one regression basis in x_j and one
    linearization per knot; bsde is adjoint_bsde(traj, degree), bit for bit.

    explicit holds p only (P is None): per path, lam_N = g_x(x_N) and
    lam_j = J_j^T lam_{j+1} + hbar_x dt is the derivative of the Euler cost
    with respect to x_j.  It depends on x_j and the noise after t_j only, so
    p_j is its projection on the basis in x_j; p_N = g_x(x_T) exactly.
    """
    spec, M, N = traj.spec, traj.num_paths, traj.grid.num_steps
    p_lam, p = ensemble_zeros(M, N + 1, spec.n), ensemble_zeros(M, N + 1, spec.n)
    P = ensemble_zeros(M, N + 1, spec.n, spec.d)
    lam = p_lam[:, N, :] = p[:, N, :] = _terminal_gradient(traj)
    explicit_health, bsde_health = [], []
    for basis, lin in _backward_knots(traj, degree):
        lam = _transpose_apply(lin.jacobian, lam) + lin.hx * traj.grid.dt
        p_lam[:, lin.j, :] = fit_conditional(basis, lam)
        explicit_health.append(_knot_health(basis, lam, p_lam[:, lin.j, :]))
        p[:, lin.j, :], P[:, lin.j], health = _bsde_step(basis, lin, p[:, lin.j + 1, :])
        bsde_health.append(health)
    return (_pair(traj, degree, p_lam, None, "explicit", explicit_health),
            _pair(traj, degree, p, P, "bsde-regression", bsde_health))


def adjoint_bsde(traj: TrajectoryEnsemble, degree: int = 2) -> AdjointPair:
    """Adjoint pair (p, P) from a backward regression sweep of the linear
    backward SDE with terminal value g_x(x_T), along the ensemble.

    Per backward step, P_j projects the martingale part of p_{j+1} (less its
    time-j projection, which leaves the estimand unchanged, as the increment
    has zero conditional mean, and removes most of the variance) times the
    Brownian increment over dt, and p_j projects p_{j+1} plus the
    Hamiltonian-gradient drift at p_{j+1} (explicit backward Euler).
    """
    spec, M, N = traj.spec, traj.num_paths, traj.grid.num_steps
    p, P = ensemble_zeros(M, N + 1, spec.n), ensemble_zeros(M, N + 1, spec.n, spec.d)
    p[:, N, :] = _terminal_gradient(traj)
    health = []
    for j, p_j, P_j, knot in BackwardSweep(traj, degree).knots():
        p[:, j, :], P[:, j] = p_j, P_j
        health.append(knot)
    return _pair(traj, degree, p, P, "bsde-regression", health)


# ---------------------------------------------------------------------------
# the duality identity
# ---------------------------------------------------------------------------

def duality_residual(traj: TrajectoryEnsemble, direction: tuple) -> tuple:
    """Monte Carlo residual of the duality identity E[alpha_T . Y_T] =
    E[g_x(x_T) . z_T], with the standard error of the per-path difference.

    All ingredients are computed along the ensemble, on its noise, for the
    perturbation of its controls toward direction.  Y_T uses the exact
    horizon identity, so the residual isolates transport error of the
    fundamental pair rather than regression noise.
    """
    z = simulate_variational(traj, direction)
    Phi, Psi = _fundamental_steps(traj, 1)  # the pair at knot N only
    N = traj.grid.num_steps
    gx_T = _terminal_gradient(traj)
    alpha_T = np.einsum("mpq,mq->mp", Psi[:, 0], z.z[:, N, :])
    Y_T = _transpose_apply(Phi[:, 0], gx_T)
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
    explicit route) raises ValueError (see AdjointPair.require_P).  The
    per-path sum runs from knot N-1 down to 0, as in verify_necessary.
    """
    traj = adjoint.traj
    spec, mu, xi = traj.spec, traj.control, traj.singular
    q, eta = direction
    q = as_relaxed(q)
    grid = traj.grid
    _require_controls(spec, grid, q, eta)
    per_path = np.zeros(traj.num_paths)
    dinc = eta.increments - xi.increments
    for j, pj, Pj in adjoint.knots():
        t, xj = grid.knots[j], traj.states[:, j, :]
        h_dir = relaxed_hamiltonian_batch(spec, t, xj, q, j, pj, Pj)
        h_base = relaxed_hamiltonian_batch(spec, t, xj, mu, j, pj, Pj)
        slack = spec.k_cost(t) + np.einsum("pq,mp->mq", spec.G(t), pj)
        per_path += (h_dir - h_base) * grid.dt + slack @ dinc[j]
    return float(per_path.mean()), _std_error(per_path)
