"""Independent reference computations used as test oracles.

Everything here deliberately avoids the package's own Euler kernels: ODE
solutions come from scipy's adaptive integrator, grid costs from closed-form
knot values, and measure minima from brute-force sampling.
"""

import numpy as np
from scipy.integrate import solve_ivp


def integrate_ode(rhs, y0, T, knots):
    """High-accuracy ODE solution evaluated at the given knots."""
    sol = solve_ivp(rhs, (0.0, T), np.atleast_1d(np.asarray(y0, dtype=float)),
                    t_eval=knots, rtol=1e-10, atol=1e-12, max_step=T / 50)
    return sol.y.T


def state_noise_adjoint(A, B, C, D, a, T, knots):
    """Closed-form adjoint of dx = (A x + B a) dt + (C x + D a) dW with
    h = g = x^2 under the constant control a.

    The cost to go is alpha(t) x^2 / 2 + beta(t) x + const, so
    p = alpha x + beta and P = alpha (C x + D a), where
    alpha' = -(2 + (2A + C^2) alpha) with alpha(T) = 2 and
    beta' = -(A beta + alpha (B + C D) a) with beta(T) = 0.  Returns
    (alpha, beta) at the knots, integrated backward from T.
    """
    def rhs(s, y):  # in reversed time s = T - t
        alpha, beta = y
        return [2.0 + (2.0 * A + C * C) * alpha, A * beta + alpha * (B + C * D) * a]

    y = integrate_ode(rhs, [2.0, 0.0], T, T - knots[::-1])[::-1]
    return y[:, 0], y[:, 1]


def alternating_ramp_knots(n, N, T=1.0):
    """Exact knot values of the integral of the n-block alternating +-1 control.

    The state ramps from 0 to T/n and back, repeating; block boundaries align
    with the grid when n divides N.
    """
    assert N % n == 0
    xs = np.empty(N + 1)
    for j in range(N + 1):
        t = j * T / N
        k = min(int(np.floor(t * n / T)), n - 1)
        x_block = (T / n) if (k % 2 == 1) else 0.0
        sign = 1.0 if (k % 2 == 0) else -1.0
        xs[j] = x_block + sign * (t - k * T / n)
    return xs


def alternating_cost_on_grid(n, N, T=1.0):
    """Left-endpoint quadrature of x^2 for the alternating control, from the
    closed-form knot values (independent of the simulator)."""
    xs = alternating_ramp_knots(n, N, T)
    dt = T / N
    return float(sum(x * x * dt for x in xs[:-1]))


def random_discrete_measures(points, rng, count):
    """Random probability weights over the given grid points."""
    out = []
    for _ in range(count):
        raw = rng.exponential(size=len(points))
        out.append(raw / raw.sum())
    return out


def random_competitor(spec, grid, rng, max_increment=0.2):
    """A random strict control on the candidate grid plus random singular
    increments (nonnegative, sparse)."""
    from singopt.controls import SingularControl, StrictControl

    idx = rng.integers(0, len(spec.u1_grid), size=grid.num_steps)
    strict = StrictControl(grid, spec.u1_grid[idx])
    inc = np.zeros((grid.num_steps, spec.m))
    active = rng.random(grid.num_steps) < 0.1
    inc[active] = rng.uniform(0.0, max_increment, size=(int(active.sum()), spec.m))
    return strict, SingularControl(grid, inc)
