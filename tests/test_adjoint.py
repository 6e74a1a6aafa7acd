"""Adjoint pair estimation, auxiliary processes, duality, first-order values."""

import numpy as np
import pytest

import oracles
from singopt.adjoint import (
    RegressionError,
    adjoint_bsde,
    adjoint_explicit,
    auxiliary_processes,
    duality_residual,
    fit_conditional,
    martingale_route_P,
    polynomial_features,
    variational_inequality_value,
)
from singopt.controls import (
    SingularControl,
    constant_relaxed,
    constant_strict,
    dirac_embed,
    zero_singular,
)
from singopt.model import NoiseBatch, TimeGrid, builtin_problem, problem_from_config
from singopt.sde import fundamental_solutions, simulate_relaxed, simulate_variational

from conftest import linear_drift_config


def setup(spec, control, singular=None, N=100, M=512, seed=11):
    grid = TimeGrid(N, spec.horizon)
    noise = NoiseBatch.generate(M, grid, spec.d, seed)
    mu = dirac_embed(control) if hasattr(control, "values") else control
    xi = singular if singular is not None else zero_singular(grid, spec.m)
    traj = simulate_relaxed(spec, mu, xi, noise)
    return grid, noise, (mu, xi), traj


def constant_gradient_problem():
    """h = 0, g = sum(x): g_x = 1 and all state gradients vanish."""
    cfg = linear_drift_config()
    cfg["name"] = "constant_gradient"
    cfg["coefficients"]["drift"] = {"form": "affine", "control": [[1.0]]}
    cfg["coefficients"]["diffusion"] = {"form": "affine", "const": [[1.0]]}
    cfg["coefficients"]["running_cost"] = {"form": "zero"}
    cfg["coefficients"]["terminal_cost"] = {"form": "quadratic", "state_lin": [1.0]}
    return problem_from_config(cfg)


def zero_gradient_problem():
    cfg = linear_drift_config()
    cfg["name"] = "zero_gradient"
    cfg["coefficients"]["drift"] = {"form": "affine", "control": [[1.0]]}
    cfg["coefficients"]["diffusion"] = {"form": "affine", "const": [[1.0]]}
    cfg["coefficients"]["running_cost"] = {"form": "zero"}
    cfg["coefficients"]["terminal_cost"] = {"form": "zero"}
    return problem_from_config(cfg)


class TestRegressionEngine:
    def test_features_degree_two(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]])
        feats = polynomial_features(x, 2)
        # 1, x1, x2, x1^2, x1 x2, x2^2
        assert feats.shape == (2, 6)
        assert feats[0].tolist() == [1.0, 1.0, 2.0, 1.0, 2.0, 4.0]

    def test_zero_target_fits_exactly_zero(self):
        feats = polynomial_features(np.random.default_rng(0).normal(size=(50, 1)), 2)
        fitted = fit_conditional(feats, np.zeros(50))
        assert np.all(fitted == 0.0)

    def test_underdetermined_raises_with_suggestion(self):
        feats = polynomial_features(np.zeros((2, 1)), 2)
        with pytest.raises(RegressionError, match="paths"):
            fit_conditional(feats, np.ones(2))

    def test_constant_state_reduces_to_mean(self):
        feats = polynomial_features(np.ones((8, 1)), 1)
        fitted = fit_conditional(feats, np.arange(8.0))
        assert np.allclose(fitted, 3.5)


class TestAdjointTrivialCases:
    def test_constant_terminal_gradient(self):
        spec = constant_gradient_problem()
        grid, noise, pair, traj = setup(spec, constant_strict(TimeGrid(50, 1.0), [0.0]), N=50)
        bsde = adjoint_bsde(traj, degree=1)
        assert np.allclose(bsde.p, 1.0, atol=1e-12)
        assert np.allclose(bsde.P[:, :-1], 0.0, atol=1e-12)
        fund = fundamental_solutions(traj)
        expl = adjoint_explicit(fund, degree=1)
        assert np.allclose(expl.p, 1.0, atol=1e-12)

    def test_zero_cost_gradients_give_zero_adjoint(self):
        spec = zero_gradient_problem()
        grid, noise, pair, traj = setup(spec, constant_strict(TimeGrid(50, 1.0), [0.0]), N=50)
        bsde = adjoint_bsde(traj, degree=2)
        assert np.abs(bsde.p).max() <= 1e-10
        assert np.abs(bsde.P).max() <= 1e-10
        fund = fundamental_solutions(traj)
        expl = adjoint_explicit(fund, degree=2)
        assert np.abs(expl.p).max() <= 1e-10

    def test_example1_at_relaxed_optimum_gives_zero_adjoint(self, example1, grid100):
        mu = constant_relaxed(grid100, [[-1.0], [1.0]], [0.5, 0.5])
        grid, noise, pair, traj = setup(example1, mu, M=8)
        bsde = adjoint_bsde(traj, degree=1)
        assert np.abs(bsde.p).max() == 0.0

    def test_terminal_slice_exact_both_methods(self, example2_stochastic):
        grid, noise, pair, traj = setup(
            example2_stochastic, constant_strict(TimeGrid(40, 1.0), [0.0]), N=40, M=256
        )
        gx = 2.0 * 0.0  # g = 0 here
        bsde = adjoint_bsde(traj, degree=1)
        fund = fundamental_solutions(traj)
        expl = adjoint_explicit(fund, degree=1)
        gx_T = example2_stochastic.g_x(traj.terminal)
        assert np.array_equal(bsde.p[:, -1, :], np.broadcast_to(gx_T, (256, 1)))
        assert np.array_equal(expl.p[:, -1, :], np.broadcast_to(gx_T, (256, 1)))


@pytest.fixture(scope="module")
def brownian_adjoint_setup():
    spec = builtin_problem("example2_stochastic")
    grid = TimeGrid(100, 1.0)
    noise = NoiseBatch.generate(4000, grid, 1, 101)
    mu = dirac_embed(constant_strict(grid, [0.0]))
    xi = zero_singular(grid, 1)
    traj = simulate_relaxed(spec, mu, xi, noise)
    fund = fundamental_solutions(traj)
    expl = adjoint_explicit(fund, degree=1)
    bsde = adjoint_bsde(traj, degree=1)
    return spec, grid, noise, traj, fund, expl, bsde, (mu, xi)


class TestClosedFormAdjoint:
    """Uncontrolled Brownian state with quadratic running cost: the adjoint is
    2 W_t (T - t) and its martingale integrand is 2 (T - t)."""

    @pytest.fixture
    def computed(self, brownian_adjoint_setup):
        return brownian_adjoint_setup

    def test_p_matches_closed_form(self, computed):
        _, grid, _, traj, _, expl, bsde, _ = computed
        oracle = 2.0 * traj.states[:, :, 0] * (1.0 - grid.knots)[None, :]
        for pair_est in (expl, bsde):
            rmse = np.sqrt(np.mean((pair_est.p[:, :, 0] - oracle) ** 2))
            assert rmse <= 5e-2, pair_est.method

    def test_P_matches_closed_form(self, computed):
        _, grid, _, _, _, _, bsde, _ = computed
        oracle = np.broadcast_to(2.0 * (1.0 - grid.knots), bsde.P[:, :, 0, 0].shape).copy()
        oracle[:, -1] = 0.0  # terminal convention
        rmse = np.sqrt(np.mean((bsde.P[:, :, 0, 0] - oracle) ** 2))
        assert rmse <= 5e-2

    def test_methods_agree(self, computed):
        *_, expl, bsde, _ = computed
        rms = np.sqrt(np.mean((expl.p - bsde.p) ** 2))
        assert rms <= 5e-2

    def test_martingale_route_P_agrees(self, computed):
        spec, grid, noise, traj, fund, _, bsde, pair = computed
        direction = (dirac_embed(constant_strict(grid, [1.0])), pair[1])
        z = simulate_variational(traj, direction)
        aux = auxiliary_processes(fund, z, degree=1)
        P2 = martingale_route_P(fund, aux, bsde)
        rms = np.sqrt(np.mean((P2[:, :-1] - bsde.P[:, :-1]) ** 2))
        assert rms <= 5e-2


@pytest.fixture(scope="module")
def aux_setup():
    spec = problem_from_config(linear_drift_config(sigma_state=0.3, sigma_const=0.1))
    grid = TimeGrid(80, 1.0)
    noise = NoiseBatch.generate(600, grid, 1, 7)
    mu = dirac_embed(constant_strict(grid, [0.0]))
    xi = zero_singular(grid, 1)
    traj = simulate_relaxed(spec, mu, xi, noise)
    fund = fundamental_solutions(traj)
    direction = (dirac_embed(constant_strict(grid, [1.0])), xi)
    z = simulate_variational(traj, direction)
    aux = auxiliary_processes(fund, z, degree=2)
    return spec, grid, traj, fund, z, aux


class TestAuxiliaryProcesses:

    def test_alpha_starts_at_zero(self, aux_setup):
        *_, aux = aux_setup
        assert np.all(aux.alpha[:, 0, :] == 0.0)

    def test_terminal_identity_exact(self, aux_setup):
        spec, grid, traj, fund, _, aux = aux_setup
        # Y_T plus the accumulated gradient integral recovers X per path
        from singopt.adjoint import _grad_sums
        prefix = _grad_sums(fund)
        recon = aux.Y[:, -1, :] + prefix[:, -1, :]
        assert np.allclose(recon, aux.X, atol=1e-12)

    def test_martingale_integrand_on_brownian_case(self):
        spec = builtin_problem("example2_stochastic")
        grid = TimeGrid(80, 1.0)
        noise = NoiseBatch.generate(2000, grid, 1, 19)
        mu = dirac_embed(constant_strict(grid, [0.0]))
        xi = zero_singular(grid, 1)
        traj = simulate_relaxed(spec, mu, xi, noise)
        fund = fundamental_solutions(traj)
        direction = (dirac_embed(constant_strict(grid, [1.0])), xi)
        z = simulate_variational(traj, direction)
        aux = auxiliary_processes(fund, z, degree=1)
        # E[X | F_t] has integrand 2 (T - t) here.  The integrand regression
        # carries irreducible dW^2 fluctuation of variance 2 Q^2 per path, a
        # noise floor near 0.075 at 2000 paths; 0.15 gives 2x headroom.
        oracle = 2.0 * (1.0 - grid.knots[:-1])
        rmse = np.sqrt(np.mean((aux.Q[:, :, 0, 0] - oracle[None, :]) ** 2))
        assert rmse <= 0.15


class TestDuality:
    def test_direction_equal_base_gives_zero(self, example2_stochastic, grid100):
        noise = NoiseBatch.generate(64, grid100, 1, 3)
        mu = constant_relaxed(grid100, [[-1.0], [1.0]], [0.5, 0.5])
        xi = zero_singular(grid100, 1)
        traj = simulate_relaxed(example2_stochastic, mu, xi, noise)
        res, se = duality_residual(traj, (mu, xi))
        assert res == 0.0 and se == 0.0

    def test_deterministic_case_against_ode_oracle(self, linear_drift_det):
        # nontrivial transport: b_x = 0.5, terminal cost x^2
        grid = TimeGrid(200, 1.0)
        noise = NoiseBatch.generate(4, grid, 1, 5)
        mu = dirac_embed(constant_strict(grid, [0.0]))
        xi = zero_singular(grid, 1)
        direction = (dirac_embed(constant_strict(grid, [1.0])), xi)
        traj = simulate_relaxed(linear_drift_det, mu, xi, noise)
        res, se = duality_residual(traj, direction)
        assert se == 0.0
        assert res <= 1e-6 + 5.0 * grid.dt
        # compare each side against the adaptive-integrator value
        xbar = oracles.integrate_ode(lambda t, y: 0.5 * y, [0.5], 1.0, grid.knots)[-1, 0]
        zbar = oracles.integrate_ode(lambda t, y: 0.5 * y + 1.0, [0.0], 1.0, grid.knots)[-1, 0]
        oracle_value = 2.0 * xbar * zbar  # g_x(x_T) z_T
        z = simulate_variational(traj, direction)
        lhs = float(
            np.mean(linear_drift_det.g_x(traj.terminal)[:, 0] * z.z[:, -1, 0])
        )
        assert lhs == pytest.approx(oracle_value, rel=2e-2)

    def test_stochastic_case_within_three_se(self, linear_drift_stoch):
        grid = TimeGrid(200, 1.0)
        noise = NoiseBatch.generate(2000, grid, 1, 13)
        mu = dirac_embed(constant_strict(grid, [0.0]))
        xi = zero_singular(grid, 1)
        direction = (dirac_embed(constant_strict(grid, [1.0])), xi)
        traj = simulate_relaxed(linear_drift_stoch, mu, xi, noise)
        res, se = duality_residual(traj, direction)
        assert res <= 3.0 * se + 5.0 * grid.dt


def test_first_order_value_consistent_across_three_routes(linear_drift_stoch):
    """The adjoint (Hamiltonian + slack) form, the raw sensitivity form and a
    primal finite difference of the cost all estimate the same first-order
    derivative; their agreement exercises the whole duality transform."""
    from singopt.sde import per_path_cost
    from singopt.controls import convex_combine

    spec = linear_drift_stoch
    grid = TimeGrid(200, 1.0)
    M = 4000
    noise = NoiseBatch.generate(M, grid, spec.d, 55)
    mu = dirac_embed(constant_strict(grid, [0.0]))
    xi = zero_singular(grid, 1)
    base = (mu, xi)
    direction = (dirac_embed(constant_strict(grid, [1.0])), xi)

    traj = simulate_relaxed(spec, mu, xi, noise)
    pair = adjoint_bsde(traj, degree=2)
    v_adjoint, se_adj = variational_inequality_value(pair, direction)

    theta = 1e-3
    mixed = convex_combine(base, direction, theta)
    xt = simulate_relaxed(spec, *mixed, noise)
    fd = (per_path_cost(xt) - per_path_cost(traj)) / theta
    v_primal, se_primal = float(fd.mean()), float(fd.std(ddof=1) / np.sqrt(M))

    z = simulate_variational(traj, direction)
    knots, dt = grid.knots, grid.dt
    value = np.einsum(
        "mp,mp->m", np.broadcast_to(spec.g_x(traj.terminal), (M, 1)), z.z[:, -1, :]
    )
    a0, a1 = np.array([0.0]), np.array([1.0])
    for j in range(grid.num_steps):
        xj = traj.states[:, j, :]
        hx = np.broadcast_to(spec.h_x(knots[j], xj, a0), (M, 1))
        value = value + np.einsum("mp,mp->m", hx, z.z[:, j, :]) * dt
        value = value + (
            np.broadcast_to(spec.h(knots[j], xj, a1), (M,))
            - np.broadcast_to(spec.h(knots[j], xj, a0), (M,))
        ) * dt
    v_sens = float(value.mean())

    assert abs(v_adjoint - v_primal) <= 0.05 + 3.0 * (se_adj + se_primal)
    assert abs(v_adjoint - v_sens) <= 0.05
    assert abs(v_primal - v_sens) <= 0.05


class TestVariationalInequalityValue:
    def test_direction_equal_base_is_exactly_zero(self, example2_separated, grid100):
        noise = NoiseBatch.generate(16, grid100, 1, 3)
        mu = constant_relaxed(grid100, [[-1.0], [1.0]], [0.5, 0.5])
        xi = zero_singular(grid100, 1)
        traj = simulate_relaxed(example2_separated, mu, xi, noise)
        pair = adjoint_bsde(traj, degree=1)
        value, se = variational_inequality_value(pair, (mu, xi))
        assert value == 0.0 and se == 0.0

    def test_separated_closed_form_horizon_value(self, example2_separated, grid100):
        # at the relaxed optimum, moving toward the point mass at 0 costs
        # (1 - 0)^2 per unit time: the first-order value is exactly T
        noise = NoiseBatch.generate(16, grid100, 1, 3)
        mu = constant_relaxed(grid100, [[-1.0], [1.0]], [0.5, 0.5])
        xi = zero_singular(grid100, 1)
        traj = simulate_relaxed(example2_separated, mu, xi, noise)
        pair = adjoint_bsde(traj, degree=1)
        direction = (dirac_embed(constant_strict(grid100, [0.0])), xi)
        value, se = variational_inequality_value(pair, direction)
        assert value == pytest.approx(1.0, abs=1e-12)
        assert se == 0.0

    def test_singular_direction_matches_direct_quadrature(self, singular_block, grid100):
        noise = NoiseBatch.generate(8, grid100, 1, 3)
        mu = dirac_embed(constant_strict(grid100, [0.0]))
        xi = zero_singular(grid100, 1)
        traj = simulate_relaxed(singular_block, mu, xi, noise)
        pair = adjoint_bsde(traj, degree=1)
        inc = np.zeros((100, 1))
        inc[30, 0] = 2.0
        direction = (mu, SingularControl(grid100, inc))
        value, _ = variational_inequality_value(pair, direction)
        slack = 1.0 + pair.p[:, 30, 0]  # k + G^T p at the jump cell
        assert value == pytest.approx(float(np.mean(slack * 2.0)), abs=1e-12)
        assert value > 0.0
