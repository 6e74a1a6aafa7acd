"""Adjoint pair estimation, duality, first-order values."""

import copy
from itertools import combinations_with_replacement

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from singopt.adjoint import (
    RegressionError,
    adjoint_bsde,
    adjoint_routes,
    duality_residual,
    fit_conditional,
    polynomial_features,
    regression_basis,
    variational_inequality_value,
)
from singopt.controls import (
    RelaxedControl,
    SingularControl,
    alternating_strict,
    constant_relaxed,
    constant_strict,
    convex_combine,
    dirac_embed,
    zero_singular,
)
from singopt import model, sde
from singopt.model import NoiseBatch, TimeGrid, builtin_problem, problem_from_config
from singopt.sde import (
    fundamental_solutions,
    per_path_cost,
    simulate_relaxed,
    simulate_variational,
)

from conftest import linear_drift_config, planar_config, state_noise_config, traced_peak


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

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_features_equal_the_column_loop_bit_for_bit(self, n):
        x = np.random.default_rng(n).normal(size=(37, n)) * 3.0
        for degree in range(5):
            cols = [np.ones(37)]
            for deg in range(1, degree + 1):
                for combo in combinations_with_replacement(range(n), deg):
                    col = np.ones(37)
                    for idx in combo:
                        col = col * x[:, idx]
                    cols.append(col)
            expected = np.column_stack(cols)
            feats = polynomial_features(x, degree)
            assert feats.shape == expected.shape
            assert np.ascontiguousarray(feats).tobytes() == expected.tobytes()

    def test_zero_target_fits_exactly_zero(self):
        basis = regression_basis(np.random.default_rng(0).normal(size=(50, 1)), 2)
        fitted = fit_conditional(basis, np.zeros(50))
        assert np.all(fitted == 0.0)

    def test_underdetermined_raises_with_suggestion(self):
        with pytest.raises(RegressionError, match="paths"):
            regression_basis(np.zeros((2, 1)), 2)

    def test_constant_state_reduces_to_mean(self):
        basis = regression_basis(np.ones((8, 1)), 1)
        fitted = fit_conditional(basis, np.arange(8.0))
        assert np.allclose(fitted, 3.5, rtol=0.0, atol=1e-14)
        assert basis.q.shape == (8, 1) and basis.rank_loss == 0 and basis.cond == 1.0

    def test_constant_state_off_a_binary_fraction_reduces_to_mean(self):
        # the rounded mean of three 0.1s is one ulp above 0.1, so a test on
        # the deviations would keep the component as a column of +-1 ulp
        x = np.full((3, 1), 0.1)
        assert x.mean() != 0.1
        basis = regression_basis(x, 2)
        assert basis.q.shape == (3, 1) and basis.rank_loss == 0 and basis.cond == 1.0
        np.testing.assert_allclose(fit_conditional(basis, np.array([1.0, 2.0, 6.0])), 3.0,
                                   rtol=0.0, atol=1e-14)

    def test_deterministic_problem_loses_no_rank(self):
        cfg = model._builtin_config("example1", 1.0)
        cfg["x0"] = [0.1]
        spec = problem_from_config(cfg)
        grid, noise, pair, traj = setup(spec, constant_strict(TimeGrid(20, spec.horizon), [0.5]),
                                        N=20, M=3)
        routes = adjoint_routes(traj, degree=2)
        for route in routes:
            assert route.diagnostics["max_rank_loss"] == 0
            assert route.diagnostics["max_basis_cond"] == 1.0
            # every path is the same, so every fit is the path mean
            assert np.abs(route.p - route.p[:1]).max() <= 1e-14

    def test_basis_cond_is_the_features_condition_number(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(300, 2)) * [1.0, 3.0] + [0.5, -2.0]
        basis = regression_basis(x, 2)
        scaled = (x - x.mean(axis=0)) / x.std(axis=0)
        assert basis.cond == pytest.approx(np.linalg.cond(polynomial_features(scaled, 2)),
                                           rel=1e-10)

    def test_collinear_components_give_lstsq_fitted_values(self):
        rng = np.random.default_rng(3)
        x1 = rng.normal(size=200)
        x = np.column_stack([x1, 2.0 * x1 + 1.0])
        y = np.column_stack([np.sin(x1), rng.normal(size=200)])
        basis = regression_basis(x, 2)
        feats = polynomial_features(x, 2)
        coeff, *_ = np.linalg.lstsq(feats, y, rcond=None)
        # six monomials span only the quadratics in x1
        assert basis.q.shape == (200, 3) and basis.rank_loss == 3
        np.testing.assert_allclose(fit_conditional(basis, y), feats @ coeff, rtol=0.0, atol=1e-12)

    def test_non_finite_target_or_state_raises(self):
        x = np.random.default_rng(0).normal(size=(50, 2))
        with pytest.raises(RegressionError, match="non-finite"):
            fit_conditional(regression_basis(x, 1), np.full(50, np.nan))
        x[7, 1] = np.nan
        with pytest.raises(RegressionError, match="non-finite"):
            fit_conditional(regression_basis(x, 1), np.ones(50))

    @settings(max_examples=40, deadline=None)
    @given(n=st.sampled_from([1, 2]), degree=st.integers(0, 3),
           paths=st.integers(40, 200), seed=st.integers(0, 2**32 - 1))
    def test_basis_fit_equals_lstsq(self, n, degree, paths, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(paths, n)) + rng.uniform(-1.0, 1.0, size=n)
        y = rng.normal(size=(paths, 2)) + x[:, :1] ** 2
        feats = polynomial_features(x, degree)
        coeff, *_ = np.linalg.lstsq(feats, y, rcond=None)
        fitted = fit_conditional(regression_basis(x, degree), y)
        np.testing.assert_allclose(fitted, feats @ coeff, rtol=0.0, atol=1e-10)

    def test_shifted_state_gives_the_unshifted_adjoint(self):
        """Raw monomials of x near 100 lose p at degree 4; the centred basis
        does not."""
        cfg = model._builtin_config("example2_stochastic", 1.0)
        shifted = copy.deepcopy(cfg)
        shifted["x0"] = [100.0]
        # h = (x - 100)^2 + (1 - a^2)^2
        shifted["coefficients"]["running_cost"].update(state_lin=[-200.0], const=1e4)
        shifted["assumptions_box"] = {"low": [98.0], "high": [102.0]}
        grid = TimeGrid(50, 1.0)
        noise = NoiseBatch.generate(4000, grid, 1, 29)
        mu = constant_relaxed(grid, [[-1.0], [1.0]], [0.5, 0.5])
        pairs = []
        for config in (cfg, shifted):
            traj = simulate_relaxed(problem_from_config(config), mu, zero_singular(grid, 1), noise)
            pairs.append(adjoint_bsde(traj, degree=4))
        base, moved = pairs
        assert np.abs(moved.p - base.p).max() <= 1e-8
        assert np.abs(moved.P - base.P).max() <= 1e-8

    def test_one_factorization_per_knot(self, monkeypatch, example2_stochastic):
        calls = []
        qr = np.linalg.qr

        def counting_qr(a, *args, **kwargs):
            calls.append(a.shape)
            return qr(a, *args, **kwargs)

        grid, noise, pair, traj = setup(example2_stochastic, constant_strict(TimeGrid(30, 1.0), [0.0]),
                                        N=30, M=256)
        monkeypatch.setattr(np.linalg, "qr", counting_qr)
        bsde = adjoint_bsde(traj, degree=2)
        assert len(calls) == 30
        assert bsde.diagnostics["max_rank_loss"] == 0
        assert 1.0 <= bsde.diagnostics["max_basis_cond"] < 1e3


class TestAdjointTrivialCases:
    def test_constant_terminal_gradient(self):
        spec = constant_gradient_problem()
        grid, noise, pair, traj = setup(spec, constant_strict(TimeGrid(50, 1.0), [0.0]), N=50)
        bsde = adjoint_bsde(traj, degree=1)
        assert np.allclose(bsde.p, 1.0, atol=1e-12)
        assert np.allclose(bsde.P[:, :-1], 0.0, atol=1e-12)
        expl, _ = adjoint_routes(traj, degree=1)
        assert np.allclose(expl.p, 1.0, atol=1e-12)

    def test_zero_cost_gradients_give_zero_adjoint(self):
        spec = zero_gradient_problem()
        grid, noise, pair, traj = setup(spec, constant_strict(TimeGrid(50, 1.0), [0.0]), N=50)
        bsde = adjoint_bsde(traj, degree=2)
        assert np.abs(bsde.p).max() <= 1e-10
        assert np.abs(bsde.P).max() <= 1e-10
        expl, _ = adjoint_routes(traj, degree=2)
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
        expl, bsde = adjoint_routes(traj, degree=1)
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
    expl, bsde = adjoint_routes(traj, degree=1)
    return spec, grid, noise, traj, expl, bsde, (mu, xi)


class TestClosedFormAdjoint:
    """Uncontrolled Brownian state with quadratic running cost: the adjoint is
    2 W_t (T - t) and its martingale integrand is 2 (T - t)."""

    @pytest.fixture
    def computed(self, brownian_adjoint_setup):
        return brownian_adjoint_setup

    def test_p_matches_closed_form(self, computed):
        _, grid, _, traj, expl, bsde, _ = computed
        oracle = 2.0 * traj.states[:, :, 0] * (1.0 - grid.knots)[None, :]
        for pair_est in (expl, bsde):
            rmse = np.sqrt(np.mean((pair_est.p[:, :, 0] - oracle) ** 2))
            assert rmse <= 5e-2, pair_est.method

    def test_P_matches_closed_form(self, computed):
        _, grid, _, _, _, bsde, _ = computed
        oracle = np.broadcast_to(2.0 * (1.0 - grid.knots), bsde.P[:, :, 0, 0].shape).copy()
        oracle[:, -1] = 0.0  # terminal convention
        rmse = np.sqrt(np.mean((bsde.P[:, :, 0, 0] - oracle) ** 2))
        assert rmse <= 5e-2

    def test_methods_agree(self, computed):
        *_, expl, bsde, _ = computed
        rms = np.sqrt(np.mean((expl.p - bsde.p) ** 2))
        assert rms <= 5e-2


STATE_NOISE = {"A": -0.5, "B": 1.0, "C": 0.4, "D": 0.6}


def _rmse(estimate, oracle):
    return float(np.sqrt(np.mean((estimate - oracle) ** 2)))


@pytest.fixture(scope="module")
def state_noise_run():
    spec = problem_from_config(state_noise_config(**STATE_NOISE))
    grid = TimeGrid(100, spec.horizon)
    noise = NoiseBatch.generate(10_000, grid, 1, 61)
    traj = simulate_relaxed(spec, dirac_embed(constant_strict(grid, [1.0])),
                            zero_singular(grid, 1), noise)
    alpha, beta = oracles.state_noise_adjoint(**STATE_NOISE, a=1.0, T=spec.horizon,
                                              knots=grid.knots)
    x = traj.states[:, :, 0]
    P_oracle = alpha * (STATE_NOISE["C"] * x + STATE_NOISE["D"])
    P_oracle[:, -1] = 0.0  # terminal convention
    return (*adjoint_routes(traj, degree=1), alpha * x + beta, P_oracle)


class TestStateNoiseAdjoint:
    """Noise proportional to the state (sigma_x = 0.4) under a = 1: the
    fundamental solution is a stochastic exponential, which no regression
    on the state sees, so a route that regresses Phi-weighted tails misses
    p.  Each bound is 1.5 times the largest rmse over seeds 61-70 at
    M = 10^4, N = 100, degree 1 (README tolerance table)."""

    @pytest.mark.parametrize("route, bound", [(0, 0.075), (1, 0.04)], ids=["explicit", "bsde"])
    def test_p_matches_closed_form(self, state_noise_run, route, bound):
        pair, p_oracle = state_noise_run[route], state_noise_run[2]
        assert _rmse(pair.p[:, :, 0], p_oracle) <= bound

    def test_bsde_P_matches_closed_form(self, state_noise_run):
        bsde, P_oracle = state_noise_run[1], state_noise_run[3]
        assert _rmse(bsde.P[:, :, 0, 0], P_oracle) <= 0.1

    def test_routes_agree(self, state_noise_run):
        expl, bsde = state_noise_run[:2]
        assert _rmse(expl.p, bsde.p) <= 0.045


def _x0_quotient(traj, h=1e-3):
    """Central common-noise difference quotient of the mean cost in x0."""
    spec = traj.spec
    grad = np.empty(spec.n)
    for i, step in enumerate(h * np.eye(spec.n)):
        up, down = (per_path_cost(simulate_relaxed(spec.with_overrides(x0=spec.x0 + s * step),
                                                   traj.control, traj.singular, traj.noise)).mean()
                    for s in (1.0, -1.0))
        grad[i] = (up - down) / (2.0 * h)
    return grad


def _affine_run(config):
    """An ensemble of a problem affine in the state and in the measure with
    sigma_x != 0, under a two-atom measure and one singular jump."""
    spec = problem_from_config(config())
    grid = TimeGrid(50, spec.horizon)
    noise = NoiseBatch.generate(2000, grid, spec.d, 13)
    mu = constant_relaxed(grid, spec.u1_grid[[0, -1]], [0.3, 0.7])
    increments = np.zeros((grid.num_steps, spec.m))
    increments[15, 0] = 0.5
    return simulate_relaxed(spec, mu, SingularControl(grid, increments), noise)


AFFINE = pytest.mark.parametrize("config", [state_noise_config, planar_config],
                                 ids=["state_noise", "planar"])


@AFFINE
def test_explicit_p0_is_the_cost_gradient_in_x0(config):
    """The basis at knot 0 is the constant alone, so the explicit route's
    p_0 is the path mean of the pathwise adjoint: the exact x0-derivative of
    the mean Euler cost on the same noise.  The dynamics are affine and the
    costs quadratic, so the central quotient is exact up to rounding."""
    traj = _affine_run(config)
    p0 = adjoint_routes(traj, degree=2)[0].p[:, 0]
    quotient = _x0_quotient(traj)
    assert np.abs(p0 - quotient).max() <= 1e-9 * np.abs(quotient).max()


@AFFINE
def test_variational_quotient_exact_with_state_noise(config):
    """With sigma_x != 0 the variational step carries the sum_i sx_i dW_i
    part of the Euler Jacobian.  The dynamics are affine in the state and
    in the measure, so the common-noise difference quotient equals z up to
    rounding at every theta."""
    traj = _affine_run(config)
    spec, grid = traj.spec, traj.grid
    increments = np.zeros((grid.num_steps, spec.m))
    increments[30, -1] = 0.25
    base = (traj.control, traj.singular)
    direction = (dirac_embed(constant_strict(grid, spec.u1_grid[1])),
                 SingularControl(grid, increments))
    z = simulate_variational(traj, direction)
    assert float(np.abs(z.z).max()) > 0.1
    for theta in (1e-1, 1e-3):
        mixed = convex_combine(base, direction, theta)
        xt = simulate_relaxed(spec, *mixed, traj.noise)
        stat = (((xt.states - traj.states) / theta - z.z) ** 2).sum(axis=2).mean(axis=0).max()
        assert stat <= 1e-18


@AFFINE
def test_explicit_p0_is_the_mean_terminal_functional(config):
    """The pathwise adjoint steps with the transposed Euler Jacobians that
    carry the fundamental solution forward, so lam_0 = Phi_N^T g_x(x_N) +
    sum_j Phi_j^T hbar_x dt = X on every path, and p_0, the path mean of
    lam_0, is the path mean of X."""
    traj = _affine_run(config)
    p0 = adjoint_routes(traj, degree=2)[0].p[:, 0]
    Phi, N = fundamental_solutions(traj).Phi, traj.grid.num_steps
    gx = np.broadcast_to(traj.spec.g_x(traj.terminal), traj.terminal.shape)
    X = np.einsum("mqp,mq->mp", Phi[:, N], gx) + traj.grid.dt * sum(
        np.einsum("mqp,mq->mp", Phi[:, j], sde._Linearization(traj, j).hx) for j in range(N))
    X = X.mean(axis=0)
    assert np.abs(p0 - X).max() <= 1e-12 * np.abs(X).max()


@AFFINE
def test_routes_bsde_is_adjoint_bsde_bit_for_bit(config):
    _, routed = adjoint_routes(_affine_run(config), degree=2)
    alone = adjoint_bsde(routed.traj, degree=2)
    assert routed.p.tobytes() == alone.p.tobytes()
    assert routed.P.tobytes() == alone.P.tobytes()
    assert routed.diagnostics == alone.diagnostics


def test_each_sweep_reads_only_its_parts_of_the_linearization(monkeypatch):
    """The tangent sweeps average no h_x, and the backward SDE, which does
    not step with the Euler Jacobian, forms none."""
    traj = _affine_run(planar_config)
    spec = traj.spec
    averaged = []
    average = RelaxedControl.average

    def recording(self, fn, *args):
        averaged.append(fn)
        return average(self, fn, *args)

    def refuse(lin):
        raise AssertionError("a sweep formed the Euler Jacobian")

    monkeypatch.setattr(RelaxedControl, "average", recording)
    direction = (dirac_embed(constant_strict(traj.grid, spec.u1_grid[1])), traj.singular)
    simulate_variational(traj, direction)
    fundamental_solutions(traj)
    assert averaged and not any(fn is spec.h_x for fn in averaged)
    monkeypatch.setattr(sde._Linearization, "jacobian", property(refuse))
    adjoint_bsde(traj)


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

    def test_peak_memory_holds_the_pair_at_one_knot(self, linear_drift_stoch):
        # criterion 5's size: z (M x (N+1), 8.1 MB) is held whole, the
        # fundamental pair at the current knot only; Phi and Psi at every
        # knot would add 16.2 MB
        M, N = 10_000, 100
        grid = TimeGrid(N, 1.0)
        noise = NoiseBatch.generate(M, grid, 1, 51)
        xi = zero_singular(grid, 1)
        traj = simulate_relaxed(linear_drift_stoch, dirac_embed(constant_strict(grid, [0.0])),
                                xi, noise)
        direction = (dirac_embed(constant_strict(grid, [1.0])), xi)
        with traced_peak() as traced:
            duality_residual(traj, direction)
        assert traced.peak < 12e6


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


def _combined_arrays(traj, direction):
    relaxed, singular = convex_combine((traj.control, traj.singular), direction, 0.3)
    return relaxed.atoms, relaxed.weights, singular.increments


# Each entry point that takes a direction pair, as a tuple of its outputs.
DIRECTION_TAKERS = {
    "simulate_variational": lambda traj, d: (simulate_variational(traj, d).z,),
    "variational_inequality_value":
        lambda traj, d: variational_inequality_value(adjoint_bsde(traj, degree=1), d),
    "duality_residual": duality_residual,
    "convex_combine": _combined_arrays,
}


@pytest.mark.parametrize("call", DIRECTION_TAKERS.values(), ids=list(DIRECTION_TAKERS))
def test_strict_direction_plays_its_point_masses(example2_stochastic, call):
    grid, _, _, traj = setup(example2_stochastic,
                             constant_relaxed(TimeGrid(10, 1.0), [[-1.0], [1.0]], [0.5, 0.5]),
                             N=10, M=32)
    strict = alternating_strict(grid, 2)
    eta = zero_singular(grid, 1)
    got = call(traj, (strict, eta))
    expected = call(traj, (dirac_embed(strict), eta))
    assert all(np.array_equal(a, b) for a, b in zip(got, expected, strict=True))


def test_convex_combine_takes_a_strict_base():
    grid = TimeGrid(4, 1.0)
    strict, eta = alternating_strict(grid, 2), zero_singular(grid, 1)
    direction = (constant_strict(grid, [0.5]), eta)
    got, _ = convex_combine((strict, eta), direction, 0.25)
    expected, _ = convex_combine((dirac_embed(strict), eta), direction, 0.25)
    assert np.array_equal(got.atoms, expected.atoms)
    assert np.array_equal(got.weights, expected.weights)
