"""Forward simulation: strict/relaxed kernels, variational equation,
fundamental pair, cost quadrature, chattering convergence."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import planar_config
from singopt.adjoint import adjoint_bsde
from singopt.controls import (
    RelaxedControl,
    SingularControl,
    StrictControl,
    alternating_strict,
    chattering,
    constant_relaxed,
    constant_strict,
    convex_combine,
    dirac_embed,
    regrid_relaxed,
    zero_singular,
)
from singopt.model import NoiseBatch, TimeGrid, builtin_problem, problem_from_config
from singopt.sde import (
    _BLOCK_KNOTS,
    SimulationError,
    _cost_terms,
    chattering_gap,
    estimate_cost,
    fundamental_solutions,
    regrid_singular,
    simulate_relaxed,
    simulate_variational,
)


def make_noise(grid, paths=32, seed=11, d=1):
    return NoiseBatch.generate(paths, grid, d, seed)


def pm1(grid):
    return constant_relaxed(grid, [[-1.0], [1.0]], [0.5, 0.5])


class TestSimulateStrict:
    def test_zero_coefficients_freeze_state(self, singular_block, grid64):
        # b = sigma = 0 and no singular increments: x stays at x0
        noise = make_noise(grid64)
        traj = simulate_relaxed(
            singular_block, constant_strict(grid64, [0.0]), zero_singular(grid64, 1),
            noise,
        )
        assert np.all(traj.states == 1.0)

    @pytest.mark.parametrize("n", [4, 8])
    def test_alternating_control_stays_within_ramp_bound(self, example1, n):
        grid = TimeGrid(64, 1.0)
        noise = make_noise(grid, paths=3)
        traj = simulate_relaxed(
            example1, alternating_strict(grid, n), zero_singular(grid, 1), noise
        )
        assert np.abs(traj.states).max() == pytest.approx(1.0 / n)
        # knot values agree with the closed-form ramp
        expected = oracles.alternating_ramp_knots(n, 64)
        assert np.allclose(traj.states[0, :, 0], expected, atol=1e-14)

    def test_terminal_second_moment_matches_brownian(self, example2_stochastic, grid100):
        noise = make_noise(grid100, paths=10_000, seed=21)
        traj = simulate_relaxed(
            example2_stochastic, constant_strict(grid100, [0.0]),
            zero_singular(grid100, 1), noise,
        )
        xT2 = traj.terminal[:, 0] ** 2
        se = xT2.std(ddof=1) / np.sqrt(len(xT2))
        assert abs(xT2.mean() - 1.0) <= 3 * se

    def test_blowup_reports_path_and_step(self, tanh_drift, grid64):
        exploding = tanh_drift.with_overrides(
            b=lambda t, x, a: x * 1e160,
            b_x=lambda t, x, a: np.full(np.shape(x)[:-1] + (1, 1), 1e160),
        )
        noise = make_noise(grid64, paths=4)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(
                SimulationError,
                match=r"^state became non-finite at step 3, first affected path 0$",
            ):
                simulate_relaxed(
                    exploding, constant_strict(grid64, [1.0]),
                    zero_singular(grid64, 1), noise,
                )

    def test_blowup_inside_a_block_reports_first_step_and_path(self, tanh_drift):
        # Path 2 blows up at step 150, path 1 at step 151 and path 3 at
        # step 200: the report names the first (step, path) wherever the
        # finiteness check's block boundaries fall.
        grid = TimeGrid(256, 1.0)
        first_bad_knot = {2: 149, 1: 150, 3: 199}

        def b(t, x, a):
            out = np.tanh(x) + a
            for path, knot in first_bad_knot.items():
                if t >= grid.knots[knot]:
                    out[path] = np.inf
            return out

        exploding = tanh_drift.with_overrides(b=b)
        noise = make_noise(grid, paths=4)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(
                SimulationError,
                match=r"^state became non-finite at step 150, first affected path 2$",
            ):
                simulate_relaxed(
                    exploding, constant_strict(grid, [1.0]),
                    zero_singular(grid, 1), noise,
                )

    def test_determinism_bit_identical(self, example2_stochastic, grid64):
        v = constant_strict(grid64, [1.0])
        eta = zero_singular(grid64, 1)
        a = simulate_relaxed(example2_stochastic, v, eta, make_noise(grid64, seed=5))
        b = simulate_relaxed(example2_stochastic, v, eta, make_noise(grid64, seed=5))
        assert np.array_equal(a.states, b.states)

    def test_mismatched_control_grid_is_rejected(self, example2_stochastic, grid64):
        other = TimeGrid(32, 1.0)
        noise = make_noise(grid64, paths=2)
        with pytest.raises(SimulationError, match="does not match"):
            simulate_relaxed(
                example2_stochastic, constant_strict(other, [1.0]),
                zero_singular(grid64, 1), noise,
            )

    @pytest.mark.parametrize("steps, dim", [(32, 1), (64, 2)], ids=["steps", "noise-dim"])
    def test_mismatched_noise_batch_is_rejected(self, example2_stochastic, grid64, steps, dim):
        noise = make_noise(TimeGrid(steps, 1.0), paths=2, d=dim)
        with pytest.raises(SimulationError, match="noise batch does not match"):
            simulate_relaxed(
                example2_stochastic, constant_strict(grid64, [1.0]),
                zero_singular(grid64, 1), noise,
            )


    @pytest.mark.parametrize(
        "control_dim, singular_dim, message",
        [(2, 1, r"^control of dimension 2 does not match the problem's k = 1$"),
         (1, 2, r"^singular control of dimension 2 does not match the problem's m = 1$")],
        ids=["control", "singular"],
    )
    def test_control_of_another_dimension_is_rejected(
        self, example2_stochastic, grid64, control_dim, singular_dim, message
    ):
        noise = make_noise(grid64, paths=2)
        with pytest.raises(SimulationError, match=message):
            simulate_relaxed(
                example2_stochastic, constant_strict(grid64, [1.0] * control_dim),
                zero_singular(grid64, singular_dim), noise,
            )

    def test_noise_of_another_horizon_is_rejected(self, example2_stochastic):
        spec = example2_stochastic.with_overrides(horizon=4.0)
        grid = TimeGrid(100, 4.0)
        noise = make_noise(TimeGrid(100, 1.0), paths=8, seed=3)
        with pytest.raises(SimulationError, match="noise batch does not match"):
            simulate_relaxed(spec, pm1(grid), zero_singular(grid, 1), noise)


# A problem of horizon 1 with controls (and noise) on a grid of horizon 2.
HORIZON_MISMATCH = {
    "simulate_relaxed": lambda spec, grid: simulate_relaxed(
        spec, pm1(grid), zero_singular(grid, 1), make_noise(grid, paths=8, seed=3)),
    "chattering_gap": lambda spec, grid: chattering_gap(
        spec, pm1(grid), zero_singular(grid, 1), 4, 8, 3),
}


@pytest.mark.parametrize("call", HORIZON_MISMATCH.values(), ids=list(HORIZON_MISMATCH))
def test_control_of_another_horizon_is_rejected(example2_stochastic, call):
    with pytest.raises(SimulationError,
                       match=r"^control horizon 2\.0 does not match the problem horizon 1\.0$"):
        call(example2_stochastic, TimeGrid(16, 2.0))


class TestSimulateRelaxed:
    def test_dirac_embedding_is_bit_identical_to_strict(self, example2_stochastic, grid64):
        noise = make_noise(grid64, paths=16, seed=9)
        v = alternating_strict(grid64, 4)
        eta = zero_singular(grid64, 1)
        xs = simulate_relaxed(example2_stochastic, v, eta, noise)
        xr = simulate_relaxed(example2_stochastic, dirac_embed(v), eta, noise)
        assert np.array_equal(xs.states, xr.states)

    def test_relaxed_optimum_freezes_example1(self, example1, grid64):
        noise = make_noise(grid64, paths=4)
        traj = simulate_relaxed(example1, pm1(grid64), zero_singular(grid64, 1), noise)
        assert np.all(traj.states == 0.0)

    def test_relaxed_optimum_is_pure_noise_path(self, example2_stochastic, grid64):
        noise = make_noise(grid64, paths=8, seed=3)
        traj = simulate_relaxed(
            example2_stochastic, pm1(grid64), zero_singular(grid64, 1), noise
        )
        W = np.zeros_like(traj.states)
        W[:, 1:, 0] = np.cumsum(noise.increments[:, :, 0], axis=1)
        assert np.array_equal(traj.states, W)

    def test_singular_increments_enter_through_gain(self, singular_block, grid64):
        noise = make_noise(grid64, paths=2)
        inc = np.zeros((64, 1))
        inc[10, 0] = 0.5
        xi = SingularControl(grid64, inc)
        traj = simulate_relaxed(
            singular_block, dirac_embed(constant_strict(grid64, [0.0])), xi, noise
        )
        assert np.all(traj.states[:, :11, 0] == 1.0)
        assert np.all(traj.states[:, 11:, 0] == 1.5)


class TestVariational:
    def test_direction_equal_to_base_gives_zero(self, example2_stochastic, grid64):
        noise = make_noise(grid64, paths=8)
        base = (pm1(grid64), zero_singular(grid64, 1))
        traj = simulate_relaxed(example2_stochastic, *base, noise)
        z = simulate_variational(traj, base)
        assert np.all(z.z == 0.0)

    def test_example1_matches_ode_oracle(self, example1):
        # base relaxed optimum, direction a point mass at +1: the sensitivity
        # solves z' = 1 with z(0) = 0
        grid = TimeGrid(128, 1.0)
        noise = make_noise(grid, paths=2)
        base = (pm1(grid), zero_singular(grid, 1))
        direction = (dirac_embed(constant_strict(grid, [1.0])), zero_singular(grid, 1))
        traj = simulate_relaxed(example1, *base, noise)
        z = simulate_variational(traj, direction)
        oracle = oracles.integrate_ode(lambda t, y: [1.0], [0.0], 1.0, grid.knots)
        assert np.allclose(z.z[0, :, 0], oracle[:, 0], atol=1e-8)

    def test_singular_direction_enters_with_gain(self, singular_block, grid64):
        noise = make_noise(grid64, paths=2)
        base = (dirac_embed(constant_strict(grid64, [0.0])), zero_singular(grid64, 1))
        inc = np.zeros((64, 1))
        inc[0, 0] = 1.0
        direction = (base[0], SingularControl(grid64, inc))
        traj = simulate_relaxed(singular_block, *base, noise)
        z = simulate_variational(traj, direction)
        assert np.all(z.z[:, 1:, 0] == 1.0)

    def test_finite_difference_quotient_exact_for_affine_dynamics(
        self, example2_stochastic, grid100
    ):
        # dynamics affine in the measure: the quotient equals z identically,
        # so the statistic sits at machine precision for every theta
        noise = make_noise(grid100, paths=200, seed=17)
        base = (pm1(grid100), zero_singular(grid100, 1))
        direction = (dirac_embed(constant_strict(grid100, [1.0])), zero_singular(grid100, 1))
        traj = simulate_relaxed(example2_stochastic, *base, noise)
        z = simulate_variational(traj, direction)
        for theta in (1e-1, 1e-2, 1e-3):
            mixed = convex_combine(base, direction, theta)
            xt = simulate_relaxed(example2_stochastic, *mixed, noise)
            stat = (((xt.states - traj.states) / theta - z.z) ** 2).sum(axis=2).mean(axis=0).max()
            assert stat <= 1e-18

    def test_finite_difference_trend_on_nonlinear_drift(self, tanh_drift, grid100):
        # nonlinear drift: the remainder is first order in theta, so the
        # mean-square statistic decreases monotonically as theta shrinks
        noise = make_noise(grid100, paths=500, seed=23)
        base = (dirac_embed(constant_strict(grid100, [1.0])), zero_singular(grid100, 1))
        direction = (dirac_embed(constant_strict(grid100, [-1.0])), zero_singular(grid100, 1))
        traj = simulate_relaxed(tanh_drift, *base, noise)
        z = simulate_variational(traj, direction)
        stats = []
        for theta in (1e-1, 1e-2, 1e-3):
            mixed = convex_combine(base, direction, theta)
            xt = simulate_relaxed(tanh_drift, *mixed, noise)
            stats.append(
                (((xt.states - traj.states) / theta - z.z) ** 2).sum(axis=2).mean(axis=0).max()
            )
        assert stats[0] > stats[1] > stats[2]
        assert stats[2] < 1e-5

    def test_mean_square_continuity_in_theta(self, example2_stochastic, grid100):
        noise = make_noise(grid100, paths=500, seed=29)
        base = (pm1(grid100), zero_singular(grid100, 1))
        direction = (dirac_embed(constant_strict(grid100, [1.0])), zero_singular(grid100, 1))
        traj = simulate_relaxed(example2_stochastic, *base, noise)
        gaps = []
        for theta in (0.5, 0.1, 0.01):
            mixed = convex_combine(base, direction, theta)
            xt = simulate_relaxed(example2_stochastic, *mixed, noise)
            gaps.append(((xt.states - traj.states) ** 2).sum(axis=2).mean(axis=0).max())
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] < 1e-3


class TestFundamentalSolutions:
    def test_identity_when_gradients_vanish(self, example2_stochastic, grid64):
        noise = make_noise(grid64, paths=8)
        pair = (pm1(grid64), zero_singular(grid64, 1))
        traj = simulate_relaxed(example2_stochastic, *pair, noise)
        fund = fundamental_solutions(traj)
        assert np.all(fund.Phi == np.eye(1))
        assert np.all(fund.Psi == np.eye(1))
        assert fund.inverse_defect() == 0.0

    def test_constant_state_gradient_exponential(self, linear_drift_det):
        # b_x = 0.5, sigma = 0: Phi_T = e^{0.5 T}
        grid = TimeGrid(400, 1.0)
        noise = make_noise(grid, paths=2)
        pair = (dirac_embed(constant_strict(grid, [0.0])), zero_singular(grid, 1))
        traj = simulate_relaxed(linear_drift_det, *pair, noise)
        fund = fundamental_solutions(traj)
        target = np.exp(0.5)
        assert abs(fund.Phi[0, -1, 0, 0] - target) <= 5 * target * grid.dt
        oracle = oracles.integrate_ode(lambda t, y: 0.5 * y, [1.0], 1.0, grid.knots)
        assert np.allclose(fund.Phi[0, :, 0, 0], oracle[:, 0], atol=5e-3)

    def test_inverse_property_scales_with_dt(self, linear_drift_stoch):
        defects = {}
        for N in (100, 400):
            grid = TimeGrid(N, 1.0)
            noise = make_noise(grid, paths=64, seed=31)
            pair = (dirac_embed(constant_strict(grid, [0.0])), zero_singular(grid, 1))
            traj = simulate_relaxed(linear_drift_stoch, *pair, noise)
            fund = fundamental_solutions(traj)
            defects[N] = fund.inverse_defect()
        # defect ~ C sqrt(dt): quadrupling N should at least halve it (with slack)
        assert defects[400] <= 0.75 * defects[100]
        C = defects[100] / np.sqrt(1.0 / 100)
        assert defects[400] <= 1.5 * C * np.sqrt(1.0 / 400)

    def test_moment_bound_stable_across_seeds(self, linear_drift_stoch, grid100):
        stats = []
        for seed in (1, 2):
            noise = make_noise(grid100, paths=256, seed=seed)
            pair = (dirac_embed(constant_strict(grid100, [0.0])), zero_singular(grid100, 1))
            traj = simulate_relaxed(linear_drift_stoch, *pair, noise)
            fund = fundamental_solutions(traj)
            stat = float((fund.Phi ** 2 + fund.Psi ** 2).sum(axis=(2, 3)).max())
            stats.append(stat)
        assert all(np.isfinite(s) for s in stats)
        assert max(stats) <= 2.0 * min(stats)


@pytest.mark.parametrize("sweep", ["variational", "fundamental"])
def test_linearized_blowup_reports_first_step_and_path(tanh_drift, sweep):
    # b_x turns infinite for path 2 from step 149, path 1 from step 150 and
    # path 3 from step 199, while the state itself stays finite: the report
    # names the first knot written non-finite and, there, the first path.
    grid = TimeGrid(256, 1.0)
    first_bad_knot = {2: 149, 1: 150, 3: 199}

    def b_x(t, x, a):
        out = (1.0 - np.tanh(x) ** 2)[..., None]
        for path, knot in first_bad_knot.items():
            if t >= grid.knots[knot]:
                out[path] = np.inf
        return out

    exploding = tanh_drift.with_overrides(b_x=b_x)
    base = (dirac_embed(constant_strict(grid, [1.0])), zero_singular(grid, 1))
    direction = (dirac_embed(constant_strict(grid, [-1.0])), zero_singular(grid, 1))
    traj = simulate_relaxed(exploding, *base, make_noise(grid, paths=4))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(
            SimulationError,
            match=r"^state became non-finite at step 150, first affected path 2$",
        ):
            if sweep == "variational":
                simulate_variational(traj, direction)
            else:
                fundamental_solutions(traj)


def test_ensembles_keep_shape_and_store_knots_contiguously(example2_stochastic, grid64):
    noise = make_noise(grid64, paths=8)
    pair = (pm1(grid64), zero_singular(grid64, 1))
    traj = simulate_relaxed(example2_stochastic, *pair, noise)
    direction = (dirac_embed(constant_strict(grid64, [1.0])), zero_singular(grid64, 1))
    z = simulate_variational(traj, direction)
    fund = fundamental_solutions(traj)
    adj = adjoint_bsde(traj)
    ensembles = {
        "noise": (noise.increments, (8, 64, 1)),
        "states": (traj.states, (8, 65, 1)),
        "z": (z.z, (8, 65, 1)),
        "Phi": (fund.Phi, (8, 65, 1, 1)),
        "Psi": (fund.Psi, (8, 65, 1, 1)),
        "p": (adj.p, (8, 65, 1)),
        "P": (adj.P, (8, 65, 1, 1)),
    }
    for name, (values, shape) in ensembles.items():
        assert values.shape == shape, name
        assert values[:, 5].flags.c_contiguous, name


class TestCost:
    def test_deterministic_cost_has_zero_se(self, example1, grid64):
        noise = make_noise(grid64, paths=8)
        v = alternating_strict(grid64, 8)
        eta = zero_singular(grid64, 1)
        traj = simulate_relaxed(example1, v, eta, noise)
        est = estimate_cost(traj)
        assert est.std_error == 0.0
        assert est.value == pytest.approx(oracles.alternating_cost_on_grid(8, 64), abs=1e-14)

    def test_singular_term_is_exact_quadrature(self, singular_block, grid64):
        noise = make_noise(grid64, paths=4)
        inc = np.zeros((64, 1))
        inc[20, 0] = 1.0
        xi = SingularControl(grid64, inc)
        v = constant_strict(grid64, [0.0])
        traj = simulate_relaxed(singular_block, v, xi, noise)
        est = estimate_cost(traj)
        assert est.singular == 1.0  # kappa * unit increment

    def test_relaxed_cost_of_optimum_is_exactly_zero(self, example1, grid64):
        noise = make_noise(grid64, paths=4)
        mu = pm1(grid64)
        eta = zero_singular(grid64, 1)
        traj = simulate_relaxed(example1, mu, eta, noise)
        est = estimate_cost(traj)
        assert est.value == 0.0 and est.std_error == 0.0


class TestChatteringGap:
    def test_dirac_target_has_zero_gaps(self, example2_stochastic, grid64):
        q = dirac_embed(constant_strict(grid64, [1.0]))
        row = chattering_gap(example2_stochastic, q, zero_singular(grid64, 1), 4, 64, 7)
        assert row["traj_gap"] == 0.0
        assert row["cost_gap"] == 0.0

    def test_gap_decreases_with_n(self, example2_stochastic, grid64):
        q = pm1(grid64)
        eta = zero_singular(grid64, 1)
        rows = [chattering_gap(example2_stochastic, q, eta, n, 64, 13) for n in (4, 16)]
        # drift offset is deterministic here: (T / 2n)^2 exactly
        assert rows[0]["traj_gap"] == pytest.approx((1.0 / 8) ** 2)
        assert rows[1]["traj_gap"] == pytest.approx((1.0 / 32) ** 2)
        assert rows[1]["traj_gap"] < rows[0]["traj_gap"] / 4


def test_chattering_stability_statistic_nonincreasing(example2_stochastic, grid64):
    # documented threshold: statistic at n = 64 below 1e-4 on this problem
    q = pm1(grid64)
    eta = zero_singular(grid64, 1)
    gaps = [chattering_gap(example2_stochastic, q, eta, n, 200, 37)["traj_gap"]
            for n in (4, 16, 64)]
    assert gaps[0] >= gaps[1] >= gaps[2]
    assert gaps[2] <= 1e-4


# ---------------------------------------------------------------------------
# block kernels against the per-knot loops they replace
# ---------------------------------------------------------------------------

def reference_path_cost(spec, traj, mu, eta):
    """Per-path cost with one measure average of h per knot."""
    grid = traj.grid
    knots = grid.knots
    M = traj.num_paths
    running = np.zeros(M)
    for j in range(grid.num_steps):
        hbar = mu.average(spec.h, j, knots[j], traj.states[:, j, :])
        running = running + np.broadcast_to(hbar, (M,)) * grid.dt
    singular = float(sum(spec.k_cost(knots[j]) @ eta.increments[j]
                         for j in range(grid.num_steps)))
    terminal = np.broadcast_to(np.asarray(spec.g(traj.terminal), dtype=float), (M,))
    return terminal + running + singular


def reference_chattering_gap(spec, q, eta, n, num_paths, seed):
    """chattering_gap from two whole simulated ensembles and per-knot costs."""
    un = chattering(regrid_relaxed(q, n), n)
    refined = un.grid
    q_ref = regrid_relaxed(q, refined.num_steps)
    eta_ref = regrid_singular(eta, refined.num_steps)
    noise = NoiseBatch.generate(num_paths, refined, spec.d, (seed, n))
    x_strict = simulate_relaxed(spec, un, eta_ref, noise)
    x_relax = simulate_relaxed(spec, q_ref, eta_ref, noise)
    gap = 0.0
    for start in range(0, refined.num_steps + 1, _BLOCK_KNOTS):
        knots = slice(start, start + _BLOCK_KNOTS)
        sq = ((x_strict.states[:, knots] - x_relax.states[:, knots]) ** 2).sum(axis=2)
        gap = max(gap, float(sq.mean(axis=0).max()))
    diff = (reference_path_cost(spec, x_strict, dirac_embed(un), eta_ref)
            - reference_path_cost(spec, x_relax, q_ref, eta_ref))
    return gap, abs(float(diff.mean())), float(diff.std(ddof=1) / np.sqrt(len(diff)))


def assert_matches_reference(row, spec, q, eta, n, num_paths, seed):
    gap, cost_gap, cost_gap_se = reference_chattering_gap(spec, q, eta, n, num_paths, seed)
    assert row["traj_gap"] == gap
    assert row["cost_gap"] == pytest.approx(cost_gap, rel=1e-12, abs=0.0)
    assert row["cost_gap_se"] == pytest.approx(cost_gap_se, rel=1e-12, abs=0.0)


class TestStreamedChatteringGap:
    def test_matches_whole_ensembles_on_example2(self, example2_stochastic):
        # n = 10 cells of 10 x 2 sub-steps: 200 refined steps, three full
        # blocks and a partial one
        grid = TimeGrid(25, 1.0)
        q = constant_relaxed(grid, [[-1.0], [1.0]], [0.5, 0.5])
        eta = zero_singular(grid, 1)
        row = chattering_gap(example2_stochastic, q, eta, 10, 40, 3)
        assert row["refined_steps"] == 200
        assert row["cost_gap"] > 0.0
        assert_matches_reference(row, example2_stochastic, q, eta, 10, 40, 3)

    def test_matches_whole_ensembles_on_planar_with_singular_increments(self):
        spec = problem_from_config(planar_config())
        grid = TimeGrid(20, 1.0)
        q = constant_relaxed(grid, [[-1.0, 0.0], [1.0, 1.0]], [0.3, 0.7])
        inc = np.zeros((20, 2))
        inc[3] = [0.2, 0.0]
        inc[11] = [0.1, 0.4]
        eta = SingularControl(grid, inc)
        row = chattering_gap(spec, q, eta, 9, 24, 8)
        assert row["refined_steps"] == 162
        assert_matches_reference(row, spec, q, eta, 9, 24, 8)

    @pytest.mark.parametrize("bad_knot", [64, 150, 512])
    def test_blowup_names_the_absolute_step(self, tanh_drift, bad_knot):
        # n = 16: 16 cells of 16 x 2 sub-steps, 512 refined steps; path 1
        # leaves the finite range at the last knot of the first block,
        # inside the third block or at the horizon
        grid = TimeGrid(8, 1.0)
        refined = TimeGrid(512, 1.0)
        q = constant_relaxed(grid, [[-1.0], [1.0]], [0.5, 0.5])

        def b(t, x, a):
            out = np.tanh(x) + a
            if t >= refined.knots[bad_knot - 1]:
                out[1] = np.inf
            return out

        exploding = tanh_drift.with_overrides(b=b)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(
                SimulationError,
                match=rf"^state became non-finite at step {bad_knot}, first affected path 1$",
            ):
                chattering_gap(exploding, q, zero_singular(grid, 1), 16, 4, 5)

    def test_peak_memory_stays_below_noise_plus_one_ensemble(self, example2_stochastic):
        # n = 32: 32 cells of 32 x 2 sub-steps, 2 048 refined steps at M = 500
        M, steps = 500, 2048
        grid = TimeGrid(32, 1.0)
        q = constant_relaxed(grid, [[-1.0], [1.0]], [0.5, 0.5])
        eta = zero_singular(grid, 1)
        noise_bytes = M * steps * 8
        state_bytes = M * (steps + 1) * 8
        tracemalloc.start()
        try:
            row = chattering_gap(example2_stochastic, q, eta, 32, M, 2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert row["refined_steps"] == steps
        assert peak < noise_bytes + state_bytes

    def test_peak_memory_does_not_grow_with_the_refined_steps(self, example2_stochastic):
        # n = 32 and n = 64: 2 048 and 8 192 refined steps at M = 500, both
        # at least one noise window.  Noise held for the whole grid would
        # alone take 8 and 33 MB.
        M = 500
        grid = TimeGrid(32, 1.0)
        q = constant_relaxed(grid, [[-1.0], [1.0]], [0.5, 0.5])
        eta = zero_singular(grid, 1)
        peaks = []
        for n in (32, 64):
            tracemalloc.start()
            try:
                row = chattering_gap(example2_stochastic, q, eta, n, M, 2)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert row["refined_steps"] == 8192
        assert peaks[1] < 1.25 * peaks[0]


def test_running_block_matches_per_knot_averages(example2_stochastic):
    # The measure changes at cell 100, inside the second block; the first
    # measure carries a zero-weight atom and the second a repeated atom.
    # N = 150 leaves a partial last block.
    spec = example2_stochastic
    grid = TimeGrid(150, 1.0)
    atoms = np.empty((150, 3, 1))
    weights = np.empty((150, 3))
    atoms[:100] = [[-1.0], [0.0], [1.0]]
    weights[:100] = [0.25, 0.0, 0.75]
    atoms[100:] = [[0.5], [-1.0], [0.5]]
    weights[100:] = [0.2, 0.3, 0.5]
    mu = RelaxedControl(grid, atoms, weights)
    eta = zero_singular(grid, 1)
    traj = simulate_relaxed(spec, mu, eta, make_noise(grid, paths=12, seed=4))

    _, running, _ = _cost_terms(traj)
    expected = reference_path_cost(spec, traj, mu, eta) - spec.g(traj.terminal)
    np.testing.assert_allclose(running, expected, rtol=1e-12, atol=0.0)

    block = slice(64, 128)
    knots = grid.knots[block]
    direct = mu.block_total(spec.h, 64, knots[:, None], traj.states[:, block].swapaxes(0, 1))
    loop = sum(mu.average(spec.h, j, t, traj.states[:, j])
               for t, j in zip(knots, range(64, 128)))
    np.testing.assert_allclose(direct, loop, rtol=1e-12, atol=0.0)


@settings(max_examples=25, deadline=None)
@given(
    num_steps=st.integers(1, 200),
    num_paths=st.integers(1, 5),
    seed=st.integers(0, 2**32 - 1),
    with_singular=st.booleans(),
)
def test_dirac_embedding_is_bit_identical_to_strict_property(
    num_steps, num_paths, seed, with_singular
):
    spec = builtin_problem("example2_stochastic")
    grid = TimeGrid(num_steps, 1.0)
    rng = np.random.default_rng(seed)
    v = StrictControl(grid, rng.choice(spec.u1_grid[:, 0], size=(num_steps, 1)))
    inc = rng.exponential(size=(num_steps, 1)) * rng.integers(0, 2, size=(num_steps, 1))
    eta = SingularControl(grid, inc if with_singular else np.zeros((num_steps, 1)))
    noise = NoiseBatch.generate(num_paths, grid, spec.d, seed)
    strict = simulate_relaxed(spec, v, eta, noise)
    relaxed = simulate_relaxed(spec, dirac_embed(v), eta, noise)
    assert np.array_equal(strict.states, relaxed.states)
