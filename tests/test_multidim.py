"""Multi-dimensional problems and control-dependent diffusion.

The built-ins are all scalar with uncontrolled noise; these fixtures cover
the general tensor contracts: planar state with correlated two-channel
noise, matrix singular gain, a two-dimensional candidate grid, and a scalar
problem whose diffusion depends on the control (which drives the
diffusion-difference term of the variational equation).
"""

import numpy as np
import pytest

from singopt.adjoint import adjoint_bsde, adjoint_explicit, duality_residual
from singopt.controls import (
    RelaxedControl,
    SingularControl,
    chattering,
    constant_relaxed,
    constant_strict,
    convex_combine,
    dirac_embed,
    zero_singular,
)
from singopt.model import NoiseBatch, TimeGrid, problem_from_config, validate_problem
from singopt.optimality import minimize_hamiltonian, verify_necessary
from singopt.sde import (
    fundamental_solutions,
    simulate_relaxed,
    simulate_variational,
)

from conftest import planar_config


def controlled_noise_config():
    """Scalar problem with diffusion 0.5 + 0.4 a."""
    return {
        "name": "controlled_noise",
        "dims": {"n": 1, "d": 1, "k": 1, "m": 1},
        "horizon": 1.0,
        "x0": [0.0],
        "coefficients": {
            "drift": {"form": "affine", "control": [[1.0]]},
            "diffusion": {"form": "affine", "const": [[0.5]], "control": [[[0.4]]]},
            "singular_gain": {"form": "zero"},
            "running_cost": {"form": "quadratic", "state_quad": [[1.0]]},
            "terminal_cost": {"form": "zero"},
            "singular_cost": {"form": "zero"},
        },
        "u1_grid": [[-1.0], [0.0], [1.0]],
        "assumptions_box": {"low": [-2.0], "high": [2.0]},
    }


@pytest.fixture(scope="module")
def planar():
    return problem_from_config(planar_config())


@pytest.fixture(scope="module")
def planar_run(planar):
    grid = TimeGrid(100, 1.0)
    noise = NoiseBatch.generate(1500, grid, 2, 77)
    mu = dirac_embed(constant_strict(grid, [0.0, 0.0]))
    inc = np.zeros((100, 2))
    inc[25] = [0.1, 0.05]
    xi = SingularControl(grid, inc)
    traj = simulate_relaxed(planar, mu, xi, grid, noise)
    return grid, noise, mu, xi, traj


class TestPlanarProblem:
    def test_declared_gradients_match_finite_differences(self, planar):
        # cross-checks every tensor orientation of the affine forms
        report = validate_problem(planar, probe_seed=0)
        assert report.passed, str(report)

    def test_round_trip_through_json(self, planar):
        from singopt.model import problem_from_json, problem_to_json

        again = problem_from_json(problem_to_json(planar))
        rng = np.random.default_rng(1)
        for _ in range(20):
            t = rng.uniform(0, 1)
            x = rng.uniform(-2, 2, size=2)
            a = planar.u1_grid[rng.integers(0, 9)]
            assert planar.b(t, x, a).tolist() == again.b(t, x, a).tolist()
            assert planar.sigma(t, x, a).tolist() == again.sigma(t, x, a).tolist()

    def test_simulation_shapes_and_finiteness(self, planar, planar_run):
        grid, noise, mu, xi, traj = planar_run
        assert traj.states.shape == (1500, 101, 2)
        assert np.isfinite(traj.states).all()
        assert np.all(traj.states[:, 0] == planar.x0)

    def test_dirac_bit_identity_in_two_dimensions(self, planar, planar_run):
        grid, noise, mu, xi, _ = planar_run
        v = constant_strict(grid, [1.0, -1.0])
        xs = simulate_relaxed(planar, v, xi, grid, noise)
        xr = simulate_relaxed(planar, dirac_embed(v), xi, grid, noise)
        assert np.array_equal(xs.states, xr.states)

    def test_singular_gain_mixes_components(self, planar, planar_run):
        grid, noise, mu, xi, traj = planar_run
        flat = zero_singular(grid, 2)
        traj0 = simulate_relaxed(planar, mu, flat, grid, noise)
        jump = traj.states[:, 26] - traj0.states[:, 26]
        expected = planar.G(grid.knots[25]) @ np.array([0.1, 0.05])
        assert np.allclose(jump, expected, atol=1e-6)

    def test_inverse_defect_scales_with_dt(self, planar):
        defects = {}
        for N in (100, 400):
            grid = TimeGrid(N, 1.0)
            noise = NoiseBatch.generate(400, grid, 2, 77)
            mu = dirac_embed(constant_strict(grid, [0.0, 0.0]))
            xi = zero_singular(grid, 2)
            traj = simulate_relaxed(planar, mu, xi, grid, noise)
            defects[N] = fundamental_solutions(traj).inverse_defect()
        assert defects[100] < 0.05
        assert defects[400] <= 0.75 * defects[100]

    def test_fundamental_pair_matches_per_path_loop(self, planar):
        grid = TimeGrid(60, 1.0)
        M = 5
        noise = NoiseBatch.generate(M, grid, 2, 31)
        mu = constant_relaxed(grid, [[1.0, 0.0], [0.0, -1.0]], [0.3, 0.7])
        xi = zero_singular(grid, 2)
        traj = simulate_relaxed(planar, mu, xi, grid, noise)
        fund = fundamental_solutions(traj)
        eye = np.eye(2)
        defect = 0.0
        for m in range(M):
            Phi, Psi = [eye], [eye]
            for j in range(grid.num_steps):
                t, x = grid.knots[j], traj.states[m, j]
                cell = list(zip(mu.atoms[j], mu.weights[j]))
                bx = sum(w * planar.b_x(t, x, a) for a, w in cell)
                sx = sum(w * planar.sigma_x(t, x, a) for a, w in cell)
                dW = noise.increments[m, j]
                # dPhi = bx Phi dt + sum_i sx_i Phi dW_i
                Phi.append(Phi[j] + bx @ Phi[j] * grid.dt
                           + sum(sx[i] @ Phi[j] * dW[i] for i in range(2)))
                # dPsi = Psi (sum_i sx_i^2 - bx) dt - sum_i Psi sx_i dW_i
                sx_sq = sum(sx[i] @ sx[i] for i in range(2))
                Psi.append(Psi[j] + Psi[j] @ (sx_sq - bx) * grid.dt
                           - sum(Psi[j] @ sx[i] * dW[i] for i in range(2)))
            Phi, Psi = np.array(Phi), np.array(Psi)
            assert np.abs(fund.Phi[m] - Phi).max() <= 1e-12 * np.abs(Phi).max()
            assert np.abs(fund.Psi[m] - Psi).max() <= 1e-12 * np.abs(Psi).max()
            defect = max(defect, np.linalg.norm(Psi @ Phi - eye, axis=(-2, -1)).max())
        assert defect > 0.0
        assert fund.inverse_defect() == pytest.approx(defect, rel=1e-12)

    def test_adjoint_routes_agree(self, planar, planar_run):
        grid, noise, mu, xi, traj = planar_run
        fund = fundamental_solutions(traj)
        expl = adjoint_explicit(fund, degree=2)
        bsde = adjoint_bsde(traj, degree=2)
        assert np.array_equal(bsde.p[:, -1], expl.p[:, -1])
        agree = float(np.sqrt(np.mean((bsde.p - expl.p) ** 2)))
        assert agree <= 5e-2

    def test_duality_residual_within_allowance(self, planar, planar_run):
        grid, noise, mu, xi, traj = planar_run
        direction = (dirac_embed(constant_strict(grid, [1.0, -1.0])), xi)
        res, se = duality_residual(traj, direction)
        assert res <= 3.0 * se + 5.0 * grid.dt

    def test_minimizer_returns_grid_point(self, planar):
        x = np.array([0.2, -0.4])
        p = np.array([1.0, -2.0])
        P = np.array([[0.1, 0.0], [0.0, 0.1]])
        point, value = minimize_hamiltonian(planar, 0.3, x, p, P)
        assert any(np.array_equal(point, row) for row in planar.u1_grid)
        # direct evaluation from the coefficient functions, per grid point
        for row in planar.u1_grid:
            direct = (
                float(planar.h(0.3, x, row))
                + float(planar.b(0.3, x, row) @ p)
                + float(np.sum(planar.sigma(0.3, x, row) * P))
            )
            assert value <= direct + 1e-12

    def test_verification_report_structure(self, planar, planar_run):
        grid, noise, mu, xi, traj = planar_run
        pair = adjoint_bsde(traj, degree=2)
        report = verify_necessary(pair)
        ids = {c.condition_id for c in report.conditions}
        assert {"hamiltonian-minimality", "nonnegativity", "flat-off"} <= ids

    def test_two_dimensional_chattering_occupation(self, planar):
        grid = TimeGrid(5, 1.0)
        q = constant_relaxed(grid, [[-1.0, 1.0], [1.0, -1.0]], [0.25, 0.75])
        u = chattering(q, 4)
        occ = (u.values == np.array([-1.0, 1.0])).all(axis=1).mean()
        assert occ == 0.25
        assert {tuple(v) for v in u.values.tolist()} <= {tuple(r) for r in planar.u1_grid.tolist()}


@pytest.fixture(scope="module", name="spec")
def controlled_noise_spec():
    return problem_from_config(controlled_noise_config())


class TestControlledDiffusion:
    def test_validation_passes(self, spec):
        assert validate_problem(spec).passed

    def test_variational_equation_carries_diffusion_difference(self, spec):
        # the perturbed diffusion is affine in theta, so the difference
        # quotient must equal the sensitivity exactly; the sensitivity itself
        # is driven by the diffusion-difference term and is far from zero
        grid = TimeGrid(100, 1.0)
        noise = NoiseBatch.generate(400, grid, 1, 9)
        base = (constant_relaxed(grid, [[-1.0], [1.0]], [0.5, 0.5]), zero_singular(grid, 1))
        direction = (dirac_embed(constant_strict(grid, [1.0])), zero_singular(grid, 1))
        traj = simulate_relaxed(spec, *base, grid, noise)
        z = simulate_variational(traj, direction)
        assert float(np.abs(z.z).max()) > 0.5
        for theta in (1e-1, 1e-3):
            mixed = convex_combine(base, direction, theta)
            xt = simulate_relaxed(spec, *mixed, grid, noise)
            stat = (((xt.states - traj.states) / theta - z.z) ** 2).sum(axis=2).mean(axis=0).max()
            assert stat <= 1e-18

    def test_hamiltonian_sees_diffusion_through_P(self, spec):
        # H(a) - H(-a) picks up both the drift pairing 2 a p and the
        # diffusion pairing 0.8 a P
        from singopt.optimality import strict_hamiltonian_batch

        x, p, P = np.array([[0.0]]), np.array([[0.7]]), np.array([[[-1.3]]])
        plus = strict_hamiltonian_batch(spec, 0.0, x, np.array([1.0]), p, P)[0]
        minus = strict_hamiltonian_batch(spec, 0.0, x, np.array([-1.0]), p, P)[0]
        assert plus - minus == pytest.approx(2 * 0.7 + 0.8 * -1.3)

    def test_argmin_follows_the_diffusion_price(self, spec):
        # with zero drift price, the minimizer trades off only through P
        point, _ = minimize_hamiltonian(spec, 0.0, [0.0], [0.0], [[3.0]])
        assert point.tolist() == [-1.0]
        point, _ = minimize_hamiltonian(spec, 0.0, [0.0], [0.0], [[-3.0]])
        assert point.tolist() == [1.0]
