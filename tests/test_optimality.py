"""Hamiltonians, grid minimization, necessary conditions, sufficiency."""

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from singopt import adjoint, optimality
from singopt.adjoint import adjoint_bsde, adjoint_routes, variational_inequality_value
from singopt.controls import (
    ControlError,
    SingularControl,
    StrictControl,
    as_relaxed,
    constant_relaxed,
    constant_strict,
    dirac_embed,
    zero_singular,
)
from singopt.model import NoiseBatch, TimeGrid, builtin_problem, problem_from_config
from singopt.optimality import (
    Tolerances,
    certify_sufficient,
    minimize_hamiltonian,
    relaxed_hamiltonian_batch,
    strict_hamiltonian_batch,
    verify_necessary,
)
from singopt.sde import SimulationError, estimate_cost, simulate_relaxed

from conftest import linear_drift_config, planar_config, reaped, tanh_drift_problem


def zero_h_problem():
    cfg = linear_drift_config()
    cfg["name"] = "drift_only"
    cfg["coefficients"]["drift"] = {"form": "affine", "control": [[1.0]]}
    cfg["coefficients"]["running_cost"] = {"form": "zero"}
    cfg["coefficients"]["terminal_cost"] = {"form": "zero"}
    return problem_from_config(cfg)


def point_hamiltonian(spec, t, x, v, p, P):
    """H at one point, as a batch of one."""
    x, p, P = (np.asarray(a, dtype=float)[None] for a in (x, p, P))
    return float(strict_hamiltonian_batch(spec, t, x, np.asarray(v, dtype=float), p, P)[0])


def point_relaxed_hamiltonian(spec, t, x, atoms, weights, p, P):
    """Measure-averaged H at one point, as a batch of one."""
    x, p, P = (np.asarray(a, dtype=float)[None] for a in (x, p, P))
    q = constant_relaxed(TimeGrid(1, 1.0), atoms, weights)
    return float(relaxed_hamiltonian_batch(spec, t, x, q, 0, p, P)[0])


def verified(spec, control, singular=None, N=100, M=16, seed=3, degree=1, tol=None):
    grid = TimeGrid(N, spec.horizon)
    noise = NoiseBatch.generate(M, grid, spec.d, seed)
    mu = as_relaxed(control)
    xi = singular if singular is not None else zero_singular(grid, spec.m)
    traj = simulate_relaxed(spec, mu, xi, noise)
    pair = adjoint_bsde(traj, degree=degree)
    report = verify_necessary(pair, tol or Tolerances())
    return grid, noise, traj, pair, report


class TestHamiltonianStrict:
    def test_all_zero_coefficients(self):
        spec = zero_h_problem().with_overrides(
            b=lambda t, x, a: np.zeros_like(x), b_x=lambda t, x, a: np.zeros(np.shape(x)[:-1] + (1, 1))
        )
        assert point_hamiltonian(spec, 0.1, [0.5], [1.0], [2.0], [[3.0]]) == 0.0

    def test_pure_drift_pairing(self):
        spec = zero_h_problem()
        # b = a, sigma = 0, h = 0: H = a . p
        assert point_hamiltonian(spec, 0.0, [0.0], [2.0], [3.0], [[0.0]]) == 6.0

    def test_example2_substitution(self, example2_separated):
        val = point_hamiltonian(example2_separated, 0.0, [0.0], [0.0], [0.0], [[0.0]])
        assert val == pytest.approx(1.0)

    def test_diffusion_pairs_frobenius(self, example2_stochastic):
        # sigma = 1 constant: the sigma term contributes P directly
        v1 = point_hamiltonian(example2_stochastic, 0.0, [0.0], [1.0], [0.0], [[2.5]])
        v0 = point_hamiltonian(example2_stochastic, 0.0, [0.0], [1.0], [0.0], [[0.0]])
        assert v1 - v0 == 2.5


class TestHamiltonianRelaxed:
    def test_dirac_reduction_exact(self, example2_separated):
        rng = np.random.default_rng(2)
        for _ in range(10):
            x, p, P = rng.normal(size=3)
            v = example2_separated.u1_grid[rng.integers(0, 21)]
            spec = example2_separated
            relaxed = point_relaxed_hamiltonian(spec, 0.3, [x], [v], [1.0], [p], [[P]])
            assert relaxed == point_hamiltonian(spec, 0.3, [x], v, [p], [[P]])

    def test_symmetric_two_point_measure_cancels(self, example2_separated):
        for p in (-3.0, 0.0, 7.0):
            assert point_relaxed_hamiltonian(
                example2_separated, 0.0, [0.0], [[-1.0], [1.0]], [0.5, 0.5], [p], [[0.0]]
            ) == 0.0

    @pytest.mark.parametrize("w", [0.0, 0.25, 0.5, 1.0])
    def test_affine_in_weights(self, example2_separated, w):
        a0, a1 = np.array([-1.0]), np.array([1.0])
        def H(v):
            return point_hamiltonian(example2_separated, 0.0, [0.4], v, [1.3], [[0.0]])
        if w in (0.0, 1.0):
            atoms, weights = [a1 if w == 1.0 else a0], [1.0]
        else:
            atoms, weights = [a0, a1], [1.0 - w, w]
        val = point_relaxed_hamiltonian(
            example2_separated, 0.0, [0.4], atoms, weights, [1.3], [[0.0]]
        )
        assert val == pytest.approx((1 - w) * H(a0) + w * H(a1), abs=1e-14)


class TestMinimizeHamiltonian:
    def test_linear_hamiltonian_picks_opposite_sign(self, example1):
        point, value = minimize_hamiltonian(example1, 0.0, [0.0], [2.0], [[0.0]])
        assert point.tolist() == [-1.0]
        assert value == -2.0

    def test_tie_breaks_to_lexicographically_smallest(self, example2_separated):
        # at x = 0, p = 0 the cost term (1 - v^2)^2 ties at +-1
        point, value = minimize_hamiltonian(example2_separated, 0.0, [0.0], [0.0], [[0.0]])
        assert value == 0.0
        assert point.tolist() == [-1.0]

    def test_brute_force_measures_never_beat_dirac_minimum(self, example2_separated):
        rng = np.random.default_rng(8)
        t, x, p, P = 0.2, [0.3], [0.7], [[0.0]]
        _, vmin = minimize_hamiltonian(example2_separated, t, x, p, P)
        grid_pts = example2_separated.u1_grid
        strict_vals = np.array(
            [point_hamiltonian(example2_separated, t, x, v, p, P) for v in grid_pts]
        )
        hit = False
        for w in oracles.random_discrete_measures(grid_pts, rng, 500):
            val = float(w @ strict_vals)
            assert val >= vmin - 1e-12
            hit = hit or np.isclose(val, vmin)
        # equality is attained by the Dirac at the argmin itself
        assert np.isclose(strict_vals.min(), vmin)

    def test_argmin_invariant_under_state_only_shift(self, example2_separated):
        shifted_cfg = dict(example2_separated.config)
        coeffs = dict(shifted_cfg["coefficients"])
        rc = dict(coeffs["running_cost"])
        rc["const"] = 17.5  # control-independent offset
        coeffs["running_cost"] = rc
        shifted_cfg["coefficients"] = coeffs
        shifted = problem_from_config(shifted_cfg)
        for p in (-1.0, 0.5, 2.0):
            a1, v1 = minimize_hamiltonian(example2_separated, 0.1, [0.2], [p], [[0.0]])
            a2, v2 = minimize_hamiltonian(shifted, 0.1, [0.2], [p], [[0.0]])
            assert a1.tolist() == a2.tolist()
            assert v2 == pytest.approx(v1 + 17.5)


# ---------------------------------------------------------------------------
# the stacked evaluation over control points (hypothesis)
# ---------------------------------------------------------------------------

@st.composite
def _arrays(draw, shape):
    values = st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False)
    size = int(np.prod(shape))
    return np.array(draw(st.lists(values, min_size=size, max_size=size))).reshape(shape)


@st.composite
def form_problems(draw):
    """A form-built problem with n, d, k in {1, 2}, each form term on or off."""
    n, d, k = (draw(st.integers(1, 2)) for _ in range(3))

    def terms(**shapes):
        return {key: draw(_arrays(shape)).tolist()
                for key, shape in shapes.items() if draw(st.booleans())}

    running = terms(state_quad=(n, n), state_lin=(n,), const=())
    if draw(st.booleans()):
        running["control_poly"] = [draw(_arrays((draw(st.integers(1, 5)),))).tolist()
                                   for _ in range(k)]
    return problem_from_config({
        "name": "random_forms",
        "dims": {"n": n, "d": d, "k": k, "m": 1},
        "horizon": 1.0,
        "x0": [0.0] * n,
        "coefficients": {
            "drift": {"form": "affine", **terms(const=(n,), state=(n, n), control=(n, k))},
            "diffusion": {"form": "affine",
                          **terms(const=(n, d), state=(d, n, n), control=(d, n, k))},
            "running_cost": {"form": "quadratic", **running},
        },
        "u1_grid": draw(_arrays((draw(st.integers(1, 6)), k))).tolist(),
        "assumptions_box": {"low": [-2.0] * n, "high": [2.0] * n},
    })


def _check_stacked_matches_points(spec, draw):
    M = draw(st.integers(1, 4))
    t = draw(st.floats(0.0, 1.0))
    x, p = draw(_arrays((M, spec.n))), draw(_arrays((M, spec.n)))
    P = draw(_arrays((M, spec.n, spec.d)))
    # a second, different stack: the remembered control part must not leak
    for U in (spec.u1_grid, draw(_arrays((draw(st.integers(1, 6)), spec.k)))):
        stacked = strict_hamiltonian_batch(spec, t, x, U, p, P)
        points = np.stack([strict_hamiltonian_batch(spec, t, x, u, p, P) for u in U])
        assert stacked.shape == (len(U), M)
        assert stacked.tobytes() == points.tobytes()
    # minimize_hamiltonian agrees with the per-point loop, ties included
    values = np.array([point_hamiltonian(spec, t, x[0], u, p[0], P[0]) for u in spec.u1_grid])
    tied = [tuple(u) for u, v in zip(spec.u1_grid.tolist(), values) if v == values.min()]
    point, value = minimize_hamiltonian(spec, t, x[0], p[0], P[0])
    assert tuple(point.tolist()) == min(tied)
    assert value == values.min()


@settings(max_examples=80, deadline=None)
@given(spec=form_problems(), data=st.data())
def test_stacked_hamiltonian_is_the_per_point_stack_on_forms(spec, data):
    _check_stacked_matches_points(spec, data.draw)


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_stacked_hamiltonian_is_the_per_point_stack_on_custom_callables(data):
    spec = tanh_drift_problem()
    assert not hasattr(spec.h, "control_part")
    _check_stacked_matches_points(spec, data.draw)


@pytest.mark.parametrize("per_path", [False, True], ids=["shared", "per-path"])
@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_diffusion_gradient_is_the_einsum(n, d, per_path):
    # the backward sweep's sum_i sbar_x,i^T P_i, for sbar_x shared by the
    # paths (a form without a state term) or one per path
    M = 300
    rng = np.random.default_rng(10 * n + d)
    shape = (M, d, n, n) if per_path else (d, n, n)
    sx = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 8, shape)
    P = rng.standard_normal((M, n, d)) * 10.0 ** rng.integers(-8, 8, (M, n, d))
    reference = np.einsum("mjqp,mqj->mp", np.broadcast_to(sx, (M, d, n, n)), P)
    gradient = adjoint._diffusion_gradient(sx, P)
    if n == 1 and d >= 3:
        # einsum sums the channels in two lanes here: equal up to rounding
        scale = np.einsum("mjqp,mqj->mp", np.abs(np.broadcast_to(sx, (M, d, n, n))), np.abs(P))
        assert np.all(np.abs(gradient - reference) <= 2 * d * np.finfo(float).eps * scale)
    else:
        assert gradient.tobytes() == reference.tobytes()


class TestVerifyNecessary:
    def test_relaxed_optimum_passes_with_zero_gap(self, example2_separated):
        grid = TimeGrid(100, 1.0)
        mu = constant_relaxed(grid, [[-1.0], [1.0]], [0.5, 0.5])
        *_, report = verified(example2_separated, mu)
        assert report.passed
        mini = next(c for c in report.conditions if c.condition_id == "hamiltonian-minimality")
        assert mini.statistic <= 1e-9
        assert "fraction 0" in mini.detail

    def test_zero_control_fails_with_unit_gap(self, example2_separated):
        grid = TimeGrid(100, 1.0)
        *_, report = verified(example2_separated, constant_strict(grid, [0.0]))
        assert not report.passed
        mini = next(c for c in report.conditions if c.condition_id == "hamiltonian-minimality")
        assert mini.statistic == pytest.approx(1.0, abs=1e-9)

    def test_missing_adjoint_is_an_error(self):
        with pytest.raises(ValueError, match="adjoint"):
            verify_necessary(None)

    def test_singular_block_flat_candidate_passes(self, singular_block):
        grid = TimeGrid(100, 1.0)
        *_, report = verified(singular_block, constant_strict(grid, [0.0]))
        assert report.passed
        slack = next(c for c in report.conditions if c.condition_id == "nonnegativity")
        assert slack.statistic >= 1.0  # kappa + 2(T - t) >= kappa

    def test_injected_increment_fails_flat_off_only(self, singular_block):
        grid = TimeGrid(100, 1.0)
        inc = np.zeros((100, 1))
        inc[40, 0] = 1.0
        *_, report = verified(
            singular_block, constant_strict(grid, [0.0]), SingularControl(grid, inc)
        )
        by_id = {c.condition_id: c for c in report.conditions}
        assert by_id["nonnegativity"].passed
        assert not by_id["flat-off"].passed
        assert by_id["flat-off"].statistic == pytest.approx(1.0)

    def test_self_consistency_gap_exactly_zero(self, singular_block):
        # single grid point: the candidate is trivially the pointwise argmin
        grid = TimeGrid(50, 1.0)
        *_, report = verified(singular_block, constant_strict(grid, [0.0]), N=50)
        mini = next(c for c in report.conditions if c.condition_id == "hamiltonian-minimality")
        assert mini.statistic == 0.0

    def test_report_serializes_with_config_echo(self, example2_separated):
        grid = TimeGrid(20, 1.0)
        noise = NoiseBatch.generate(8, grid, 1, 5)
        mu = constant_relaxed(grid, [[-1.0], [1.0]], [0.5, 0.5])
        xi = zero_singular(grid, 1)
        traj = simulate_relaxed(example2_separated, mu, xi, noise)
        pair = adjoint_bsde(traj, degree=1)
        report = verify_necessary(pair, config_echo={"seed": 5, "N": 20, "M": 8})
        blob = report.as_dict()
        assert blob["passed"] is True
        assert blob["config"]["seed"] == 5
        assert {c["id"] for c in blob["conditions"]} >= {
            "hamiltonian-minimality", "nonnegativity", "flat-off",
        }


def one_pass_case(name):
    """(problem, control, singular) on a 40-step grid; singular_block and
    the planar problem carry nonzero increments where the slack is positive,
    and example2_separated at relaxed_pm1 has p = 0, so the path-mean H of
    the grid points -1 and +1 tie exactly at every knot."""
    grid = TimeGrid(40, 1.0)
    inc = np.zeros((40, 1))
    inc[[5, 17, 30], 0] = [0.3, 1.0, 0.2]
    pm1 = constant_relaxed(grid, [[-1.0], [1.0]], [0.5, 0.5])
    if name == "example2_stochastic":
        return builtin_problem(name), pm1, SingularControl(grid, inc)
    if name == "singular_block":
        return builtin_problem(name), constant_strict(grid, [0.0]), SingularControl(grid, inc)
    if name == "planar":
        xi = SingularControl(grid, np.column_stack([inc[:, 0], inc[::-1, 0]]))
        return problem_from_config(planar_config()), constant_strict(grid, [1.0, 0.0]), xi
    return builtin_problem("example2_separated"), pm1, zero_singular(grid, 1)


def pointwise_argmin(spec, traj, pair, grid):
    """Per knot, the index of the grid point of least path-mean H, ties to
    the lexicographically smallest point; also the number of tied knots."""
    order = np.lexsort(spec.u1_grid.T[::-1])
    best, ties = [], 0
    for j, t in enumerate(grid.knots[:-1]):
        xj, pj, Pj = traj.states[:, j], pair.p[:, j], pair.P[:, j]
        means = np.stack(
            [strict_hamiltonian_batch(spec, t, xj, v, pj, Pj) for v in spec.u1_grid]
        ).mean(axis=1)[order]
        best.append(order[np.argmin(means)])
        ties += int(np.count_nonzero(means == means.min()) > 1)
    return np.array(best), ties


def slack_ensemble_statistics(spec, xi, pair, grid, tol):
    """Minimum slack and worst flat-off mass from the whole (M, N, m) slack
    ensemble."""
    slack = np.stack(
        [spec.k_cost(t) + np.einsum("pq,mp->mq", spec.G(t), pair.p[:, j, :])
         for j, t in enumerate(grid.knots[:-1])],
        axis=1,
    )
    per_path = np.einsum("mjq,jq->m", (slack > tol.tol_S).astype(float), xi.increments)
    return float(slack.min()), float(per_path.max())


@pytest.mark.parametrize("name", ["example2_stochastic", "singular_block", "planar",
                                  "argmin-tie"])
def test_one_pass_verifier_matches_reference_formulas(name):
    spec, control, xi = one_pass_case(name)
    grid, _, traj, pair, report = verified(spec, control, xi, N=40, M=64, seed=5, degree=2)
    by_id = {c.condition_id: c for c in report.conditions}

    best, ties = pointwise_argmin(spec, traj, pair, grid)
    assert (ties == grid.num_steps) == (name == "argmin-tie")
    direction = (dirac_embed(StrictControl(grid, spec.u1_grid[best])),
                 zero_singular(grid, spec.m))
    value, se = variational_inequality_value(pair, direction)
    vi = by_id["variational-inequality[pointwise-argmin]"]
    assert (vi.statistic, vi.std_error) == (value, se)

    min_slack, worst_mass = slack_ensemble_statistics(spec, xi, pair, grid, Tolerances())
    assert by_id["nonnegativity"].statistic == pytest.approx(min_slack, rel=1e-12, abs=0.0)
    assert by_id["flat-off"].statistic == pytest.approx(worst_mass, rel=1e-12, abs=0.0)
    if name in ("singular_block", "planar"):
        assert worst_mass > 0.0


class TestCertifySufficient:
    def test_separated_optimum_is_certified(self, example2_separated):
        grid = TimeGrid(100, 1.0)
        mu = constant_relaxed(grid, [[-1.0], [1.0]], [0.5, 0.5])
        grid, noise, traj, pair, _ = verified(example2_separated, mu)
        cert = certify_sufficient(pair)
        assert cert.certified

    def test_concave_terminal_cost_blocks_certification(self, example2_separated):
        cfg = dict(example2_separated.config)
        coeffs = dict(cfg["coefficients"])
        coeffs["terminal_cost"] = {"form": "quadratic", "state_quad": [[-1.0]]}
        cfg["coefficients"] = coeffs
        concave = problem_from_config(cfg)
        grid = TimeGrid(50, 1.0)
        mu = constant_relaxed(grid, [[-1.0], [1.0]], [0.5, 0.5])
        grid, noise, traj, pair, _ = verified(concave, mu, N=50)
        cert = certify_sufficient(pair)
        assert not cert.certified
        assert not [c for c in cert.convexity if c.subject == "terminal_cost"][0].passed

    def test_failed_minimality_blocks_certification(self, example2_separated):
        grid = TimeGrid(50, 1.0)
        v0 = constant_strict(grid, [0.0])
        grid, noise, traj, pair, _ = verified(example2_separated, v0, N=50)
        cert = certify_sufficient(pair)
        assert not cert.certified
        assert all(c.passed for c in cert.convexity)  # convexity holds; conditions fail

    def test_probe_route_on_custom_callables(self, tanh_drift):
        # no declared forms: convexity must come from midpoint probes
        grid = TimeGrid(40, 1.0)
        noise = NoiseBatch.generate(32, grid, 1, 9)
        mu = dirac_embed(constant_strict(grid, [1.0]))
        xi = zero_singular(grid, 1)
        traj = simulate_relaxed(tanh_drift, mu, xi, noise)
        pair = adjoint_bsde(traj, degree=1)
        cert = certify_sufficient(pair, probe_pairs=200)
        evid = {c.subject: c for c in cert.convexity}
        assert "midpoint probe" in evid["terminal_cost"].evidence
        assert evid["terminal_cost"].passed  # g = 0 is convex
        # H = x^2 + (a + tanh x) p is not convex in x for negative p regions,
        # so the probe is allowed to fail; it must still produce evidence
        assert "midpoint probe" in evid["hamiltonian_in_state"].evidence

    def test_overridden_drift_takes_the_probe_route(self, example2_stochastic):
        # a form-built problem whose drift is swapped for one without the
        # state/control split may be nonlinear in x, b = a + tanh(x), so the
        # declared forms are no evidence of convexity
        spec = example2_stochastic.with_overrides(
            b=lambda t, x, a: np.asarray(a, dtype=float) + np.tanh(x),
            b_x=lambda t, x, a: (1.0 - np.tanh(x) ** 2)[..., None],
        )
        grid = TimeGrid(20, spec.horizon)
        mu = constant_relaxed(grid, [[-1.0], [1.0]], [0.5, 0.5])
        *_, pair, _ = verified(spec, mu, N=20, M=400, seed=5, degree=2)
        evid = {c.subject: c for c in certify_sufficient(pair).convexity}
        assert "midpoint probe" in evid["hamiltonian_in_state"].evidence

    def test_overridden_terminal_cost_takes_the_probe_route(self, example2_stochastic):
        # g swapped for the concave -|x|^2: the quadratic form of the original
        # g must not vouch for it
        spec = example2_stochastic.with_overrides(
            g=lambda x: -(np.asarray(x, dtype=float) ** 2).sum(axis=-1),
            g_x=lambda x: -2.0 * np.asarray(x, dtype=float),
        )
        grid = TimeGrid(20, spec.horizon)
        mu = constant_relaxed(grid, [[-1.0], [1.0]], [0.5, 0.5])
        *_, pair, _ = verified(spec, mu, N=20, M=400, seed=5, degree=2)
        cert = certify_sufficient(pair)
        terminal = {c.subject: c for c in cert.convexity}["terminal_cost"]
        assert "midpoint probe" in terminal.evidence
        assert not terminal.passed
        assert not cert.certified

    def test_probe_evidence_is_read_after_the_sweep(self, tanh_drift):
        # no form split: the state-to-Hamiltonian probe runs after the sweep,
        # at the path means kept per knot, in knot order and in the probe
        # generator's order, so its evidence is the one written when the
        # probes ran before the conditions; a swept and a stored pair agree
        spec = tanh_drift.with_overrides(
            g=lambda x: 5.0 * (x ** 2).sum(axis=-1), g_x=lambda x: 10.0 * x
        )
        grid = TimeGrid(20, 1.0)
        mu = dirac_embed(constant_strict(grid, [1.0]))
        noise = NoiseBatch.generate(64, grid, 1, 5)
        traj = simulate_relaxed(spec, mu, zero_singular(grid, 1), noise)
        swept = certify_sufficient(adjoint.BackwardSweep(traj, degree=2), probe_pairs=200)
        stored = certify_sufficient(adjoint_bsde(traj, degree=2), probe_pairs=200)
        assert swept.as_dict() == stored.as_dict()
        assert [c.evidence for c in swept.convexity] == [
            "midpoint probe over 200 pairs, worst defect -3.96e-05",
            "midpoint probe at path-mean adjoint values, 200 pairs per slice, worst defect 6.87",
        ]

    def test_probe_rejects_nonfinite_hamiltonian(self, tanh_drift):
        # the running cost is infinite at the atom +1, so the measure-averaged
        # Hamiltonian that the convexity probe evaluates is not finite
        spec = tanh_drift.with_overrides(
            h=lambda t, x, a: np.where(np.asarray(a)[0] > 0, np.inf, 0.0) + 0.0 * x[..., 0]
        )
        grid = TimeGrid(10, 1.0)
        noise = NoiseBatch.generate(8, grid, 1, 9)
        mu = constant_relaxed(grid, [[-1.0], [1.0]], [0.5, 0.5])
        xi = zero_singular(grid, 1)
        traj = simulate_relaxed(spec, mu, xi, noise)
        pair = adjoint_bsde(traj, degree=1)
        with pytest.raises(ControlError, match="not finite .* cell 0"):
            certify_sufficient(pair, probe_pairs=20)

    def test_flat_singular_control_optimal_by_enumeration(self, singular_block):
        # brute force over a small grid of nondecreasing singular controls:
        # every increment pattern costs at least as much as no increments
        from itertools import product

        grid = TimeGrid(4, 1.0)
        noise = NoiseBatch.generate(2, grid, 1, 1)
        v = constant_strict(grid, [0.0])
        base = estimate_cost(
            simulate_relaxed(singular_block, dirac_embed(v), zero_singular(grid, 1),
                             noise),
        )
        for pattern in product((0.0, 0.5, 1.0), repeat=4):
            xi = SingularControl(grid, np.array(pattern)[:, None])
            traj = simulate_relaxed(singular_block, dirac_embed(v), xi, noise)
            cost = estimate_cost(traj)
            assert cost.value >= base.value - 1e-12
            if any(pattern):
                assert cost.value > base.value

    def test_certified_candidate_beats_random_competitors(self, singular_block):
        grid = TimeGrid(100, 1.0)
        grid, noise, traj, pair, _ = verified(singular_block, constant_strict(grid, [0.0]))
        cert = certify_sufficient(pair)
        assert cert.certified
        base_cost = estimate_cost(traj)
        rng = np.random.default_rng(12)
        for _ in range(50):
            v, eta = oracles.random_competitor(singular_block, grid, rng)
            comp_traj = simulate_relaxed(
                singular_block, dirac_embed(v), eta, noise
            )
            comp = estimate_cost(comp_traj)
            margin = 3.0 * (base_cost.std_error + comp.std_error)
            assert comp.value >= base_cost.value - margin


class TestPairWithoutP:
    """dx = (0.2 + a) dW with h = g = x^2: the control enters only the
    diffusion, so only P prices it, and a pair without P (the explicit
    route) must not be verified as if P = 0."""

    @pytest.fixture(scope="class")
    def traj(self):
        cfg = linear_drift_config()
        cfg["coefficients"]["drift"] = {"form": "zero"}
        cfg["coefficients"]["diffusion"] = {
            "form": "affine", "const": [[0.2]], "control": [[[1.0]]]
        }
        spec = problem_from_config(cfg)
        grid = TimeGrid(50, spec.horizon)
        noise = NoiseBatch.generate(4000, grid, spec.d, 5)
        return simulate_relaxed(spec, constant_strict(grid, [1.0]), zero_singular(grid, 1),
                                noise)

    def test_backward_sweep_pair_rejects_the_candidate(self, traj):
        by_id = {c.condition_id: c for c in verify_necessary(adjoint_bsde(traj)).conditions}
        assert not by_id["hamiltonian-minimality"].passed
        assert not by_id["variational-inequality[pointwise-argmin]"].passed

    @pytest.mark.parametrize("check", ["verify", "certify", "vi"])
    def test_explicit_pair_is_refused(self, traj, check):
        pair, _ = adjoint_routes(traj)
        direction = (dirac_embed(constant_strict(traj.grid, [0.0])), traj.singular)
        run = {
            "verify": lambda: verify_necessary(pair),
            "certify": lambda: certify_sufficient(pair),
            "vi": lambda: variational_inequality_value(pair, direction),
        }[check]
        with pytest.raises(ValueError, match="explicit route.*adjoint_bsde"):
            run()


def pm1_run(spec, atoms=((-1.0,), (1.0,)), N=20, M=64, seed=6):
    """spec's paths under the constant two-atom measure of equal weights."""
    grid = TimeGrid(N, spec.horizon)
    noise = NoiseBatch.generate(M, grid, spec.d, seed)
    mu = constant_relaxed(grid, [list(a) for a in atoms], [0.5, 0.5])
    return simulate_relaxed(spec, mu, zero_singular(grid, spec.m), noise)


class TestNonfiniteHamiltonian:
    """An infinite running cost is a numerical failure that names the first
    knot of the sweep (j = N-1) where it shows, not a verdict."""

    @staticmethod
    def infinite_at(spec, point):
        def h(t, x, a):
            return spec.h(t, x, a) + (np.inf if a[0] == point else 0.0)

        return spec.with_overrides(h=h)

    @pytest.mark.parametrize("check", [verify_necessary, certify_sufficient],
                             ids=["verify", "certify"])
    @pytest.mark.parametrize("source", ["sweep", "stored"])
    def test_at_a_grid_point_the_candidate_does_not_play(self, example2_stochastic, check,
                                                         source):
        # the probe of certify reads H at the candidate's atoms only, where it is finite
        traj = pm1_run(self.infinite_at(example2_stochastic, 0.0))
        pair = adjoint.BackwardSweep(traj, 1) if source == "sweep" else adjoint_bsde(traj, 1)
        with pytest.raises(SimulationError,
                           match="^Hamiltonian is not finite on the candidate grid at knot 19$"):
            check(pair)

    def test_at_a_candidate_atom_off_the_grid(self, example2_stochastic):
        traj = pm1_run(self.infinite_at(example2_stochastic, 0.05), atoms=((-1.0,), (0.05,)))
        with pytest.raises(SimulationError, match="^first-order value is not finite at knot 19$"):
            verify_necessary(adjoint.BackwardSweep(traj, 1))


class TestSweepWorker:
    """The backward sweep steps on model._ahead's worker, one knot ahead of
    the checks: a forked process when the process runs one thread, else a
    thread.  The autouse fixtures fail a leaked thread, child or pipe."""

    @pytest.fixture
    def traj(self, worker, example2_stochastic):
        return pm1_run(example2_stochastic)

    def test_knots_are_the_stored_pair_bit_for_bit(self, traj):
        # a knot's slot is reused two knots on, so each one is read at once
        stored, healths = adjoint_bsde(traj, 2), []
        for j, p, P, health in adjoint.BackwardSweep(traj, 2).knots():
            assert p.tobytes() == stored.p[:, j].tobytes()
            assert P.tobytes() == stored.P[:, j].tobytes()
            assert [type(value) for value in health] == [float, int, float]
            healths.append(health)
        assert len(healths) == 20
        residual, loss, cond = map(max, zip(*healths))
        assert {"max_residual_rms": residual, "max_rank_loss": loss, "max_basis_cond": cond} \
            == {key: stored.diagnostics[key]
                for key in ("max_residual_rms", "max_rank_loss", "max_basis_cond")}

    def test_closing_the_sweep_early_stops_the_worker(self, traj, worker, no_unreaped_children):
        threads = threading.active_count()
        knots = adjoint.BackwardSweep(traj, 2).knots()
        j, *_ = next(knots)
        knots.close()
        assert j == 19
        assert threading.active_count() == threads
        assert len(no_unreaped_children) == (worker == "fork")
        assert all(reaped(pid) for pid in no_unreaped_children)

    def test_a_check_that_raises_mid_sweep_stops_the_worker(self, traj, worker, monkeypatch,
                                                           no_unreaped_children):
        argmin, calls = optimality._grid_argmin, []

        def failing(u1_grid, values):
            calls.append(None)
            if len(calls) == 3:
                raise RuntimeError("third knot")
            return argmin(u1_grid, values)

        monkeypatch.setattr(optimality, "_grid_argmin", failing)
        threads = threading.active_count()
        with pytest.raises(RuntimeError, match="^third knot$"):
            verify_necessary(adjoint.BackwardSweep(traj, 2))
        assert threading.active_count() == threads
        assert len(no_unreaped_children) == (worker == "fork")
        assert all(reaped(pid) for pid in no_unreaped_children)
