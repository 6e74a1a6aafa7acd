"""Control types, measure averaging, convex perturbation, chattering."""

import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from singopt.cli import ConfigError, build_candidate
from singopt.coefficients import build_coefficients
from singopt.controls import (
    ChatteringError,
    ControlError,
    RelaxedControl,
    SingularControl,
    StrictControl,
    alternating_strict,
    chattering,
    constant_relaxed,
    constant_strict,
    control_from_obj,
    control_to_obj,
    convex_combine,
    dirac_embed,
    regrid_relaxed,
    regrid_singular,
    zero_singular,
)
from singopt.model import TimeGrid, builtin_problem


def pm1(grid):
    return constant_relaxed(grid, [[-1.0], [1.0]], [0.5, 0.5])


def average(atoms, weights, f):
    """Average of f(atom) over one cell's measure, by the library's routine."""
    q = constant_relaxed(TimeGrid(1, 1.0), atoms, weights)
    return q.average(lambda t, x, a: f(a), 0, 0.0, None)


def positive(q, j):
    """Atoms and weights of cell j of a relaxed control, padding dropped."""
    keep = q.weights[j] > 0
    return q.atoms[j][keep], q.weights[j][keep]


class TestIntegrate:
    def test_dirac_returns_point_value(self):
        assert average([[2.0]], [1.0], lambda a: 3.0 * a[0]) == 6.0

    def test_symmetric_measure_kills_odd_integrand(self):
        assert average([[-1.0], [1.0]], [0.5, 0.5], lambda a: a[0]) == 0.0

    def test_double_well_integrand_vanishes_at_atoms(self):
        assert average([[-1.0], [1.0]], [0.5, 0.5], lambda a: (1 - a[0] ** 2) ** 2) == 0.0

    def test_linearity_to_machine_precision(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            raw = rng.exponential(size=4)
            atoms, weights = rng.normal(size=(4, 1)), raw / raw.sum()
            alpha, beta = rng.normal(size=2)
            f = lambda a: np.sin(a[0])
            g = lambda a: a[0] ** 3
            lhs = average(atoms, weights, lambda a: alpha * f(a) + beta * g(a))
            rhs = alpha * average(atoms, weights, f) + beta * average(atoms, weights, g)
            assert abs(lhs - rhs) < 1e-12

    def test_vector_valued_integrand(self):
        out = average([[-1.0], [1.0]], [0.25, 0.75], lambda a: np.array([a[0], 1.0]))
        assert out.tolist() == [0.5, 1.0]

    def test_weight_validation(self):
        grid = TimeGrid(1, 1.0)
        with pytest.raises(ControlError):
            RelaxedControl(grid, [[[0.0], [1.0]]], [[0.6, 0.6]])
        with pytest.raises(ControlError):
            RelaxedControl(grid, [[[0.0], [1.0]]], [[-0.1, 1.1]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_values_rejected(self, bad):
        # a NaN weight would pass the sum-to-one check: NaN comparisons are false
        grid = TimeGrid(2, 1.0)
        with pytest.raises(ControlError, match=r"^relaxed control weights must be finite, "
                                               r"got \[.*\] in cell 1$"):
            RelaxedControl(grid, [[[0.0], [1.0]]] * 2, [[0.5, 0.5], [bad, 0.5]])
        with pytest.raises(ControlError, match="relaxed control atoms must be finite"):
            RelaxedControl(grid, [[[0.0], [bad]]] * 2, [[0.5, 0.5]] * 2)
        with pytest.raises(ControlError, match="strict control values must be finite"):
            StrictControl(grid, [[0.0], [bad]])
        with pytest.raises(ControlError, match="singular increments must be finite"):
            SingularControl(grid, [[bad], [0.0]])


class TestDiracEmbed:
    def test_constant_control(self, grid64):
        q = dirac_embed(constant_strict(grid64, [1.0]))
        assert q.atoms.shape == (64, 1, 1)
        assert np.all(q.weights == 1.0)

    def test_alternating_blocks_embed_per_cell(self, grid64):
        v = alternating_strict(grid64, 8)
        q = dirac_embed(v)
        # first block +1, second block -1, matching (-1)^k
        assert np.all(q.atoms[:8, 0, 0] == 1.0)
        assert np.all(q.atoms[8:16, 0, 0] == -1.0)

    def test_composition_identity(self, grid64):
        v = alternating_strict(grid64, 4)
        q = dirac_embed(v)
        for j in (0, 17, 63):
            assert average(q.atoms[j], q.weights[j], lambda a: a[0] ** 2 + a[0]) == (
                v.values[j, 0] ** 2 + v.values[j, 0]
            )


class TestConvexCombine:
    def test_theta_zero_returns_base(self, grid64):
        base = (pm1(grid64), zero_singular(grid64, 1))
        direction = (dirac_embed(constant_strict(grid64, [1.0])), zero_singular(grid64, 1))
        out = convex_combine(base, direction, 0.0)
        assert out[0] is base[0] and out[1] is base[1]

    def test_theta_one_returns_direction(self, grid64):
        base = (pm1(grid64), zero_singular(grid64, 1))
        direction = (dirac_embed(constant_strict(grid64, [1.0])), zero_singular(grid64, 1))
        out = convex_combine(base, direction, 1.0)
        assert out[0] is direction[0]

    def test_half_mix_of_diracs(self, grid64):
        base = (dirac_embed(constant_strict(grid64, [0.0])), zero_singular(grid64, 1))
        direction = (dirac_embed(constant_strict(grid64, [1.0])), zero_singular(grid64, 1))
        mixed, _ = convex_combine(base, direction, 0.5)
        atoms, weights = positive(mixed, 0)
        assert atoms.ravel().tolist() == [0.0, 1.0]
        assert weights.tolist() == [0.5, 0.5]

    @pytest.mark.parametrize("theta", [0.1, 0.3, 0.77])
    def test_weights_stay_normalized_and_increments_nonnegative(self, grid64, theta):
        rng = np.random.default_rng(5)
        base = (pm1(grid64), SingularControl(grid64, rng.uniform(0, 1, (64, 1))))
        direction = (
            dirac_embed(constant_strict(grid64, [1.0])),
            SingularControl(grid64, rng.uniform(0, 1, (64, 1))),
        )
        mixed, xi = convex_combine(base, direction, theta)
        assert np.max(np.abs(mixed.weights.sum(axis=1) - 1.0)) <= 1e-12
        assert np.all(xi.increments >= 0)

    def test_duplicate_atoms_are_merged(self, grid64):
        base = (pm1(grid64), zero_singular(grid64, 1))
        direction = (pm1(grid64), zero_singular(grid64, 1))
        mixed, _ = convex_combine(base, direction, 0.25)
        _, weights = positive(mixed, 0)
        assert len(weights) == 2
        assert weights.tolist() == pytest.approx([0.5, 0.5], abs=1e-15)

    def test_theta_out_of_range(self, grid64):
        base = (pm1(grid64), zero_singular(grid64, 1))
        with pytest.raises(ControlError):
            convex_combine(base, base, 1.5)


class TestSingularControl:
    def test_cumulative_is_left_limit_partial_sum(self):
        grid = TimeGrid(4, 1.0)
        xi = SingularControl(grid, [[1.0], [0.0], [2.0], [0.0]])
        assert xi.cumulative().ravel().tolist() == [0.0, 1.0, 1.0, 3.0, 3.0]

    def test_negative_increment_rejected(self):
        grid = TimeGrid(2, 1.0)
        with pytest.raises(ControlError):
            SingularControl(grid, [[-0.5], [0.0]])


class TestChattering:
    def test_dirac_target_is_constant_for_every_n(self, grid64):
        q = dirac_embed(constant_strict(grid64, [1.0]))
        for n in (1, 2, 5):
            u = chattering(q, n)
            assert np.all(u.values == 1.0)

    def test_half_half_single_cell(self):
        grid = TimeGrid(1, 1.0)
        q = constant_relaxed(grid, [[-1.0], [1.0]], [0.5, 0.5])
        u = chattering(q, 2)
        # 4 refined steps: first half at -1 (atom order), second half at +1
        assert u.values.ravel().tolist() == [-1.0, -1.0, 1.0, 1.0]
        occ = (u.values.ravel() == -1.0).mean()
        assert occ == 0.5

    def test_alternating_structure_on_n_cells(self):
        # the relaxed optimum chattered on n cells alternates sign each
        # half-cell with equal occupation, the structure of the n-block control
        n = 8
        grid = TimeGrid(n, 1.0)
        q = constant_relaxed(grid, [[-1.0], [1.0]], [0.5, 0.5])
        u = chattering(q, 2)  # 4 sub-steps per cell
        vals = u.values.ravel()
        assert (vals == -1.0).mean() == 0.5
        halves = vals.reshape(2 * n, 2)
        assert np.all(halves[:, 0] == halves[:, 1])
        assert np.all(halves[::2, 0] == -1.0) and np.all(halves[1::2, 0] == 1.0)

    @pytest.mark.parametrize("n", [2, 4, 8, 16])
    def test_occupation_error_bound(self, n):
        grid = TimeGrid(5, 1.0)
        q = constant_relaxed(grid, [[-1.0], [0.2], [1.0]], [0.3, 0.21, 0.49])
        u = chattering(q, n)
        tests = [lambda a: a[0], lambda a: a[0] ** 2, lambda a: abs(a[0]),
                 lambda a: (1 - a[0] ** 2) ** 2]
        dt = u.grid.dt
        for f in tests:
            time_avg = sum(f(v) * dt for v in u.values) / grid.horizon
            target = average(q.atoms[0], q.weights[0], f)
            fmax = max(abs(f(a)) for a in positive(q, 0)[0])
            assert abs(time_avg - target) <= 2.0 * fmax / n + 1e-12

    def test_cellwise_varying_weights_get_cellwise_occupation(self):
        grid = TimeGrid(2, 1.0)
        atoms = np.tile(np.array([[[-1.0], [1.0]]]), (2, 1, 1))
        weights = np.array([[0.25, 0.75], [0.75, 0.25]])
        q = RelaxedControl(grid, atoms, weights)
        u = chattering(q, 4)  # 8 sub-steps per cell, quotas land exactly
        per_cell = u.values.reshape(2, 8)
        assert (per_cell[0] == -1.0).mean() == 0.25
        assert (per_cell[1] == -1.0).mean() == 0.75
        # runs are consecutive: first block of each cell is the first atom
        assert per_cell[0, :2].tolist() == [-1.0, -1.0]
        assert per_cell[1, :6].tolist() == [-1.0] * 6

    def test_output_values_lie_in_atom_set(self, grid64):
        q = constant_relaxed(grid64, [[-1.0], [1.0]], [0.25, 0.75])
        u = chattering(q, 3)
        assert set(np.unique(u.values)) <= {-1.0, 1.0}

    def test_too_coarse_refinement_states_minimum(self):
        grid = TimeGrid(1, 1.0)
        q = constant_relaxed(grid, [[-1.0], [1.0]], [0.001, 0.999])
        with pytest.raises(ChatteringError, match="1000"):
            chattering(q, 1)


class TestRegrid:
    def test_constant_measure_unchanged(self, grid64):
        q = pm1(grid64)
        out = regrid_relaxed(q, 4)
        for j in range(4):
            atoms, weights = positive(out, j)
            assert sorted(atoms.ravel().tolist()) == [-1.0, 1.0]
            assert weights.tolist() == pytest.approx([0.5, 0.5])

    def test_two_cells_average_to_one(self):
        grid = TimeGrid(2, 1.0)
        atoms = np.array([[[0.0]], [[1.0]]])
        weights = np.ones((2, 1))
        q = RelaxedControl(grid, atoms, weights)
        out = regrid_relaxed(q, 1)
        atoms, weights = positive(out, 0)
        assert atoms.ravel().tolist() == [0.0, 1.0]
        assert weights.tolist() == pytest.approx([0.5, 0.5])


class TestJsonForms:
    def test_strict_round_trip(self, grid64):
        v = alternating_strict(grid64, 4)
        again = control_from_obj(control_to_obj(v), grid64)
        assert np.array_equal(v.values, again.values)

    def test_relaxed_round_trip(self, grid64):
        q = constant_relaxed(grid64, [[-1.0], [1.0]], [0.25, 0.75])
        again = control_from_obj(control_to_obj(q), grid64)
        assert np.array_equal(q.atoms, again.atoms)
        assert np.array_equal(q.weights, again.weights)

    def test_singular_round_trip(self, grid64):
        rng = np.random.default_rng(0)
        xi = SingularControl(grid64, rng.uniform(0, 1, (64, 1)))
        again = control_from_obj(control_to_obj(xi), grid64)
        assert np.array_equal(xi.increments, again.increments)

    def test_unknown_type_rejected(self, grid64):
        with pytest.raises(ControlError):
            control_from_obj({"type": "mystery"}, grid64)


def test_strict_membership_check(grid64, example1):
    v = alternating_strict(grid64, 8)
    mu, _ = build_candidate({"candidate": {"control": control_to_obj(v)}}, example1, grid64)
    assert np.array_equal(mu.atoms[:, 0], v.values)
    w = StrictControl(grid64, np.full((64, 1), 0.5))
    with pytest.raises(ConfigError, match=r"\[0\.5\]"):
        build_candidate({"candidate": {"control": control_to_obj(w)}}, example1, grid64)


def test_alternating_requires_divisibility(grid64):
    with pytest.raises(ControlError):
        alternating_strict(grid64, 7)


# ---------------------------------------------------------------------------
# properties of the measure operations (hypothesis)
# ---------------------------------------------------------------------------

_ATOM_POOL = (-1.0, -0.5, 0.0, 0.5, 1.0)


@st.composite
def ragged_relaxed(draw, grid=None, k=None, edge_cases=False):
    """A relaxed control whose cells hold 1-3 atoms drawn from a small pool
    (so cells share atoms and may repeat one), padded the library's way:
    zero weights on copies of the cell's first atom.  With edge_cases the
    pool also holds -0.0 and a cell may give some of its atoms weight 0."""
    if grid is None:
        grid = TimeGrid(draw(st.integers(1, 6)), draw(st.sampled_from([0.5, 1.0, 3.0])))
    if k is None:
        k = draw(st.integers(1, 2))
    pool = _ATOM_POOL + (-0.0,) if edge_cases else _ATOM_POOL
    cells = []
    for _ in range(grid.num_steps):
        size = draw(st.integers(1, 3))
        point = st.lists(st.sampled_from(pool), min_size=k, max_size=k)
        pts = draw(st.lists(point, min_size=size, max_size=size))
        raw = draw(st.lists(st.integers(0 if edge_cases else 1, 9), min_size=size,
                            max_size=size).filter(any))
        raw = np.array(raw, float)
        cells.append((np.array(pts), raw / raw.sum()))
    width = max(len(w) for _, w in cells)
    atoms = np.zeros((grid.num_steps, width, k))
    weights = np.zeros((grid.num_steps, width))
    for j, (pts, wts) in enumerate(cells):
        atoms[j] = pts[0]
        atoms[j, : len(wts)] = pts
        weights[j, : len(wts)] = wts
    return RelaxedControl(grid, atoms, weights)


def cell_masses(q):
    """Per cell, the total weight of each distinct atom value."""
    out = []
    for atoms, weights in zip(q.atoms, q.weights):
        mass = {}
        for atom, w in zip(atoms, weights):
            key = tuple(atom.tolist())
            mass[key] = mass.get(key, 0.0) + w
        out.append(mass)
    return out


def time_integrated_masses(q):
    total = {}
    for mass in cell_masses(q):
        for atom, w in mass.items():
            total[atom] = total.get(atom, 0.0) + q.grid.dt * w
    return total


# The per-cell loops that the whole-grid resampling replaced, kept as
# references: one dict of atoms per cell, one overlap loop per cell.

def merge_reference(atoms, weights):
    acc = {}
    for atom, w in zip(atoms, weights):
        acc.setdefault(atom.tobytes(), [atom, 0.0])[1] += w
    return np.array([a for a, _ in acc.values()]), np.array([w for _, w in acc.values()])


def padded_reference(grid, cells):
    width = max(len(wts) for _, wts in cells)
    atoms = np.zeros((grid.num_steps, width, cells[0][0].shape[1]))
    weights = np.zeros((grid.num_steps, width))
    for j, (pts, wts) in enumerate(cells):
        atoms[j, : len(wts)] = pts
        atoms[j, len(wts):] = pts[0]
        weights[j, : len(wts)] = wts
    return RelaxedControl(grid, atoms, weights)


def regrid_relaxed_reference(q, num_cells):
    T, old_dt = q.grid.horizon, q.grid.dt
    new_dt = T / num_cells
    cells = []
    for j in range(num_cells):
        start, end = j * new_dt, (j + 1) * new_dt
        lo = int(np.floor(start / old_dt))
        hi = min(int(np.ceil(end / old_dt)), q.grid.num_steps)
        atoms, weights = [], []
        for i in range(lo, hi):
            overlap = min(end, (i + 1) * old_dt) - max(start, i * old_dt)
            if overlap <= 0:
                continue
            keep = q.weights[i] != 0.0
            atoms.append(q.atoms[i][keep])
            weights.append(overlap / new_dt * q.weights[i][keep])
        pts, wts = merge_reference(np.concatenate(atoms), np.concatenate(weights))
        cells.append((pts, wts / wts.sum()))
    return padded_reference(TimeGrid(num_cells, T), cells)


def chattering_reference(q, n):
    per_cell = n * q.atoms.shape[1]
    values = np.empty((q.grid.num_steps * per_cell, q.control_dim))
    for j in range(q.grid.num_steps):
        w = q.weights[j]
        quotas = w * per_cell
        alloc = np.floor(quotas).astype(int)
        short = per_cell - int(alloc.sum())
        if short > 0:
            alloc[np.lexsort((np.arange(len(w)), -(quotas - alloc)))[:short]] += 1
        if ((w > 0) & (alloc == 0)).any():
            need = int(np.ceil(1.0 / w[w > 0].min()))
            raise ChatteringError(
                f"cell {j}: refined grid too coarse to represent all positive "
                f"weights; needs at least {need} sub-steps per cell, got {per_cell}"
            )
        values[j * per_cell:(j + 1) * per_cell] = np.repeat(q.atoms[j], alloc, axis=0)
    return values


def regrid_singular_reference(eta, num_cells):
    T, old_dt = eta.grid.horizon, eta.grid.dt
    new_dt = T / num_cells
    out = np.zeros((num_cells, eta.singular_dim))
    for i in range(eta.grid.num_steps):
        start, end = i * old_dt, (i + 1) * old_dt
        lo = int(np.floor(start / new_dt))
        hi = min(int(np.ceil(end / new_dt)), num_cells)
        for j in range(lo, hi):
            overlap = min(end, (j + 1) * new_dt) - max(start, j * new_dt)
            if overlap > 0:
                out[j] += eta.increments[i] * (overlap / old_dt)
    return out


def outcome(fn, *args):
    """fn's result, or the text of the ChatteringError it raised."""
    try:
        return fn(*args)
    except ChatteringError as exc:
        return str(exc)


def wide_and_narrow():
    """Six cells that regrid onto two cells of 8 and 4 merged atoms; a row
    sum taken over the padded width adds the narrow row in another order."""
    pts = [[[0.0, -0.5], [1.0, 0.0], [0.0, 1.0]], [[1.0, 0.5], [1.0, -0.5], [-0.5, 0.0]],
           [[1.0, -0.5], [-1.0, 1.0], [0.0, 0.5]], [[-1.0, 0.0], [1.0, 1.0]],
           [[-0.5, 1.0], [1.0, 0.5]], [[-0.5, 1.0], [0.5, 1.0]]]
    raw = [[8, 2, 1], [2, 2, 7], [6, 7, 8], [8, 5], [4, 9], [7, 2]]
    atoms, weights = np.zeros((6, 3, 2)), np.zeros((6, 3))
    for j, (p, r) in enumerate(zip(pts, raw)):
        atoms[j], atoms[j, : len(p)] = p[0], p
        weights[j, : len(r)] = np.array(r, float) / sum(r)
    return RelaxedControl(TimeGrid(6, 1.0), atoms, weights)


@settings(max_examples=60, deadline=None)
@given(q=ragged_relaxed(edge_cases=True), num_cells=st.integers(1, 12), n=st.integers(1, 3))
@example(q=wide_and_narrow(), num_cells=2, n=1)
def test_regrid_relaxed_conserves_each_atoms_time_integrated_weight(q, num_cells, n):
    out = regrid_relaxed(q, num_cells)
    assert out.grid == TimeGrid(num_cells, q.grid.horizon)
    assert np.all(out.weights >= 0)
    assert np.max(np.abs(out.weights.sum(axis=1) - 1.0)) <= 1e-12
    before, after = time_integrated_masses(q), time_integrated_masses(out)
    assert set(after) <= set(before)
    for atom, mass in before.items():
        assert after.get(atom, 0.0) == pytest.approx(mass, rel=1e-12, abs=1e-12)
    # bit for bit the per-cell loops, refining and coarsening, and so is the
    # chattering approximant of the result or the text of its error
    ref = regrid_relaxed_reference(q, num_cells)
    assert out.atoms.shape == ref.atoms.shape
    assert out.atoms.tobytes() == ref.atoms.tobytes()
    assert out.weights.tobytes() == ref.weights.tobytes()
    got, want = outcome(chattering, out, n), outcome(chattering_reference, out, n)
    if isinstance(want, str):
        assert got == want
    else:
        assert got.values.tobytes() == want.tobytes()


@settings(max_examples=40, deadline=None)
@given(
    increments=st.integers(1, 8).flatmap(
        lambda N: st.integers(1, 2).flatmap(
            lambda m: st.lists(
                st.lists(st.floats(0.0, 10.0), min_size=m, max_size=m), min_size=N, max_size=N
            )
        )
    ),
    horizon=st.sampled_from([0.5, 1.0, 3.0]),
    num_cells=st.integers(1, 12),
)
def test_regrid_singular_conserves_total_increment(increments, horizon, num_cells):
    eta = SingularControl(TimeGrid(len(increments), horizon), increments)
    out = regrid_singular(eta, num_cells)
    assert out.grid == TimeGrid(num_cells, horizon)
    assert np.all(out.increments >= 0)
    np.testing.assert_allclose(
        out.increments.sum(axis=0), eta.increments.sum(axis=0), rtol=1e-12, atol=1e-12
    )
    # overlaps are enumerated from the new cells' side, so an edge pair whose
    # overlap is of rounding size may land on the other neighbour
    ref = regrid_singular_reference(eta, num_cells)
    np.testing.assert_allclose(out.increments, ref, rtol=1e-13, atol=1e-13 * np.abs(ref).max())


def positive_masses(atoms, weights):
    """The atom bytes -> weight map of one cell's positive-weight entries,
    in the order the atoms are stored."""
    return {a.tobytes(): w for a, w in zip(atoms, weights) if w > 0}


@settings(max_examples=60, deadline=None)
@given(data=st.data(), theta=st.floats(0.0, 1.0))
def test_convex_combine_mixes_each_atoms_weight(data, theta):
    base = data.draw(ragged_relaxed(edge_cases=True))
    direction = data.draw(ragged_relaxed(grid=base.grid, k=base.control_dim, edge_cases=True))
    xi = zero_singular(base.grid, 1)
    mixed, _ = convex_combine((base, xi), (direction, xi), theta)
    assert np.max(np.abs(mixed.weights.sum(axis=1) - 1.0)) <= 1e-12
    for got, w_base, w_dir in zip(cell_masses(mixed), cell_masses(base), cell_masses(direction)):
        assert set(got) <= set(w_base) | set(w_dir)
        for atom in set(w_base) | set(w_dir):
            want = (1.0 - theta) * w_base.get(atom, 0.0) + theta * w_dir.get(atom, 0.0)
            assert got.get(atom, 0.0) == pytest.approx(want, abs=1e-12)
    if theta in (0.0, 1.0):
        return
    # per cell, the same atom -> weight masses as the per-cell merge, bit for
    # bit; that merge kept zero weights, so an atom first seen with weight 0
    # may change its place, and no other atom may
    for j in range(base.grid.num_steps):
        atoms = np.concatenate([base.atoms[j], direction.atoms[j]])
        weights = np.concatenate([(1.0 - theta) * base.weights[j], theta * direction.weights[j]])
        got = positive_masses(mixed.atoms[j], mixed.weights[j])
        want = positive_masses(*merge_reference(atoms, weights))
        assert got == want
        first_weight = {}
        for atom, w in zip(atoms, weights):
            first_weight.setdefault(atom.tobytes(), w)
        moved = {atom for atom, w in first_weight.items() if w == 0.0}
        assert [a for a in got if a not in moved] == [a for a in want if a not in moved]


@settings(max_examples=40, deadline=None)
@given(q=ragged_relaxed())
def test_ragged_relaxed_json_round_trip(q):
    again = control_from_obj(json.loads(json.dumps(control_to_obj(q))), q.grid)
    assert again.atoms.shape == q.atoms.shape
    assert np.array_equal(again.atoms, q.atoms)
    assert np.array_equal(again.weights, q.weights)


@settings(max_examples=40, deadline=None)
@given(num_steps=st.integers(1, 40), num_cells=st.integers(1, 60),
       horizon=st.sampled_from([0.3, 0.7, 1.0, 3.0]))
@example(num_steps=19, num_cells=57, horizon=0.7)
def test_regrid_moves_mass_only_between_overlapping_cells(num_steps, num_cells, horizon):
    # in units of T / (N C), old cell i covers [i C, (i+1) C) and new cell j
    # covers [j N, (j+1) N); cells that only touch overlap by 0
    grid = TimeGrid(num_steps, horizon)
    j = np.arange(num_cells)
    i = np.arange(num_steps)[:, None]
    overlaps = (np.minimum((i + 1) * num_cells, (j + 1) * num_steps)
                - np.maximum(i * num_cells, j * num_steps)) > 0
    # atom i marks old cell i
    q = regrid_relaxed(RelaxedControl(grid, i[:, :, None].astype(float), np.ones((num_steps, 1))),
                       num_cells)
    for cell in j:
        assert set(q.atoms[cell][q.weights[cell] > 0, 0]) == set(np.flatnonzero(overlaps[:, cell]))
    for old in range(num_steps):
        unit = np.zeros((num_steps, 1))
        unit[old] = 1.0
        out = regrid_singular(SingularControl(grid, unit), num_cells)
        assert np.array_equal(out.increments[:, 0] > 0, overlaps[old]), old


@settings(max_examples=40, deadline=None)
@given(data=st.data(), n=st.integers(1, 8))
def test_chattering_occupation_within_one_sub_step_of_the_weights(data, n):
    # distinct atoms per cell, so each atom's occupation is readable from the
    # values; zero weights are allowed
    grid = TimeGrid(data.draw(st.integers(1, 4)), 1.0)
    size = data.draw(st.integers(1, 3))
    atoms = np.array([data.draw(st.lists(st.sampled_from(_ATOM_POOL), min_size=size,
                                         max_size=size, unique=True))
                      for _ in range(grid.num_steps)])[:, :, None]
    raw = np.array([data.draw(st.lists(st.integers(0, 9), min_size=size, max_size=size)
                              .filter(any)) for _ in range(grid.num_steps)], float)
    q = RelaxedControl(grid, atoms, raw / raw.sum(axis=1, keepdims=True))
    try:
        u = chattering(q, n)
    except ChatteringError:
        return
    sub_steps = n * size
    cells = u.values[:, 0].reshape(grid.num_steps, sub_steps)
    for values, cell_atoms, weights in zip(cells, q.atoms[:, :, 0], q.weights):
        for atom, weight in zip(cell_atoms, weights):
            occupation = np.count_nonzero(values == atom) / sub_steps
            assert abs(occupation - weight) < 1.0 / sub_steps


@settings(max_examples=80, deadline=None)
@given(data=st.data(), n=st.integers(1, 2), d=st.integers(1, 2))
def test_cell_averages_equal_the_per_cell_average_bit_for_bit(data, n, d):
    # padded zero weights, repeated atoms, -0.0 and 0.0 atoms and constants,
    # k in {1, 2}, drift values (n,) and diffusion values (n, d)
    q = data.draw(ragged_relaxed(edge_cases=True))
    k = q.control_dim

    def reals(*shape):
        pool = st.sampled_from([-1.5, -0.0, 0.0, 0.25, 2.0])
        size = int(np.prod(shape))
        return np.reshape(data.draw(st.lists(pool, min_size=size, max_size=size)), shape).tolist()

    coefficients = build_coefficients({
        "dims": {"n": n, "d": d, "k": k, "m": 1},
        "coefficients": {
            "drift": {"form": "affine", "const": reals(n), "control": reals(n, k)},
            "diffusion": {"form": "affine", "const": reals(n, d), "control": reals(d, n, k)},
        },
    })
    x = np.zeros((3, n))
    for fn in (coefficients["b"], coefficients["sigma"]):
        averages = q.cell_averages(fn, x)
        expected = np.stack([q.average(fn, j, t, x) for j, t in enumerate(q.grid.knots[:-1])])
        assert averages.shape == expected.shape
        assert (averages == expected).all()
        assert (np.signbit(averages) == np.signbit(expected)).all()
        assert q.cell_averages(fn, x) is averages


def test_cell_averages_refuse_a_state_term_or_a_plain_callable():
    spec = builtin_problem("example2_stochastic")
    q = pm1(TimeGrid(4, 1.0))
    x = np.zeros((3, 1))
    assert q.cell_averages(spec.h, x) is None
    assert q.cell_averages(lambda t, x, a: a, x) is None
    assert q.cell_averages(spec.b, x).tolist() == [[0.0]] * 4


@pytest.mark.parametrize("control_poly", [[[0.5, -1.0, 2.0]], None], ids=["with-control", "state-only"])
def test_block_total_evaluates_a_forms_state_part_once(control_poly):
    # three cells of one two-atom measure; the cost has a quadratic, a
    # linear and a constant state term
    cost = {"form": "quadratic", "state_quad": [[1.0, 0.5], [0.5, 2.0]],
            "state_lin": [0.25, -1.5], "const": 0.75}
    if control_poly is not None:
        cost["control_poly"] = control_poly
    h = build_coefficients({"dims": {"n": 2, "d": 1, "k": 1, "m": 1},
                            "coefficients": {"running_cost": cost}})["h"]
    calls = []

    def state_part(x):
        calls.append(x)
        return h.state_part(x)

    def split(t, x, a):
        return h(t, x, a)

    split.state_part = state_part
    split.control_part = h.control_part
    q = constant_relaxed(TimeGrid(3, 1.0), [[-1.0], [0.5]], [0.3, 0.7])
    t = q.grid.knots[:3, None]
    x = np.random.default_rng(5).standard_normal((3, 7, 2))
    total = q.block_total(split, 0, t, x)
    assert len(calls) == 1
    assert total.tobytes() == q.block_total(lambda t, x, a: h(t, x, a), 0, t, x).tobytes()
