"""File exports: CSV and binary ensembles read back exactly."""

import csv

import numpy as np
import pytest

from singopt.controls import constant_relaxed, zero_singular
from singopt.io import ensemble_from_binary, ensemble_to_binary, ensemble_to_csv
from singopt.model import NoiseBatch, TimeGrid
from singopt.sde import simulate_relaxed


@pytest.fixture
def traj(example2_stochastic):
    grid = TimeGrid(20, 1.0)
    noise = NoiseBatch.generate(5, grid, 1, 13)
    control = constant_relaxed(grid, [[-1.0], [1.0]], [0.5, 0.5])
    return simulate_relaxed(example2_stochastic, control, zero_singular(grid, 1), grid, noise)


def test_csv_round_trip_parses_every_cell(traj, tmp_path):
    path = tmp_path / "trajectory.csv"
    ensemble_to_csv(traj.states, traj.grid.knots, path)
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["path", "step", "t", "x0"]
    cells = np.array([[float(cell) for cell in row] for row in rows[1:]])
    M, K, _ = traj.states.shape
    assert cells.shape == (M * K, 4)
    assert np.array_equal(cells[:, 0], np.repeat(np.arange(M), K))
    assert np.array_equal(cells[:, 1], np.tile(np.arange(K), M))
    assert np.array_equal(cells[:, 2], np.tile(traj.grid.knots, M))
    assert np.array_equal(cells[:, 3], traj.states.reshape(M * K))


def test_binary_round_trip_from_time_major_states(traj, tmp_path):
    path = tmp_path / "trajectory.bin"
    assert not traj.states.flags.c_contiguous
    ensemble_to_binary(traj.states, traj.noise.seed, path)
    values, seed = ensemble_from_binary(path)
    assert seed == 13
    assert values.shape == traj.states.shape
    assert np.array_equal(values, traj.states)


def test_truncated_binary_names_expected_and_actual_bytes(traj, tmp_path):
    path = tmp_path / "trajectory.bin"
    ensemble_to_binary(traj.states, traj.noise.seed, path)
    full = path.read_bytes()
    expected = 32 + 8 * traj.states.size
    assert len(full) == expected
    path.write_bytes(full[:-8])
    with pytest.raises(ValueError, match=rf"needs {expected} bytes, file has {expected - 8}$"):
        ensemble_from_binary(path)
    path.write_bytes(full[:20])
    with pytest.raises(ValueError, match=r"expected at least 32 header bytes, got 20$"):
        ensemble_from_binary(path)
