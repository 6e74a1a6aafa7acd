"""File exports: CSV and binary ensembles read back exactly."""

import csv
import hashlib
import tracemalloc

import numpy as np
import pytest

from singopt import io
from singopt.controls import constant_relaxed, zero_singular
from singopt.io import ensemble_from_binary, ensemble_to_binary, ensemble_to_csv
from singopt.model import NoiseBatch, TimeGrid, ensemble_zeros
from singopt.sde import simulate_relaxed


@pytest.fixture
def traj(example2_stochastic):
    grid = TimeGrid(20, 1.0)
    noise = NoiseBatch.generate(5, grid, 1, 13)
    control = constant_relaxed(grid, [[-1.0], [1.0]], [0.5, 0.5])
    return simulate_relaxed(example2_stochastic, control, zero_singular(grid, 1), noise)


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


def reference_csv(values, knots, prefix):
    """The CSV written cell by cell, one repr per float."""
    M, K, D = values.shape
    lines = ["path,step,t," + ",".join(f"{prefix}{c}" for c in range(D))]
    for i in range(M):
        for j, t in enumerate(knots):
            lines.append(
                f"{i},{j},{float(t)!r}," + ",".join(repr(float(v)) for v in values[i, j])
            )
    return ("\n".join(lines) + "\n").encode()


def _laid_out(data, time_major):
    """A copy of data, time-major (as model.ensemble_zeros lays it out) or
    C-contiguous."""
    if not time_major:
        return np.ascontiguousarray(data)
    values = ensemble_zeros(*data.shape)
    values[...] = data
    assert not values.flags.c_contiguous
    return values


@pytest.mark.parametrize("time_major", [True, False], ids=["time-major", "c-contiguous"])
@pytest.mark.parametrize("D", [1, 3])
def test_csv_bytes_match_cell_by_cell_reference(tmp_path, D, time_major):
    M, K = 600, 4
    # crosses two block boundaries and ends in a partial block
    assert M > 2 * io._BLOCK_PATHS and M % io._BLOCK_PATHS
    rng = np.random.default_rng(3)
    data = rng.standard_normal((M, K, D)) * 10.0 ** rng.integers(-20, 20, (M, K, D))
    special = [-0.0, 5e-324, 1e-300, 1e16, 1e22, -1e22, 0.1, 1.0]
    data.reshape(-1)[: len(special)] = special
    data[io._BLOCK_PATHS, -1] = special[: D]
    data[-1, -1] = special[-D:]
    values = _laid_out(data, time_major)
    knots = TimeGrid(K - 1, 0.3).knots
    path = tmp_path / "ensemble.csv"
    ensemble_to_csv(values, knots, path, prefix="p")
    assert path.read_bytes() == reference_csv(data, knots, "p")


def test_binary_rejects_negative_seed(tmp_path):
    with pytest.raises(ValueError, match=r"nonnegative seed .* got -1$"):
        ensemble_to_binary(np.zeros((2, 3, 1)), -1, tmp_path / "neg.bin")
    assert not (tmp_path / "neg.bin").exists()


def test_binary_rejects_a_seed_beyond_the_uint64_header(tmp_path):
    with pytest.raises(ValueError, match=r"seed below 2\*\*64 .* got 18446744073709551616$"):
        ensemble_to_binary(np.zeros((2, 3, 1)), 2**64, tmp_path / "big.bin")
    assert not (tmp_path / "big.bin").exists()


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


@pytest.mark.parametrize("time_major", [True, False], ids=["time-major", "c-contiguous"])
def test_binary_bytes_are_the_header_and_the_row_major_values(tmp_path, time_major):
    # crosses two block boundaries and ends in a partial block
    values = _laid_out(np.random.default_rng(5).standard_normal((600, 4, 3)), time_major)
    path = tmp_path / "ensemble.bin"
    ensemble_to_binary(values, 9, path)
    header = np.array([600, 3, 3, 9], dtype="<u8").tobytes()
    assert path.read_bytes() == header + np.ascontiguousarray(values).tobytes()


def test_binary_export_of_a_time_major_ensemble_holds_no_whole_copy(tmp_path):
    values = _laid_out(np.random.default_rng(5).standard_normal((2000, 51, 2)), time_major=True)
    tracemalloc.start()
    try:
        ensemble_to_binary(values, 1, tmp_path / "ensemble.bin")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < values.nbytes / 4


@pytest.mark.parametrize(
    "size",
    [0, 1000, 2 * io._DIGEST_CHUNK_BYTES, 3 * io._DIGEST_CHUNK_BYTES + 17],
    ids=["empty", "under-one-chunk", "exact-chunks", "several-chunks"],
)
def test_file_digest_is_the_sha256_of_the_whole_file(tmp_path, size):
    path = tmp_path / "blob"
    path.write_bytes(np.random.default_rng(size).bytes(size))
    assert io.file_digest(path) == hashlib.sha256(path.read_bytes()).hexdigest()


def test_file_digest_memory_does_not_grow_with_the_file(tmp_path):
    path = tmp_path / "blob"
    path.write_bytes(bytes(8 * io._DIGEST_CHUNK_BYTES))
    tracemalloc.start()
    try:
        io.file_digest(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * io._DIGEST_CHUNK_BYTES
