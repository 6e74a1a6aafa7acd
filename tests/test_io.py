"""File exports: CSV and binary ensembles read back exactly."""

import csv
import hashlib
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import csv_worker_fails, traced_peak
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
    assert not values.flags.c_contiguous or len(values) == 1  # one path is both
    return values


def _block_paths(D):
    """The paths of one block of CSV rows of CSV_KNOTS' four knots and D
    components."""
    return io._FORMAT_CELLS // (4 * D)


def _csv_data(M, D):
    """(M, 4, D) floats over 40 decades, with special values at the start,
    in the first path of the second block and at the end."""
    rng = np.random.default_rng(3)
    data = rng.standard_normal((M, 4, D)) * 10.0 ** rng.integers(-20, 20, (M, 4, D))
    special = [-0.0, 5e-324, 1e-300, 1e16, 1e22, -1e22, 0.1, 1.0]
    head = min(len(special), data.size)
    data.reshape(-1)[:head] = special[:head]
    if _block_paths(D) < M:
        data[_block_paths(D), -1] = special[:D]
    data[-1, -1] = special[-D:]
    return data


CSV_KNOTS = TimeGrid(3, 0.3).knots


@pytest.mark.parametrize("time_major", [True, False], ids=["time-major", "c-contiguous"])
@pytest.mark.parametrize("D", [1, 3])
def test_csv_bytes_match_cell_by_cell_reference(tmp_path, no_unreaped_children, worker, D,
                                                time_major):
    # one path, one whole block of B paths, a block and one path, two blocks
    # and one path (all formatted here: the one odd block is filled in
    # process), and four blocks and one path, whose odd blocks the worker
    # formats
    B = _block_paths(D)
    path = tmp_path / "ensemble.csv"
    for M in (1, B, B + 1, 2 * B + 1, 4 * B + 1):
        data = _csv_data(M, D)
        ensemble_to_csv(_laid_out(data, time_major), CSV_KNOTS, path, prefix="p")
        assert path.read_bytes() == reference_csv(data, CSV_KNOTS, "p")
    assert os.listdir(tmp_path) == ["ensemble.csv"]
    assert len(no_unreaped_children) == (worker == "fork")


def test_a_failed_csv_worker_raises_and_leaves_nothing_behind(tmp_path, monkeypatch,
                                                              no_unreaped_children, worker):
    # the conftest fixtures fail a child, thread or descriptor left behind
    B = _block_paths(1)
    csv_worker_fails(monkeypatch)
    if worker == "fork":
        failure = pytest.raises(OSError, match=(
            rf"^CSV block 1 \(paths {B} to {2 * B - 1}\) was not formatted: the process "
            r"formatting it ended with exit status 1: RuntimeError: worker fault$"))
    else:
        failure = pytest.raises(RuntimeError, match=r"^worker fault$")
    with failure:
        ensemble_to_csv(_csv_data(4 * B + 1, 1), CSV_KNOTS, tmp_path / "ensemble.csv")
    assert len(no_unreaped_children) == (worker == "fork")


def _cells(values):
    """io._format_cells's bytes of each value, without the NUL padding."""
    return [row.tobytes().replace(b"\0", b"") for row in io._format_cells(values)]


def _reprs(values):
    return [repr(v).encode() for v in values.tolist()]


@settings(max_examples=2000, deadline=None)
@given(st.binary(min_size=64, max_size=64))
def test_cells_are_repr_of_any_bit_pattern(words):
    values = np.frombuffer(words, dtype=np.float64)
    assert _cells(values) == _reprs(values)


@settings(max_examples=2000, deadline=None)
@given(st.floats(), st.floats(1e-4, 1e16))
def test_cells_are_repr_of_any_float(x, y):
    values = np.array([x, y])
    assert _cells(values) == _reprs(values)


@st.composite
def _decimal(draw, digits):
    """A float read from a decimal of the given number of significant
    digits, the last one nonzero, with either sign, in 1e-4 <= |v| < 1e16."""
    mantissa = 10 * draw(st.integers(10 ** (digits - 2) if digits > 1 else 0,
                                     10 ** (digits - 1) - 1)) + draw(st.integers(1, 9))
    exponent = draw(st.integers(-3 - digits, 16 - digits))
    return float(f"{draw(st.sampled_from('+-'))}{mantissa}e{exponent}")


def _significant_digits(text):
    return len(text.lstrip(b"-").replace(b".", b"").strip(b"0"))


@settings(max_examples=200, deadline=None)
@given(st.tuples(*(_decimal(digits) for digits in range(1, 18))))
def test_cells_are_repr_of_short_decimals(decimals):
    # one decimal of each length 1 .. 17: a decimal of up to 15 digits is
    # its float's shortest repr, so rounds m = 2 .. 16 of the digit search
    # (m = 3 on, on the compressed values) each end some value's search
    values = np.array(decimals)
    cells = _cells(values)
    assert cells == _reprs(values)
    assert {_significant_digits(cell) for cell in cells} >= set(range(1, 16))


def test_cells_are_repr_at_the_edges():
    def around(x):
        return [np.nextafter(x, 0.0), x, np.nextafter(x, np.inf)]

    edges = [0.0, 5e-324, np.finfo(float).tiny, np.inf, np.nan]
    edges += [y for x in (1e-5, 1e-4, 1e16, 1e17) for y in around(x)]
    edges += [y for j in range(-4, 16) for y in around(float(f"1e{j}"))]
    edges += [2.0**53 + j for j in range(-4, 5)] + [9007199254740993.0]
    edges += [0.1, 0.3, 1 / 3, 0.9999999999999999, 9.999999999999998]
    values = np.array(edges + [-x for x in edges])
    assert _cells(values) == _reprs(values)


def test_cells_in_the_fixed_notation_range_never_call_repr(monkeypatch):
    # adjoint_planar's p spans 2.1e-4 to 2.65; below 1e-4 repr writes an
    # exponent, and those cells (about 1 % here) are repr's by design
    rng = np.random.default_rng(28)
    shape = (256, 101, 2)
    values = (rng.standard_normal(shape) * 10.0 ** rng.uniform(-3, 0.5, shape)).reshape(-1)
    calls = []

    def counting_repr(x):
        calls.append(x)
        return repr(x)

    monkeypatch.setattr(io, "repr", counting_repr, raising=False)
    cells = _cells(values)
    assert calls == values[np.abs(values) < 1e-4].tolist()
    assert cells == _reprs(values)


def test_importing_the_cli_builds_no_formatter_table():
    code = "import singopt.cli, singopt.io; print(singopt.io._cell_tables.cache_info().currsize)"
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(io.__file__)))
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, check=True, timeout=60)
    assert result.stdout == "0\n"


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
    with traced_peak() as traced:
        ensemble_to_binary(values, 1, tmp_path / "ensemble.bin")
    assert traced.peak < values.nbytes / 4


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
    with traced_peak() as traced:
        io.file_digest(path)
    assert traced.peak < 2 * io._DIGEST_CHUNK_BYTES
