"""Deterministic file exports: ensemble CSV, compact binary dumps, JSON.

The binary layout is: four little-endian uint64 header words {num_paths,
num_steps, value_dim, seed}, then the (num_paths, num_steps + 1, value_dim)
values as little-endian float64 in row-major order.  CSV holds one row per
(path, grid point) with full-precision floats.  JSON is written with sorted
keys, so identical inputs produce byte-identical files.  Both ensemble
writers work in blocks of ``_BLOCK_PATHS`` paths and file digests are
streamed, so no export holds more than a block beyond its input.

A large ensemble CSV is formatted by two processes when this process runs
a single operating-system thread: one forked child formats the second
half of the paths into an unnamed temporary file while the caller formats
the first half into the output, then reaps the child and appends its
bytes.  Each row's bytes depend only on its own values, and the halves are
joined in path order after the child has exited, so the child's timing
cannot reach the file.  The fork goes through the package's one
thread-count gate and one reaper, ``model._single_threaded`` and
``model._fork``, which the noise worker of ``model.noise_windows`` uses
too.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import tempfile
from operator import add
from pathlib import Path

import numpy as np

from . import model

_HEADER_BYTES = 32  # four uint64 words
_BLOCK_PATHS = 256  # paths per block of an ensemble export
_DIGEST_CHUNK_BYTES = 1 << 20
# fewest values an export splits between two processes: on two free CPUs
# the fork, the child's start and the copy cost as much as they save at
# about 11 000 values (with 64 MB resident), and save a third at 22 000
_FORK_CELLS = 20_000


def ensemble_to_csv(values: np.ndarray, knots: np.ndarray, path, prefix: str = "x") -> None:
    """Write an (M, K, D) ensemble as CSV rows (path, step, t, components).

    Rows are formatted and written in blocks of ``_BLOCK_PATHS`` paths,
    so memory stays bounded by one block whatever M is.  An export of more
    than one block and at least ``_FORK_CELLS`` values, made while this
    process runs a single operating-system thread, is split in two: one
    forked child formats paths [M // 2, M) into an unnamed temporary file
    in the output's directory while the caller formats [0, M // 2) into
    the output; the caller then reaps the child and appends its bytes.
    Any other export, or one whose fork fails, is written by the caller
    alone.  Both halves go through one row writer, so the bytes are those
    of a one-process write whatever the child's timing.  The child is
    always reaped (``model._Child``): a child that fails raises
    ``OSError`` here, naming its cause, and an exception in the caller's
    half kills the child before it propagates.
    """
    values = np.asarray(values, dtype=float)
    M, K, D = values.shape
    heads = [f",{j},{t!r}," for j, t in enumerate(np.asarray(knots, dtype=float).tolist())]
    with open(path, "wb") as out:
        out.write(("path,step,t," + ",".join(f"{prefix}{i}" for i in range(D)) + "\n").encode())
        if M > _BLOCK_PATHS and values.size >= _FORK_CELLS and model._single_threaded():
            split = M // 2
            with tempfile.TemporaryFile(dir=Path(path).parent) as tail:

                def write_tail():
                    _write_rows(values, heads, split, M, tail.write)
                    tail.flush()

                child = model._fork(write_tail)
                if child is not None:
                    with child:
                        _write_rows(values, heads, 0, split, out.write)
                        child.join(f"{path}: rows of paths {split} to {M - 1} were not written: "
                                   "the process formatting them")
                    tail.seek(0)
                    shutil.copyfileobj(tail, out)
                    return
        _write_rows(values, heads, 0, M, out.write)


def _write_rows(values: np.ndarray, heads: list, lo: int, hi: int, write) -> None:
    """Format the CSV rows of paths [lo, hi) and pass them to ``write`` as
    ASCII bytes, one block of ``_BLOCK_PATHS`` paths at a time."""
    D = values.shape[2]
    K = len(heads)
    for start in range(lo, hi, _BLOCK_PATHS):
        block = values[start:min(start + _BLOCK_PATHS, hi)]
        cells = map(repr, block.reshape(-1).tolist())
        rows = list(map(",".join, zip(*[cells] * D)))  # D consecutive cells per row
        write("".join([
            f"{i}" + f"\n{i}".join(map(add, heads, rows[r * K:(r + 1) * K])) + "\n"
            for r, i in enumerate(range(start, start + len(block)))
        ]).encode())


def ensemble_to_binary(values: np.ndarray, seed, path) -> None:
    """Write an (M, K, D) ensemble in the documented binary layout, whatever
    the memory layout of ``values``.

    The values are written in blocks of ``_BLOCK_PATHS`` paths, so a
    time-major ensemble is reordered one block at a time, never copied whole.
    """
    values = np.asarray(values, dtype="<f8")
    M, K, D = values.shape
    if not isinstance(seed, (int, np.integer)):
        raise TypeError("binary export requires an integer seed in the header")
    if not 0 <= seed < 2**64:
        raise ValueError(
            f"binary export needs a nonnegative seed below 2**64 (uint64 header), got {seed}"
        )
    header = np.array([M, K - 1, D, int(seed)], dtype="<u8")
    with open(path, "wb") as out:
        out.write(header.tobytes())
        for lo in range(0, M, _BLOCK_PATHS):
            out.write(np.ascontiguousarray(values[lo:lo + _BLOCK_PATHS]).data)


def ensemble_from_binary(path):
    """Read a binary ensemble dump back; returns (values, seed).

    Raises ValueError when the file is shorter or longer than its header
    says.
    """
    raw = Path(path).read_bytes()
    if len(raw) < _HEADER_BYTES:
        raise ValueError(
            f"{path}: expected at least {_HEADER_BYTES} header bytes, got {len(raw)}"
        )
    M, N, D, seed = (int(v) for v in np.frombuffer(raw[:_HEADER_BYTES], dtype="<u8"))
    expected = _HEADER_BYTES + 8 * M * (N + 1) * D
    if len(raw) != expected:
        raise ValueError(
            f"{path}: header ({M} paths, {N} steps, {D} values) needs {expected} bytes, "
            f"file has {len(raw)}"
        )
    values = np.frombuffer(raw, dtype="<f8", offset=_HEADER_BYTES).reshape(M, N + 1, D)
    return values, seed


def write_json(obj, path) -> None:
    Path(path).write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def file_digest(path) -> str:
    """SHA-256 hex digest of a file, streamed through one buffer of
    ``_DIGEST_CHUNK_BYTES``, so memory does not grow with the file."""
    digest = hashlib.sha256()
    chunk = memoryview(bytearray(_DIGEST_CHUNK_BYTES))
    with open(path, "rb", buffering=0) as src:
        while size := src.readinto(chunk):
            digest.update(chunk[:size])
    return digest.hexdigest()
