"""Deterministic file exports: ensemble CSV, compact binary dumps, JSON.

The binary layout is: four little-endian uint64 header words {num_paths,
num_steps, value_dim, seed}, then the (num_paths, num_steps + 1, value_dim)
values as little-endian float64 in row-major order.  CSV holds one row per
(path, grid point) with full-precision floats.  JSON is written with sorted
keys, so identical inputs produce byte-identical files.  Both ensemble
writers work in blocks of ``_BLOCK_PATHS`` paths and file digests are
streamed, so no export holds more than a block beyond its input.
"""

from __future__ import annotations

import hashlib
import json
from operator import add
from pathlib import Path

import numpy as np

_HEADER_BYTES = 32  # four uint64 words
_BLOCK_PATHS = 256  # paths per block of an ensemble export
_DIGEST_CHUNK_BYTES = 1 << 20


def ensemble_to_csv(values: np.ndarray, knots: np.ndarray, path, prefix: str = "x") -> None:
    """Write an (M, K, D) ensemble as CSV rows (path, step, t, components).

    Rows are formatted and written in blocks of ``_BLOCK_PATHS`` paths,
    so memory stays bounded by one block whatever M is.
    """
    values = np.asarray(values, dtype=float)
    M, K, D = values.shape
    heads = [f",{j},{t!r}," for j, t in enumerate(np.asarray(knots, dtype=float).tolist())]
    with open(path, "w", encoding="utf-8") as out:
        out.write("path,step,t," + ",".join(f"{prefix}{i}" for i in range(D)) + "\n")
        for lo in range(0, M, _BLOCK_PATHS):
            block = values[lo:lo + _BLOCK_PATHS]
            cells = map(repr, block.reshape(-1).tolist())
            rows = list(map(",".join, zip(*[cells] * D)))  # D consecutive cells per row
            out.write("".join([
                f"{i}" + f"\n{i}".join(map(add, heads, rows[r * K:(r + 1) * K])) + "\n"
                for r, i in enumerate(range(lo, lo + len(block)))
            ]))


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
