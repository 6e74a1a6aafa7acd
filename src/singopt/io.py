"""Deterministic file exports: ensemble CSV, compact binary dumps, JSON.

The binary layout is: four little-endian uint64 header words {num_paths,
num_steps, value_dim, seed}, then the (num_paths, num_steps + 1, value_dim)
values as little-endian float64 in row-major order.  CSV holds one row per
(path, grid point), each value written as ``repr`` writes it, the shortest
digits that read back to the same float.  JSON is written with sorted keys,
so identical inputs produce byte-identical files.  The binary writer works
in blocks of ``_BLOCK_PATHS`` paths, the CSV writer in blocks of whole
paths holding about ``_FORMAT_CELLS`` values, and file digests are
streamed, so no export holds more than a few blocks beyond its input.
Every second block of CSV rows is formatted on model._ahead's worker (a
forked process, or a thread) and handed back through one of its two shared
slots; the bytes of the file do not depend on the worker.

CSV cells are formatted by a numpy kernel, ``_format_cells``, that writes
the bytes of ``repr`` without calling it for values in repr's
fixed-notation range, 1e-4 <= |v| < 1e16.  It scales |v| by 10**k to 17
digits exactly (Dekker's error-free product with 5**k, then 2**k), takes
the nearest 17-digit integer and its residue, and keeps the shortest
rounding of it that reads back to v, decided exactly from that residue.
Every value it cannot decide (zeros, infinities, nan, values outside the
range, powers of two and exact ties) goes to ``repr`` itself, so each cell
holds repr's bytes.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import json
from pathlib import Path

import numpy as np

from .model import _ahead

_HEADER_BYTES = 32  # four uint64 words
_BLOCK_PATHS = 256  # paths per block of an ensemble export
_FORMAT_CELLS = 1 << 13  # values per block of CSV rows, formatted at once
_DIGEST_CHUNK_BYTES = 1 << 20


def ensemble_to_csv(values: np.ndarray, knots: np.ndarray, path, prefix: str = "x") -> None:
    """Write an (M, K, D) ensemble as CSV rows (path, step, t, components).

    Rows are formatted in blocks of whole paths, about ``_FORMAT_CELLS``
    values, each laid out as one NUL-padded byte matrix (path, the knot's
    ``,step,t,``, cells each followed by a comma or the newline) whose
    bytes other than NUL are written.  Block 2k + 1 is formatted on
    model._ahead's worker (a forked process, or a thread) into one of its
    two shared slots, as a byte count and the bytes, while this process
    formats and writes block 2k; an export of fewer than four blocks is
    formatted here.  So memory stays bounded by a few blocks whatever M is,
    and the bytes do not depend on the worker.  A failed worker raises the
    thread's exception, or an OSError naming the block.
    """
    values = np.asarray(values, dtype=float)
    M, K, D = values.shape
    knots = np.asarray(knots, dtype=float).tolist()
    heads = np.array([f",{j},{t!r},".encode() for j, t in enumerate(knots)])
    heads = heads.view(np.uint8).reshape(len(knots), -1)
    head_width = heads.shape[1]
    step = max(1, _FORMAT_CELLS // (K * D))
    starts = range(0, M, step)

    def block_bytes(start):  # the rows of the paths from start on
        block = values[start:start + step]
        P = len(block)
        paths = np.arange(start, start + P).astype("S").view(np.uint8).reshape(P, -1)
        path_width = paths.shape[1]
        width = path_width + head_width
        rows = np.zeros((P, K, width + 25 * D), np.uint8)
        rows[:, :, :path_width] = paths[:, None]
        rows[:, :, path_width:width] = heads
        cells = rows[:, :, width:].reshape(P, K, D, 25)
        text = _format_cells(np.ascontiguousarray(block).reshape(-1))
        cells[..., :24] = text.reshape(P, K, D, 24)
        cells[..., 24] = ord(",")
        rows[:, :, -1] = ord("\n")
        return rows[rows != 0]

    def fill(k, slot):  # slot[0] counts the bytes that follow it
        data = block_bytes(starts[2 * k + 1])
        slot[0] = len(data)
        slot[1:].view(np.uint8)[:len(data)] = data

    # the most bytes a block can hold, as floats after the count
    slot_floats = 1 + -(-step * K * (len(str(M - 1)) + head_width + 25 * D) // 8)
    odd = _ahead(len(starts) // 2, (slot_floats,), fill,
                 lambda k, slot: slot[1:].view(np.uint8)[:int(slot[0])],
                 lambda k: f"CSV block {2 * k + 1} (paths {starts[2 * k + 1]} to "
                           f"{min(starts[2 * k + 1] + step, M) - 1}) was not formatted: "
                           "the process formatting it")
    with open(path, "wb") as out, contextlib.closing(odd):
        out.write(("path,step,t," + ",".join(f"{prefix}{i}" for i in range(D)) + "\n").encode())
        for start in starts[::2]:
            out.write(block_bytes(start))
            if start + step < M:
                out.write(next(odd))


_SPLIT = 134217729.0  # 2**27 + 1: Dekker's split of a float64 into two 26-bit halves


@functools.cache
def _cell_tables() -> tuple:
    """The tables of ``_format_cells``, built on first use.

    By the biased exponent E of |v|, from 1009 (2**-14): the index i of
    2**E's decade, 10**(i-4) <= 2**E < 10**(i-3), and the float nearest
    the decade's end.  By i, with k = 20 - i: 5**k, its two Dekker halves,
    2**k and 10**k / 2.  Then the ASCII digits of each number below 10**4,
    the mask of the bytes of digit word w that lie before byte c of the
    three words (masks[w, c]), and the words of the sign and of "0.".
    """
    p10 = (10 ** np.arange(17)).astype(float)
    tens = np.concatenate([1 / p10[4:0:-1], p10])  # the floats nearest 10**j, j = -4 .. 16
    decade = np.searchsorted(tens, np.ldexp(1.0, np.arange(-14, 54)), "right") - 1
    k = 20 - np.arange(20)
    five = (5 ** k).astype(float)  # exact: 5**20 < 2**53
    t = five * _SPLIT
    five_hi = t - (t - five)
    quads = (np.arange(10_000)[:, None] // [1000, 100, 10, 1] % 10 + 48).astype(np.uint8)
    masks = np.array([[(1 << 8 * min(max(c - 8 * w, 0), 8)) - 1 for c in range(26)]
                      for w in range(3)], np.uint64)
    prefixes = np.array([0, 0x2E30 << 48, 0x2D << 40, 0x2E302D << 40], np.uint64)
    return (decade, tens[decade + 1], five, five_hi, five - five_hi, np.ldexp(1.0, k),
            five * np.ldexp(1.0, k - 1), quads.view("<u4").ravel().astype(np.uint64),
            masks, prefixes)


def _rounding(m, n, n_half, rho, h, even) -> tuple:
    """For N (n) rounded to a multiple of 10**m, ties by the sign of rho
    (n_half is n less one where rho < 0): its distance d from N, whether it
    reads back to v, |d - rho| < h or = h for an even significand (exact:
    h < 11.2, so d +- h is exact for |d| <= 12, and any larger |d| fails
    whatever its rounding), and whether it is an exact tie (not kept)."""
    step = 10**m
    d = (n_half + step // 2) // step * step - n
    lo = d - h
    hi = d + h
    kept = (lo < rho) & (rho < hi) | even & ((rho == lo) | (rho == hi))
    tie = kept & (d == step // 2) & (rho == 0)
    return d, kept & ~tie, tie


def _format_cells(v: np.ndarray) -> np.ndarray:
    """The bytes of ``repr`` of each value of the 1-D float64 array ``v``,
    as the rows of an (n, 24) uint8 matrix padded with NUL bytes (also
    inside a row).

    For 1e-4 <= |v| < 1e16 whose significand is not a power of two (so
    the floats next to |v| are equally far from it), X = |v| * 10**k has
    17 digits before the point and is exactly p * 2**k + err * 2**k.  Its
    nearest integer N and residue rho = X - N decide, for m = 1, 2, ...,
    whether N rounded to a multiple of 10**m (ties by the sign of rho)
    reads back to v: its distance from X, d - rho, must lie within half the
    float spacing at v, h (on it when v's significand is even).  d and h are
    exact and small when that is possible, so the test is exact; and since
    those roundings only get farther from X as m grows, the search stops at
    the first failure.  Every other value, and an exact tie that would be
    kept, goes to ``repr``.
    """
    decade, top, five, five_hi, five_lo, scale, half, quads, masks, prefixes = _cell_tables()
    a = np.abs(v)
    bits = a.view(np.int64)
    fallback = ~((a >= 1e-4) & (a < 1e16)) | (bits & (1 << 52) - 1 == 0)
    a[fallback] = 1.5  # any value in range, so that the arithmetic below stays finite
    e = (bits >> 52) - 1009
    i = decade[e] + (a >= top[e])
    p = a * five[i]
    t = a * _SPLIT
    a_hi = t - (t - a)
    a_lo = a - a_hi
    err = ((a_hi * five_hi[i] - p) + a_hi * five_lo[i] + a_lo * five_hi[i]) + a_lo * five_lo[i]
    s = scale[i]
    err *= s
    floor = np.floor(err)
    frac = err - floor
    up = frac > 0.5
    nearest = (p * s).astype(np.int64) + floor.astype(np.int64) + up
    rho = frac - up
    h = ((bits >> 52) - 52 << 52).view(float) * half[i]
    fallback |= frac == 0.5
    # m = 1, 2, ...: round N to a multiple of 10**m, kept while it reads
    # back to v; most values need 16 or 17 digits, so only the values kept
    # at m = 2 are compressed for the rounds after it
    best = nearest.copy()
    digits = np.full(len(v), 17)
    n_half = nearest - (rho < 0)  # a residue below zero rounds a half down
    even = bits & 1 == 0
    live = ~fallback
    for m in (1, 2):
        d, kept, tie = _rounding(m, nearest, n_half, rho, h, even)
        fallback |= tie & live
        live &= kept
        np.add(nearest, d, out=best, where=live)
        digits -= live
    live = np.flatnonzero(live)
    n, n_half, r, hl, even = (x[live] for x in (nearest, n_half, rho, h, even))
    for m in range(3, 17):
        d, kept, tie = _rounding(m, n, n_half, r, hl, even)
        fallback[live[tie]] = True
        live, n, n_half, d, r, hl, even = (x[kept] for x in (live, n, n_half, d, r, hl, even))
        if not live.size:
            break
        best[live] = n + d
        digits[live] = 17 - m
    # the 17 digits of best as three little-endian words of ASCII, after
    # three zeros; |v| = 0.best * 10**point
    point = i - 3
    upper = best // 10**8
    lower = best - upper * 10**8
    u4 = upper // 10**4
    l4 = lower // 10**4
    words = (quads[u4 // 10**4] | quads[u4 % 10**4] << 32,
             quads[upper - u4 * 10**4] | quads[l4] << 32,
             quads[lower - l4 * 10**4])
    # keep the zeros after "0." and the digits up to the last significant
    # one or the point, and shift the bytes after the point by one for "."
    end = 3 + np.maximum(digits, point + 1)
    dot = np.where(point > 0, 3 + point, 24)
    out = np.empty((len(v), 4), "<u8")  # byte c of a word is bits 8c to 8c + 7
    out[:, 0] = prefixes[(point <= 0) + 2 * np.signbit(v)]
    carry, dots = 0, np.uint64(0x2E2E2E2E2E2E2E2E)
    for w, word in enumerate(words):
        word &= masks[w, end]
        if w == 0:
            word &= ~masks[0, 3 + np.minimum(point, 0)]
        shifted = word << 8 | carry
        carry = word >> 56
        before, through = masks[w, dot], masks[w, dot + 1]
        out[:, 1 + w] = word & before | shifted & ~through | (through ^ before) & dots
    cells = out.view(np.uint8)[:, 5:29]
    rest = np.flatnonzero(fallback)
    if rest.size:
        text = np.array([repr(x) for x in v[rest].tolist()], "S24")
        cells[rest] = text.view(np.uint8).reshape(-1, 24)
    return cells


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
