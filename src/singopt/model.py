"""Control-problem definitions: coefficients, grids, noise and validation.

A problem couples a state equation

    dx_t = b(t, x_t, a_t) dt + sigma(t, x_t, a_t) dW_t + G(t) d(eta_t)

with the cost  E[ g(x_T) + int h(t, x_t, a_t) dt + int k(t) . d(eta_t) ],
where the absolutely-continuous control a takes values in a finite candidate
grid U1 and eta is a componentwise-nondecreasing singular control.  Four
built-in problems used throughout the test-suite are constructed here from
the JSON coefficient forms, so they round-trip exactly through the problem
file format.
"""

from __future__ import annotations

import contextvars
import functools
import json
import math
import mmap
import os
import threading
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable

import numpy as np

from .coefficients import ProblemError, build_coefficients, read_reals

BUILTIN_NAMES = ("example1", "example2_separated", "example2_stochastic", "singular_block")


def _check_count(name, value):
    """Refuse a count that is not an integer >= 1 (a bool is not a count)."""
    if isinstance(value, bool) or not (isinstance(value, (int, np.integer)) and value >= 1):
        raise ProblemError(f"{name} must be an integer >= 1, got {value!r}")


def _check_horizon(horizon):
    if isinstance(horizon, bool) or not 0 < horizon < np.inf:
        raise ProblemError(f"horizon must be finite and positive, got {horizon!r}")


@dataclass(frozen=True, eq=False)
class ProblemSpec:
    """A fully specified control problem.

    Coefficient callables follow the broadcasting contract of
    :mod:`singopt.coefficients`: x may carry leading batch axes, the control
    point a is a single vector of shape (k,).  Gradients may be supplied
    independently of the value functions (validate_problem cross-checks them
    against finite differences).
    """

    name: str
    n: int
    d: int
    k: int
    m: int
    horizon: float
    x0: np.ndarray
    b: Callable
    sigma: Callable
    G: Callable
    h: Callable
    g: Callable
    k_cost: Callable
    b_x: Callable
    sigma_x: Callable
    h_x: Callable
    g_x: Callable
    u1_grid: np.ndarray
    assumptions_box: tuple
    config: dict | None = field(default=None, repr=False)

    def __post_init__(self):
        for name in ("n", "d", "k", "m"):
            _check_count(name, getattr(self, name))
        _check_horizon(self.horizon)
        if np.size(self.x0) != self.n:
            raise ProblemError(f"x0 must hold {self.n} values, got {np.size(self.x0)}")
        object.__setattr__(self, "x0", np.asarray(self.x0, dtype=float).reshape(self.n))
        grid = np.asarray(self.u1_grid, dtype=float)
        if grid.ndim == 1:
            grid = grid[:, None]
        if grid.size == 0 or grid.shape[1] != self.k or not np.all(np.isfinite(grid)):
            raise ProblemError("u1_grid must be a nonempty finite set of points in R^k")
        object.__setattr__(self, "u1_grid", grid)
        lo = np.asarray(self.assumptions_box[0], dtype=float).reshape(self.n)
        hi = np.asarray(self.assumptions_box[1], dtype=float).reshape(self.n)
        if np.any(hi <= lo):
            raise ProblemError("assumptions_box must have low < high componentwise")
        object.__setattr__(self, "assumptions_box", (lo, hi))

    @property
    def diffusion_is_zero(self) -> bool:
        """Whether the diffusion form vanishes, so the paths are
        deterministic; a diffusion replaced by a callable carries no flag."""
        return getattr(self.sigma, "is_zero", False)

    def with_overrides(self, **kwargs) -> "ProblemSpec":
        """Copy with selected fields replaced (test fixtures override gradients)."""
        return replace(self, **kwargs)


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid 0 = t_0 < ... < t_N = T, N >= 1 an integer, T finite."""

    num_steps: int
    horizon: float

    def __post_init__(self):
        _check_count("num_steps", self.num_steps)
        _check_horizon(self.horizon)

    @property
    def dt(self) -> float:
        return self.horizon / self.num_steps

    @functools.cached_property
    def knots(self) -> np.ndarray:
        """The N + 1 knots, computed once per grid and read-only."""
        knots = np.linspace(0.0, self.horizon, self.num_steps + 1)
        knots.flags.writeable = False
        return knots

    def refine(self, factor: int) -> "TimeGrid":
        return TimeGrid(self.num_steps * factor, self.horizon)


def ensemble_empty(num_paths: int, num_knots: int, *tail: int) -> np.ndarray:
    """Uninitialised ensemble array of shape (num_paths, num_knots, *tail).

    Every ensemble-sized array of the package (noise, states, sensitivities,
    fundamental pair, adjoints) is allocated here or by ensemble_zeros.  The
    memory is time-major, (num_knots, num_paths, *tail), and the returned
    array is the transposed view, so ``values[:, j]`` is one contiguous
    block: the Euler and regression sweeps read and write one knot of all
    paths at a time.
    """
    return np.empty((num_knots, num_paths) + tail).swapaxes(0, 1)


def ensemble_zeros(num_paths: int, num_knots: int, *tail: int) -> np.ndarray:
    """Zero-filled ensemble array, laid out as by ensemble_empty."""
    return np.zeros((num_knots, num_paths) + tail).swapaxes(0, 1)


# Noise is drawn path by path into a scratch block of paths, then copied into
# the time-major window in tiles of steps that stay in cache.
_NOISE_BLOCK_PATHS = 256
_NOISE_TILE_STEPS = 64

# The constants of NumPy's SeedSequence, after O'Neill's seed_seq_fe.
_POOL_SIZE = 4
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _entropy_words(entropy) -> list[int]:
    """A seed's uint32 words as SeedSequence assembles them: an integer in
    little-endian 32-bit words (0 is one word), a string element as the
    integer it spells ("0x..." hexadecimal, else decimal), a sequence the
    words of its elements in turn."""
    if isinstance(entropy, str):
        entropy = int(entropy, 16 if entropy.startswith("0x") else 10)
    if isinstance(entropy, (int, np.integer)):
        value = int(entropy)
        words = [value & _MASK32]
        while value := value >> 32:
            words.append(value & _MASK32)
        return words
    return [word for item in entropy for word in _entropy_words(item)]


class _Hash:
    """SeedSequence's multiply-xorshift hash on uint32 arrays; its multiplier
    advances by ``mult`` at every call."""

    def __init__(self, init: int, mult: int):
        self._const, self._mult = init, mult

    def __call__(self, value: np.ndarray) -> np.ndarray:
        value = value ^ self._const
        self._const = self._const * self._mult & _MASK32
        value = value * self._const
        return value ^ value >> 16


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """SeedSequence's mix of a pool word x with a hashed word y."""
    result = x * _MIX_MULT_L - y * _MIX_MULT_R
    return result ^ result >> 16


def _spawned_seed_words(seed, num_paths: int) -> np.ndarray:
    """Row i is ``SeedSequence(seed).spawn(num_paths)[i].generate_state(4,
    np.uint64)``, computed for all children at once, shape (num_paths, 4).

    Child i's entropy is the seed's words, padded with zeros to the pool
    size, then the spawn index i (one word while num_paths <= 2**32).  The
    parent's pool is the children's pool before that last word, because
    NumPy runs the hash out with the zeros a child pads with; so only the
    round that mixes in the column of indices is computed here.  By then
    the hash has been called 16 times for the pool, plus 4 times for each
    seed word beyond the pool size.  A count below one raises ProblemError.
    """
    _check_count("num_paths", num_paths)
    parent = np.random.SeedSequence(seed)  # validates the seed
    calls = _POOL_SIZE**2 + _POOL_SIZE * max(0, len(_entropy_words(parent.entropy)) - _POOL_SIZE)
    hashmix = _Hash(_INIT_A * pow(_MULT_A, calls, _MASK32 + 1) & _MASK32, _MULT_A)
    index = np.arange(num_paths, dtype=np.uint32)
    pool = [_mix(parent.pool[i : i + 1], hashmix(index)) for i in range(_POOL_SIZE)]
    # generate_state(4, np.uint64): eight uint32 words cycling over the pool,
    # read as little-endian pairs
    state_hash = _Hash(_INIT_B, _MULT_B)
    state = np.stack([state_hash(pool[i % _POOL_SIZE]) for i in range(2 * _POOL_SIZE)], axis=1)
    return state.astype("<u4").view("<u8").astype(np.uint64)


@functools.cache
def _seed_words_type() -> type:
    """The seed sequence that hands PCG64 one path's spawned state words.

    Built on first use, because naming its base imports numpy.random, which
    importing singopt otherwise leaves to the first noise draw.
    """

    class SeedWords(np.random.bit_generator.ISeedSequence):
        """PCG64 asks its seed sequence for exactly generate_state(4,
        np.uint64), and seeds itself from the answer."""

        __slots__ = ("_words",)

        def __init__(self, words: np.ndarray):
            self._words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self._words

    return SeedWords


_SIGKILL = 9  # fixed by POSIX; the signal module is not otherwise loaded
# most of a failed worker's error that it writes to its filled pipe and the
# caller's OSError quotes: one atomic pipe write at most (PIPE_BUF on
# Linux), so the whole cause is in the pipe before its first byte is read
_CAUSE_BYTES = 4096


def _single_threaded() -> bool:
    """Whether this process runs one operating-system thread, as the
    interpreter counts them when it warns about a fork.  The package's
    one fork, _ahead's worker, is made only when this holds; else the
    worker is a thread.

    A fork beside any other thread (a live Python thread, or a BLAS
    library's worker pool) can deadlock the child on a lock that thread
    held.  Where ``/proc/self/task`` cannot be read (outside Linux, and so
    wherever ``os.fork`` does not exist) the answer is no.
    """
    try:
        return len(os.listdir("/proc/self/task")) == 1
    except OSError:
        return False


def _path_normals(words: np.ndarray) -> list:
    """The standard normal draws of the paths whose spawned seed words are
    the rows of words: PCG64 generators seeded with those words."""
    seed_words = _seed_words_type()
    return [np.random.Generator(np.random.PCG64(seed_words(row))).standard_normal for row in words]


def _draw(window: np.ndarray, normals, block: np.ndarray, scale) -> None:
    """Write the increments of the next K steps of every path into the
    time-major window (K, M, d), times scale: normals(start, stop) draws
    N(0, I_d) for paths start to stop - 1, one call per path into a row of
    the scratch block (min(M, _NOISE_BLOCK_PATHS) rows, at least K steps,
    d).  A generator keeps its state between calls, so windows drawn in
    order equal one draw over the whole grid, bit for bit."""
    K, M = window.shape[:2]
    block = block[:, :K]  # each row is exactly one path's K steps, so one call draws them
    for start in range(0, M, len(block)):
        stop = min(start + len(block), M)
        for row, normal in zip(block, normals(start, stop)):
            normal(out=row)
        for step in range(0, K, _NOISE_TILE_STEPS):
            tile = slice(step, step + _NOISE_TILE_STEPS)
            np.multiply(scale, block[: stop - start, tile].swapaxes(0, 1),
                        out=window[tile, start:stop])


def noise_windows(num_paths: int, grid: TimeGrid, noise_dim: int, seed, width: int):
    """Yield (first, window) over the steps of grid for the ensemble of
    NoiseBatch.generate(num_paths, grid, noise_dim, seed): time-major
    windows (K, M, d) of width steps (the last may be narrower), first the
    step each one starts at.

    Every path's generator is built at the call and kept between windows.
    The windows are drawn by _draw on _ahead's worker (a forked process,
    or a thread), one window ahead of the caller, so a window holds its
    increments only until the next one is asked for; a failed draw raises
    the thread's exception, or an OSError naming the steps.  Close the
    generator (contextlib.closing) to stop the worker early.  One draw runs
    at a time, in order, so the increments are the whole-grid draw's, bit
    for bit, whichever worker draws them and whenever it runs.
    """
    # the generators and the scratch block are built at the call, so the
    # caller's arrays are allocated after them and the worker allocates
    # none; built at the first window instead, they raised chatter's peak
    # RSS by 0.4 MB
    normals = _path_normals(_spawned_seed_words(seed, num_paths))
    num_steps = grid.num_steps
    width = min(width, num_steps)
    block = np.empty((min(num_paths, _NOISE_BLOCK_PATHS), width, noise_dim))
    scale = np.sqrt(grid.dt)
    firsts = range(0, num_steps, width)
    stops = [min(first + width, num_steps) for first in firsts]
    return _ahead(len(firsts), (width, num_paths, noise_dim),
                  lambda k, slot: _draw(slot[: stops[k] - firsts[k]],
                                        lambda start, stop: normals[start:stop], block, scale),
                  lambda k, slot: (firsts[k], slot[: stops[k] - firsts[k]]),
                  lambda k: f"noise of steps {firsts[k]} to {stops[k] - 1} was not drawn: "
                            "the process drawing it")


def _ahead(count: int, shape: tuple, fill, item, lost, numerical=()):
    """Yield item(k, slot) for k = 0 .. count - 1, after fill(k, slot) has
    written item k into slot, a float array of the given shape, on one
    worker that runs an item ahead of the caller: fills run in order, one
    at a time, and their state (a stream, a sweep) lives in the worker.

    The worker is a forked process when this process runs one
    operating-system thread (_single_threaded), else (or when the fork
    fails) a thread in the caller's context, numpy's error state included;
    a single item is filled here.  The items sit in two slots of one
    anonymous shared mapping, so each is valid until the next is asked
    for.  The worker writes a NUL byte to the ``filled`` pipe per item, and
    fills item k + 2 only after reading the byte that the caller writes to
    ``free`` when it asks for item k + 1.  A failed fill writes "Type:
    message" (at most _CAUSE_BYTES) to ``filled`` instead; the caller then
    raises the thread's exception, or reaps the process and raises the
    error again if its type is one of numerical, else an OSError: lost(k),
    how the process ended and its error.  Close the generator
    (contextlib.closing) to kill and reap the process, or join the thread,
    also when the caller raises or stops early.
    """
    slots = np.frombuffer(mmap.mmap(-1, 8 * min(2, count) * math.prod(shape)))
    slots = slots.reshape((min(2, count),) + shape)
    if count == 1:
        # no worker: a joined thread stays an operating-system thread for a
        # few milliseconds, so the next call would not fork
        fill(0, slots[0])
        yield item(0, slots[0])
        return
    filled_in, filled_out = os.pipe()
    try:
        free_in, free_out = os.pipe()
    except OSError:  # no descriptor to spare
        os.close(filled_in)
        os.close(filled_out)
        raise
    fds = [filled_in, filled_out, free_in, free_out]
    failure = []

    def produce():
        try:
            for k in range(count):
                if k >= 2 and not os.read(free_in, 1):
                    return  # the caller stopped early
                fill(k, slots[k % 2])
                os.write(filled_out, b"\0")
        except BaseException as exc:  # reported when its item is asked for
            failure.append(exc)
            cause = f"{type(exc).__name__}: {exc}".encode(errors="replace")
            os.write(filled_out, cause[:_CAUSE_BYTES])
        finally:
            os.close(filled_out)  # so that the caller's read of filled ends

    pid = thread = None
    try:
        if _single_threaded():
            try:
                pid = os.fork()
            except OSError:  # no process to spare: the thread fills
                pass
        if pid == 0:
            # os._exit skips the atexit handlers and the inherited stdio buffers
            try:
                os.close(free_out)  # so that the caller's death ends a wait for free
                produce()
            finally:
                os._exit(1 if failure else 0)
        if pid is None:
            worker = threading.Thread(target=contextvars.copy_context().run, args=(produce,),
                                      name="singopt-worker")
            worker.start()
            thread = worker
        else:
            os.close(filled_out)
        fds.remove(filled_out)
        for k in range(count):
            if 0 < k < count - 1:
                os.write(free_out, b"\0")  # item k - 1's slot may take item k + 1
            byte = os.read(filled_in, 1)
            if byte != b"\0":
                if thread is not None:
                    thread.join()
                    raise failure[0]
                code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                pid = None
                cause = (byte + os.read(filled_in, _CAUSE_BYTES)).decode(errors="replace")
                for error in numerical:
                    if code == 1 and cause.startswith(f"{error.__name__}: "):
                        raise error(cause[len(error.__name__) + 2 :])
                ended = f"exit status {code}" if code >= 0 else f"signal {-code}"
                raise OSError(f"{lost(k)} ended with {ended}" + (f": {cause}" if cause else ""))
            yield item(k, slots[k % 2])
    finally:
        try:
            if pid:
                os.kill(pid, _SIGKILL)
                os.waitpid(pid, 0)
            elif thread is not None:
                fds.remove(free_out)
                os.close(free_out)  # ends the thread's wait for free
                thread.join()
        finally:
            for fd in fds:
                os.close(fd)


@dataclass(frozen=True, eq=False)
class NoiseBatch:
    """Brownian increments for a path ensemble over the whole grid they were
    drawn on, shape (M, N, d), stored time-major (see ensemble_empty).

    Path i draws its increments from N(0, dt I_d) with its own generator,
    seeded by the i-th child of SeedSequence(seed), so path i's noise does
    not depend on how many paths the batch holds and regeneration is
    bit-exact.  The children's PCG64 states are hashed for all paths at
    once (_spawned_seed_words).
    """

    seed: object
    grid: TimeGrid
    increments: np.ndarray = field(repr=False)

    @classmethod
    def generate(cls, num_paths: int, grid: TimeGrid, noise_dim: int, seed) -> "NoiseBatch":
        """seed may be an int or a tuple of ints (derived experiment streams).
        Each block of paths builds its generators for that block alone."""
        words = _spawned_seed_words(seed, num_paths)
        dW = ensemble_empty(num_paths, grid.num_steps, noise_dim)
        block = np.empty((min(num_paths, _NOISE_BLOCK_PATHS), grid.num_steps, noise_dim))
        _draw(dW.swapaxes(0, 1), lambda start, stop: _path_normals(words[start:stop]), block,
              np.sqrt(grid.dt))
        return cls(seed, grid, dW)


# ---------------------------------------------------------------------------
# built-in problems
# ---------------------------------------------------------------------------

def _builtin_config(name: str, kappa: float) -> dict:
    scalar = {"n": 1, "d": 1, "k": 1, "m": 1}
    box = {"low": [-2.0], "high": [2.0]}
    if name == "example1":
        return {
            "name": name,
            "dims": scalar,
            "horizon": 1.0,
            "x0": [0.0],
            "coefficients": {
                "drift": {"form": "affine", "control": [[1.0]]},
                "diffusion": {"form": "zero"},
                "singular_gain": {"form": "zero"},
                "running_cost": {"form": "quadratic", "state_quad": [[1.0]]},
                "terminal_cost": {"form": "zero"},
                "singular_cost": {"form": "zero"},
            },
            "u1_grid": [[-1.0], [1.0]],
            "assumptions_box": box,
        }
    if name in ("example2_separated", "example2_stochastic"):
        cfg = _builtin_config("example1", kappa)
        cfg["name"] = name
        # running cost x^2 + (1 - a^2)^2, expanded in powers of a
        cfg["coefficients"]["running_cost"]["control_poly"] = [[1.0, 0.0, -2.0, 0.0, 1.0]]
        cfg["u1_grid"] = [[v] for v in np.linspace(-1.0, 1.0, 21)]
        if name == "example2_stochastic":
            cfg["coefficients"]["diffusion"] = {"form": "affine", "const": [[1.0]]}
        return cfg
    if name == "singular_block":
        return {
            "name": name,
            "dims": scalar,
            "horizon": 1.0,
            "x0": [1.0],
            "coefficients": {
                "drift": {"form": "zero"},
                "diffusion": {"form": "zero"},
                "singular_gain": {"form": "constant", "value": [[1.0]]},
                "running_cost": {"form": "quadratic", "state_quad": [[1.0]]},
                "terminal_cost": {"form": "zero"},
                "singular_cost": {"form": "constant", "value": [float(kappa)]},
            },
            "u1_grid": [[0.0]],
            "assumptions_box": box,
        }
    raise ProblemError(f"unknown built-in problem '{name}'; available: {', '.join(BUILTIN_NAMES)}")


def problem_from_config(config: dict) -> ProblemSpec:
    """Assemble a ProblemSpec from a JSON-style problem description; a
    malformed description raises ProblemError."""
    if not isinstance(config, dict):
        raise ProblemError(f"problem config must be an object, got {config!r}")
    for key in ("dims", "horizon", "x0", "u1_grid", "assumptions_box"):
        if key not in config:
            raise ProblemError(f"problem config missing '{key}'")
    box = config["assumptions_box"]
    if not (isinstance(box, dict) and "low" in box and "high" in box):
        raise ProblemError(f"assumptions_box must be an object with 'low' and 'high', got {box!r}")
    try:
        return ProblemSpec(
            **build_coefficients(config),
            name=str(config.get("name", "unnamed")),
            horizon=float(read_reals(config["horizon"], "horizon", ())),
            x0=read_reals(config["x0"], "x0"),
            u1_grid=read_reals(config["u1_grid"], "u1_grid"),
            assumptions_box=(read_reals(box["low"], "assumptions_box.low"),
                             read_reals(box["high"], "assumptions_box.high")),
            config=config,
        )
    except ProblemError:
        raise
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ProblemError(f"malformed problem config: {exc}") from None


def builtin_problem(name: str, kappa: float = 1.0) -> ProblemSpec:
    """Return one of the built-in problems.

    ``kappa`` sets the singular cost rate of ``singular_block`` and is
    ignored by the other names.
    """
    return problem_from_config(_builtin_config(name, kappa))


def problem_to_json(spec: ProblemSpec, path: str | Path | None = None) -> str:
    """Serialize a form-built problem to JSON; custom-callable specs cannot."""
    if spec.config is None:
        raise ProblemError(
            f"problem '{spec.name}' was built from custom callables and has no JSON form"
        )
    text = json.dumps(spec.config, indent=2, sort_keys=True)
    if path is not None:
        Path(path).write_text(text + "\n")
    return text


def _names_a_file(text: str) -> bool:
    """Whether a one-line string is the name of an existing file; a string
    the OS refuses as a name (longer than its limit, say) is not one."""
    try:
        return "\n" not in text and Path(text).is_file()
    except (OSError, ValueError):
        return False


def problem_from_json(source: str | Path) -> ProblemSpec:
    """Load a problem from a JSON string or UTF-8 file path: a string that
    names an existing file is read as a path, any other as JSON text."""
    text = source
    if isinstance(source, Path) or (isinstance(source, str) and _names_a_file(source)):
        try:
            text = Path(source).read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise ProblemError(f"problem file {str(source)!r} is not UTF-8 text: {exc}") from exc
    try:
        config = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ProblemError(f"invalid problem JSON: {exc}") from exc
    return problem_from_config(config)


# ---------------------------------------------------------------------------
# assumption validation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def violated(self) -> list:
        return [c for c in self.checks if not c.passed]

    def __str__(self):
        lines = [
            f"[{'pass' if c.passed else 'FAIL'}] {c.name}: {c.detail}" for c in self.checks
        ]
        return "\n".join(lines)


def _require_finite(value, fn_name, t, x, a=None):
    if not np.all(np.isfinite(value)):
        where = f"t={t!r}, x={np.asarray(x).tolist()!r}"
        if a is not None:
            where += f", a={np.asarray(a).tolist()!r}"
        raise ProblemError(f"{fn_name} returned a non-finite value at {where}")
    return value


def _fd_gradient(fn, x, eps):
    """Central finite differences of fn along the state, one component at a time."""
    n = x.shape[-1]
    cols = []
    for j in range(n):
        dx = np.zeros(n)
        dx[j] = eps
        cols.append((np.asarray(fn(x + dx)) - np.asarray(fn(x - dx))) / (2 * eps))
    return np.stack(cols, axis=-1)


def validate_problem(spec: ProblemSpec, probe_seed: int = 0) -> ValidationReport:
    """Probe the standing assumptions of a problem at random sample points.

    Checks, in order: componentwise nonnegativity of the singular cost rate,
    agreement of every declared state gradient with central finite
    differences (relative tolerance 1e-4), and a linear-growth probe on b
    and sigma over the assumptions box (bound 1e6).  Deterministic for a
    fixed ``probe_seed``.  A non-finite coefficient value raises ProblemError
    immediately, naming the function and inputs.  Each coefficient is
    evaluated once per sample point, plus twice per state component for
    its finite differences.
    """
    rng = np.random.default_rng(probe_seed)
    lo, hi = spec.assumptions_box
    ts = rng.uniform(0.0, spec.horizon, size=64)
    xs = rng.uniform(lo, hi, size=(64, spec.n))
    atoms = spec.u1_grid[rng.integers(0, len(spec.u1_grid), size=64)]
    checks = []

    # singular cost rate must map into [0, inf)^m
    k_vals = np.array([_require_finite(spec.k_cost(t), "singular_cost", t, "-") for t in ts])
    k_min = float(k_vals.min())
    checks.append(
        CheckResult("singular_cost_nonnegative", k_min >= 0.0, f"min component {k_min:.3g}")
    )

    # gradient consistency: declared derivatives vs central differences, whose
    # axis `first` leads in the declared layout (sigma's differences are
    # (n, d, n), sigma_x is (d, n, n)); growth: |b|, |sigma| against
    # C (1 + |x| + |a|)
    eps = 1e-5
    gradients = (
        ("drift", spec.b, spec.b_x, 0),
        ("diffusion", spec.sigma, spec.sigma_x, 1),
        ("running_cost", spec.h, spec.h_x, 0),
        ("terminal_cost", lambda t, x, a: spec.g(x), lambda t, x, a: spec.g_x(x), 0),
    )
    worst = {name: 0.0 for name, *_ in gradients}
    ratio = 0.0
    for t, x, a in zip(ts, xs, atoms):
        b = _require_finite(spec.b(t, x, a), "drift", t, x, a)
        sigma = _require_finite(spec.sigma(t, x, a), "diffusion", t, x, a)
        _require_finite(spec.h(t, x, a), "running_cost", t, x, a)
        _require_finite(spec.g(x), "terminal_cost", t, x)
        for name, fn, grad, first in gradients:
            fd = _fd_gradient(lambda y: fn(t, y, a), x, eps)
            declared = np.asarray(grad(t, x, a), dtype=float)
            worst[name] = max(worst[name], _rel_err(np.moveaxis(fd, first, 0), declared))
        scale = 1.0 + np.linalg.norm(x) + np.linalg.norm(a)
        ratio = max(ratio, np.linalg.norm(b) / scale, np.linalg.norm(sigma) / scale)
    for fn_name, err in worst.items():
        checks.append(
            CheckResult(
                f"gradient_consistency_{fn_name}",
                err <= 1e-4,
                f"worst relative error {err:.3g} (tol 1e-4)",
            )
        )
    checks.append(
        CheckResult(
            "linear_growth",
            ratio <= 1e6,
            f"max |coefficient| / (1+|x|+|a|) = {ratio:.3g} over the assumptions box",
        )
    )

    checks.append(
        CheckResult("u1_grid", True, f"{len(spec.u1_grid)} candidate points in R^{spec.k}")
    )
    return ValidationReport(tuple(checks))


def _rel_err(fd, declared):
    return float(np.max(np.abs(fd - declared) / (1.0 + np.abs(declared))))
