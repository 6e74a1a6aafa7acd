"""Problem definitions, assumption validation, noise reproducibility."""

import errno
import json
import math
import os
import signal
import sys
import threading

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from singopt import model
from singopt.coefficients import read_reals
from singopt.model import (
    _NOISE_BLOCK_PATHS,
    BUILTIN_NAMES,
    NoiseBatch,
    ProblemError,
    TimeGrid,
    _builtin_config,
    _draw,
    _path_normals,
    _spawned_seed_words,
    builtin_problem,
    noise_windows,
    problem_from_config,
    problem_from_json,
    problem_to_json,
    validate_problem,
)
from singopt.sde import _NOISE_WINDOW_KNOTS

from conftest import planar_config, reaped, refuse_fork, traced_peak


def test_builtin_names_all_load_and_validate():
    for name in BUILTIN_NAMES:
        spec = builtin_problem(name)
        report = validate_problem(spec, probe_seed=1)
        assert report.passed, f"{name}:\n{report}"


def test_unknown_builtin_lists_available():
    with pytest.raises(ProblemError, match="example1"):
        builtin_problem("no_such_problem")


def test_example1_fields(example1):
    assert example1.horizon == 1.0
    assert example1.x0.tolist() == [0.0]
    assert sorted(example1.u1_grid.ravel().tolist()) == [-1.0, 1.0]
    # b = a, sigma = 0, h = x^2
    assert example1.b(0.3, np.array([2.0]), np.array([1.0])).tolist() == [1.0]
    assert not example1.sigma(0.0, np.array([1.0]), np.array([1.0])).any()
    assert example1.h(0.0, np.array([3.0]), np.array([1.0])) == 9.0


def test_example2_running_cost_value(example2_separated):
    # h(0, x=0, a=0) = (1 - 0)^2 = 1
    assert example2_separated.h(0.0, np.array([0.0]), np.array([0.0])) == pytest.approx(1.0)
    # vanishes at a = +-1 when x = 0
    for a in (-1.0, 1.0):
        assert example2_separated.h(0.0, np.array([0.0]), np.array([a])) == pytest.approx(0.0)


def test_singular_block_coefficients():
    spec = builtin_problem("singular_block", kappa=2.5)
    assert spec.G(0.4).tolist() == [[1.0]]
    assert spec.k_cost(0.7).tolist() == [2.5]
    assert spec.x0.tolist() == [1.0]


def test_negative_singular_cost_fails_check():
    cfg = builtin_problem("singular_block").config
    cfg = {**cfg, "coefficients": {**cfg["coefficients"],
                                   "singular_cost": {"form": "constant", "value": [-1.0]}}}
    report = validate_problem(problem_from_config(cfg))
    failed = {c.name for c in report.violated()}
    assert failed == {"singular_cost_nonnegative"}


def test_mismatched_gradient_is_flagged(example1):
    # declare a terminal gradient off by 10%
    broken = example1.with_overrides(g_x=lambda x: 1.1 * example1.g_x(x) + 0.1)
    report = validate_problem(broken)
    assert not report.passed
    assert any(c.name == "gradient_consistency_terminal_cost" for c in report.violated())


def test_nonfinite_coefficient_raises_naming_function(example1):
    broken = example1.with_overrides(h=lambda t, x, a: np.full(np.shape(x)[:-1], np.inf))
    with pytest.raises(ProblemError, match="running_cost"):
        validate_problem(broken)


@pytest.mark.parametrize("name", ["example2_stochastic", "planar"])
def test_validation_evaluates_each_coefficient_once_per_probe(name):
    """Per sample point: one value, plus two finite-difference evaluations
    per state component."""
    spec = (builtin_problem(name) if name in BUILTIN_NAMES
            else problem_from_config(planar_config()))
    calls = dict.fromkeys(("b", "sigma", "h", "g"), 0)

    def counted(key, fn):
        def wrapper(*args):
            calls[key] += 1
            return fn(*args)
        return wrapper

    validate_problem(spec.with_overrides(**{key: counted(key, getattr(spec, key))
                                            for key in calls}))
    assert calls == dict.fromkeys(calls, 64 * (1 + 2 * spec.n))


def test_integral_float_dims_are_integers():
    cfg = builtin_problem("example1").config
    spec = problem_from_config({**cfg, "dims": {"n": 1.0, "d": 1, "k": 1.0, "m": 1}})
    assert (spec.n, spec.k) == (1, 1)
    assert isinstance(spec.n, int)


def test_validation_deterministic_given_probe_seed(example2_stochastic):
    r1 = validate_problem(example2_stochastic, probe_seed=9)
    r2 = validate_problem(example2_stochastic, probe_seed=9)
    assert str(r1) == str(r2)


def test_json_round_trip_exact(example1):
    text = problem_to_json(example1)
    again = problem_from_json(text)
    rng = np.random.default_rng(0)
    for _ in range(100):
        t = rng.uniform(0, 1)
        x = rng.uniform(-2, 2, size=1)
        a = example1.u1_grid[rng.integers(0, 2)]
        assert example1.b(t, x, a).tolist() == again.b(t, x, a).tolist()
        assert example1.sigma(t, x, a).tolist() == again.sigma(t, x, a).tolist()
        assert float(example1.h(t, x, a)) == float(again.h(t, x, a))
        assert float(example1.g(x)) == float(again.g(x))
        assert example1.k_cost(t).tolist() == again.k_cost(t).tolist()


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_one_line_json_longer_than_a_file_name_is_parsed(name):
    text = json.dumps(_builtin_config(name, 1.0))
    assert "\n" not in text and len(text) > 255
    assert problem_from_json(text).config == json.loads(text)


def test_json_round_trip_through_file(tmp_path, example2_stochastic):
    path = tmp_path / "problem.json"
    problem_to_json(example2_stochastic, path)
    again = problem_from_json(path)
    assert again.name == example2_stochastic.name
    assert again.u1_grid.tolist() == example2_stochastic.u1_grid.tolist()


def test_undecodable_problem_file_raises_problem_error(tmp_path):
    path = tmp_path / "problem.json"
    path.write_bytes(b'{"name": "\xff"}')
    with pytest.raises(ProblemError, match="problem.json.*not UTF-8"):
        problem_from_json(path)
    with pytest.raises(ProblemError, match="not UTF-8"):
        problem_from_json(str(path))


def test_diffusion_is_zero_travels_with_the_diffusion(example1, example2_stochastic):
    assert example1.diffusion_is_zero
    assert not example2_stochastic.diffusion_is_zero
    assert not problem_from_config(planar_config()).diffusion_is_zero
    # a replaced diffusion brings its own flag, or none
    unit = example1.with_overrides(sigma=lambda t, x, a: np.ones(np.shape(x)[:-1] + (1, 1)))
    assert not unit.diffusion_is_zero
    assert example2_stochastic.with_overrides(sigma=example1.sigma).diffusion_is_zero


def test_custom_problem_has_no_json_form(tanh_drift):
    with pytest.raises(ProblemError, match="custom callables"):
        problem_to_json(tanh_drift)


def test_time_grid_basics():
    grid = TimeGrid(4, 2.0)
    assert grid.dt == 0.5
    assert grid.knots.tolist() == [0.0, 0.5, 1.0, 1.5, 2.0]
    # built once, read-only, and no part of equality or hashing
    assert grid.knots is grid.knots and not grid.knots.flags.writeable
    assert grid == TimeGrid(4, 2.0) and hash(grid) == hash(TimeGrid(4, 2.0))
    with pytest.raises(ProblemError):
        TimeGrid(0, 1.0)


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: TimeGrid(10, float("inf")), "horizon must be finite and positive, got inf"),
        (lambda: TimeGrid(10, float("nan")), "horizon must be finite and positive, got nan"),
        (lambda: TimeGrid(2.5, 1.0), "num_steps must be an integer >= 1, got 2.5"),
        (lambda: TimeGrid(True, 1.0), "num_steps must be an integer >= 1, got True"),
        (lambda: builtin_problem("example1").with_overrides(horizon=float("inf")),
         "horizon must be finite and positive, got inf"),
        (lambda: builtin_problem("example1").with_overrides(horizon=True),
         "horizon must be finite and positive, got True"),
        (lambda: builtin_problem("example1").with_overrides(n=1.5),
         "n must be an integer >= 1, got 1.5"),
        (lambda: builtin_problem("example1").with_overrides(d=True),
         "d must be an integer >= 1, got True"),
    ],
    ids=["grid-horizon-inf", "grid-horizon-nan", "grid-steps-float", "grid-steps-bool",
         "spec-horizon-inf", "horizon=True", "n=1.5", "d=True"],
)
def test_grid_and_horizon_inputs_are_refused(make, message):
    with pytest.raises(ProblemError, match=f"^{message}$"):
        make()


def test_time_grid_takes_a_numpy_integer_step_count():
    assert TimeGrid(np.int64(4), 2.0) == TimeGrid(4, 2.0)


class TestNoiseBatch:
    def test_same_seed_bit_identical(self):
        grid = TimeGrid(32, 1.0)
        a = NoiseBatch.generate(16, grid, 2, 1234)
        b = NoiseBatch.generate(16, grid, 2, 1234)
        assert np.array_equal(a.increments, b.increments)

    def test_path_substreams_independent_of_batch_size(self):
        grid = TimeGrid(8, 1.0)
        small = NoiseBatch.generate(3, grid, 1, 7)
        large = NoiseBatch.generate(10, grid, 1, 7)
        assert np.array_equal(small.increments, large.increments[:3])

    def test_increment_moments(self):
        grid = TimeGrid(50, 1.0)
        batch = NoiseBatch.generate(2000, grid, 1, 42)
        flat = batch.increments.ravel()
        assert abs(flat.mean()) < 3 * math.sqrt(grid.dt / flat.size)
        assert flat.var() == pytest.approx(grid.dt, rel=0.05)


# Seeds of one to four 32-bit words: integers below 2**64 and (seed, n) tuples.
SEEDS = st.one_of(
    st.integers(0, 2**64 - 1),
    st.tuples(st.integers(0, 2**64 - 1), st.integers(0, 2**64 - 1)),
)


# Batches up to 300 paths cross the generator's 256-path scratch block, and
# up to 200 steps cross its 64-step copy tiles.
@settings(max_examples=25, deadline=None)
@given(
    sizes=st.lists(st.integers(1, 300), min_size=2, max_size=2, unique=True),
    num_steps=st.integers(1, 200),
    noise_dim=st.integers(1, 2),
    seed=SEEDS,
)
def test_path_noise_does_not_depend_on_batch_size_property(sizes, num_steps, noise_dim, seed):
    small, large = sorted(sizes)
    grid = TimeGrid(num_steps, 1.0)
    a = NoiseBatch.generate(small, grid, noise_dim, seed)
    b = NoiseBatch.generate(large, grid, noise_dim, seed)
    assert np.array_equal(a.increments, b.increments[:small])


# Windows of 1-70 steps that do not divide the grid, so the last window is
# short; batches up to 300 paths cross the 256-path scratch block.
@settings(max_examples=25, deadline=None)
@given(
    num_paths=st.integers(1, 300),
    window=st.integers(1, 70),
    num_steps=st.integers(1, 200),
    noise_dim=st.integers(1, 2),
    seed=SEEDS,
)
def test_noise_windows_equal_the_whole_grid_draw(num_paths, window, num_steps, noise_dim, seed):
    assume(num_steps % window != 0)
    grid = TimeGrid(num_steps, 1.0)
    whole = NoiseBatch.generate(num_paths, grid, noise_dim, seed).increments.swapaxes(0, 1)
    # noise_windows' draws, stepped here without its worker: every path's
    # generator built once and kept between windows
    normals = _path_normals(_spawned_seed_words(seed, num_paths))
    block = np.empty((min(num_paths, _NOISE_BLOCK_PATHS), window, noise_dim))
    for start in range(0, num_steps, window):
        out = np.empty((min(window, num_steps - start), num_paths, noise_dim))
        _draw(out, lambda first, stop: normals[first:stop], block, np.sqrt(grid.dt))
        assert np.array_equal(out, whole[start:start + window])
    # the draw itself: path i draws N(0, I_d) from the i-th spawned child
    last = np.random.SeedSequence(seed).spawn(num_paths)[-1]
    expected = np.sqrt(grid.dt) * np.random.default_rng(last).standard_normal((num_steps, noise_dim))
    assert np.array_equal(whole[:, -1], expected)


@pytest.mark.parametrize("path", ["producer", "thread"])
@pytest.mark.parametrize("num_steps", [1000, 32], ids=["four-windows", "one-short-window"])
def test_look_ahead_windows_equal_the_whole_grid_draw(num_steps, path, request,
                                                      no_unreaped_children):
    # 300 paths cross the 256-path scratch block; 1 000 steps are not a
    # multiple of the window, and 32 (chatter at n = 4) are less than one,
    # which is drawn here on either path
    request.getfixturevalue("one_thread" if path == "producer" else "noise_thread")
    grid = TimeGrid(num_steps, 1.0)
    whole = NoiseBatch.generate(300, grid, 2, 17).increments.swapaxes(0, 1)
    draws = noise_windows(300, grid, 2, 17, _NOISE_WINDOW_KNOTS)
    # the interpreter lock changes hands as often as it can, and a window's
    # buffer is reused two windows on, so each one is copied
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        firsts, windows = zip(*[(first, window.copy()) for first, window in draws])
    finally:
        sys.setswitchinterval(interval)
    assert firsts == tuple(range(0, num_steps, _NOISE_WINDOW_KNOTS))
    assert np.concatenate(windows).tobytes() == whole.tobytes()
    assert len(no_unreaped_children) == (path == "producer" and num_steps > _NOISE_WINDOW_KNOTS)


def _close_after_the_first_window():
    """Take the first of four windows, then close the draw while the worker
    fills the second or waits to fill the third into the first one's
    buffer.  The autouse no_leaked_fds fixture fails a pipe left open."""
    draws = noise_windows(300, TimeGrid(1000, 1.0), 2, 17, _NOISE_WINDOW_KNOTS)
    first, _ = next(draws)
    draws.close()
    assert first == 0


def test_closing_the_windows_early_kills_and_reaps_the_producer(monkeypatch, no_unreaped_children,
                                                               one_thread):
    statuses = {}
    waitpid = os.waitpid

    def recording_waitpid(pid, options):
        reaped_pid, status = waitpid(pid, options)
        statuses[reaped_pid] = status
        return reaped_pid, status

    monkeypatch.setattr(os, "waitpid", recording_waitpid)
    _close_after_the_first_window()
    [pid] = no_unreaped_children
    assert os.WIFSIGNALED(statuses[pid]) and os.WTERMSIG(statuses[pid]) == signal.SIGKILL
    assert reaped(pid)


def test_closing_the_windows_early_joins_the_thread(noise_thread, no_unreaped_children):
    threads = threading.active_count()
    _close_after_the_first_window()
    assert threading.active_count() == threads
    assert no_unreaped_children == []


def _draw_noise_windows():
    """Draw three noise windows through noise_windows and check them
    against the whole-grid draw."""
    grid = TimeGrid(600, 1.0)
    whole = NoiseBatch.generate(8, grid, 1, 5).increments.swapaxes(0, 1)
    draws = noise_windows(8, grid, 1, 5, 256)
    assert np.concatenate([window.copy() for _, window in draws]).tobytes() == whole.tobytes()


def test_no_fork_beside_a_live_thread(monkeypatch, one_thread):
    monkeypatch.setattr(os, "fork", refuse_fork)
    release = threading.Event()
    blocked = threading.Thread(target=release.wait, name="blocked")
    blocked.start()
    try:
        _draw_noise_windows()
    finally:
        release.set()
        blocked.join(timeout=10)
    assert not blocked.is_alive()


def test_no_fork_where_threads_cannot_be_counted(monkeypatch, one_thread):
    # outside Linux /proc/self/task does not exist
    listdir = os.listdir

    def without_proc(target):
        if str(target).startswith("/proc"):
            raise FileNotFoundError(2, "No such file or directory", target)
        return listdir(target)

    monkeypatch.setattr(os, "fork", refuse_fork)
    monkeypatch.setattr(os, "listdir", without_proc)
    _draw_noise_windows()


@pytest.mark.parametrize("failing", [1, 2])
def test_a_failed_pipe_leaves_no_descriptor_open(monkeypatch, no_unreaped_children, one_thread,
                                                  failing):
    # noise_windows makes two pipes to pace its worker.  The autouse
    # no_leaked_fds fixture fails a descriptor left open.
    pipe = os.pipe
    calls = []

    def flaky_pipe():
        calls.append(None)
        if len(calls) == failing:
            raise OSError(errno.EMFILE, "Too many open files")
        return pipe()

    monkeypatch.setattr(os, "pipe", flaky_pipe)
    with pytest.raises(OSError, match=r"^\[Errno 24\] Too many open files$"):
        _draw_noise_windows()
    assert len(calls) == failing
    assert no_unreaped_children == []


def test_a_failed_fork_leaves_the_draw_to_the_thread(monkeypatch, one_thread):
    # the autouse no_leaked_fds fixture fails a descriptor left open
    forks = []

    def no_process():
        forks.append(None)
        raise OSError(errno.EAGAIN, "Resource temporarily unavailable")

    draw = model._draw
    fillers = []

    def recording(window, *args):
        fillers.append(threading.current_thread())
        draw(window, *args)

    monkeypatch.setattr(os, "fork", no_process)
    monkeypatch.setattr(model, "_draw", recording)
    _draw_noise_windows()
    assert len(forks) == 1
    # the whole-grid draw here, then three windows on one other thread
    caller, *workers = fillers
    assert caller is threading.current_thread()
    assert len(workers) == 3 and workers[0] is workers[1] is workers[2] is not caller


def _fail_in_the_second_fill(monkeypatch, no_unreaped_children, fail):
    """Draw four noise windows with a draw that calls fail() in the forked
    worker's second window; return the OSError the draw raises, after
    checking that the worker was reaped."""
    draw = model._draw
    caller = os.getpid()
    fills = []

    def failing(window, *args):
        fills.append(window)
        if len(fills) == 2:
            assert os.getpid() != caller, "the second window was drawn in the calling process"
            fail()
        draw(window, *args)

    monkeypatch.setattr(model, "_draw", failing)
    with pytest.raises(OSError) as raised:
        for _ in noise_windows(300, TimeGrid(1000, 1.0), 2, 17, _NOISE_WINDOW_KNOTS):
            pass
    assert fills == []  # every fill ran in the worker
    [pid] = no_unreaped_children
    assert reaped(pid)
    return raised.value


def test_a_worker_killed_by_a_signal_raises_oserror_without_a_cause(
        monkeypatch, no_unreaped_children, one_thread):
    error = _fail_in_the_second_fill(monkeypatch, no_unreaped_children,
                                     lambda: os.kill(os.getpid(), signal.SIGKILL))
    assert str(error) == ("noise of steps 256 to 511 was not drawn: the process drawing it "
                          "ended with signal 9")


def test_a_long_worker_error_is_quoted_up_to_its_cause_bytes(
        monkeypatch, no_unreaped_children, one_thread):
    def fail():
        raise RuntimeError("x" * 10000)

    error = _fail_in_the_second_fill(monkeypatch, no_unreaped_children, fail)
    cause = ("RuntimeError: " + "x" * 10000)[:4096]
    assert str(error) == ("noise of steps 256 to 511 was not drawn: the process drawing it "
                          f"ended with exit status 1: {cause}")


# Seeds of one, two, three and six 32-bit words (padded to the pool of four,
# or longer than it), a numpy integer, an empty tuple, integers spelled as
# strings, and batches that cross 256 paths.
SEEDS = [0, 5, 7, 2**40 + 3, 2**64 - 1, np.int64(9), (7, 64), (2**33, 7), (2**64 - 1, 2**64 - 1),
         (1, 2, 3, 4, 5, 6), (), ("0x10", "5")]


@pytest.mark.parametrize("seed", SEEDS, ids=str)
@pytest.mark.parametrize("num_paths", [1, 257, 1000])
def test_spawned_seed_words_are_numpys_spawned_children(seed, num_paths):
    children = np.random.SeedSequence(seed).spawn(num_paths)
    words = _spawned_seed_words(seed, num_paths)
    assert words.dtype == np.uint64
    assert np.array_equal(words, [child.generate_state(4, np.uint64) for child in children])
    normals = NoiseBatch.generate(num_paths, TimeGrid(50, 1.0), 1, seed).increments[..., 0]
    expected = [np.random.default_rng(child).standard_normal(50) for child in children]
    assert np.array_equal(normals, np.sqrt(1.0 / 50) * np.array(expected))


@pytest.mark.parametrize("seed", SEEDS, ids=str)
def test_noise_stream_seeding_raises_no_warning(seed):
    """The seed words wrap around in uint32 array arithmetic, which numpy
    does silently; scalar arithmetic would warn of the overflow."""
    _spawned_seed_words(seed, 257)


def test_noise_stream_spawns_no_seed_sequence_children(monkeypatch):
    class Unspawnable(np.random.SeedSequence):
        def spawn(self, n_children):
            raise AssertionError("the noise seeding spawned SeedSequence children")

    monkeypatch.setattr(np.random, "SeedSequence", Unspawnable)
    NoiseBatch.generate(10_000, TimeGrid(4, 1.0), 1, 7)


def test_a_whole_grid_draw_holds_one_block_of_generators():
    # NoiseBatch.generate builds each block's generators for that block
    # alone; the generators of all 8 000 paths (about 6.7 MB) break the bound
    num_paths, num_steps = 8000, 50
    NoiseBatch.generate(1, TimeGrid(1, 1.0), 1, 7)  # the first draw's imports and caches
    with traced_peak() as traced:
        NoiseBatch.generate(num_paths, TimeGrid(num_steps, 1.0), 1, 7)
    assert traced.peak < num_paths * num_steps * 8 + 1e6


_BAD_COUNTS = [0, -3, 2.0, True]


@pytest.mark.parametrize(
    "windowed, num_paths",
    [(False, count) for count in _BAD_COUNTS] + [(True, count) for count in _BAD_COUNTS],
    ids=[repr(count) for count in _BAD_COUNTS] + [f"windows-{count!r}" for count in _BAD_COUNTS],
)
def test_noise_stream_refuses_a_path_count_below_one(monkeypatch, one_thread, windowed, num_paths):
    # both draws refuse the count before they allocate or fork
    monkeypatch.setattr(os, "fork", refuse_fork)
    with pytest.raises(ProblemError, match=rf"^num_paths must be an integer >= 1, got {num_paths!r}$"):
        if windowed:
            noise_windows(num_paths, TimeGrid(1000, 1.0), 1, 7, _NOISE_WINDOW_KNOTS)
        else:
            NoiseBatch.generate(num_paths, TimeGrid(4, 1.0), 1, 7)


def test_problem_rejects_empty_grid(example1):
    with pytest.raises(ProblemError, match="u1_grid"):
        example1.with_overrides(u1_grid=np.zeros((0, 1)))


def _nest(flat, shape):
    """flat as nested lists of the given shape (a bare leaf for shape ())."""
    if not shape:
        return flat[0]
    size = len(flat) // shape[0]
    return [_nest(flat[i * size:(i + 1) * size], shape[1:]) for i in range(shape[0])]


@st.composite
def number_nests(draw):
    """A rectangular nest of up to three levels of finite floats and
    integers, as its flat leaves and shape."""
    shape = draw(st.lists(st.integers(1, 3), max_size=3))
    leaf = st.one_of(st.integers(-(2**64), 2**64), st.floats(allow_nan=False, allow_infinity=False))
    size = math.prod(shape)
    return draw(st.lists(leaf, min_size=size, max_size=size)), shape


@given(number_nests())
def test_reals_reader_is_numpy_on_bool_free_nests(case):
    nest = _nest(*case)
    out, expected = read_reals(nest, "v"), np.asarray(nest, dtype=float)
    assert (out.dtype, out.shape, out.tobytes()) == (expected.dtype, expected.shape, expected.tobytes())


@given(number_nests(), st.data())
def test_reals_reader_refuses_a_bool_at_any_position(case, data):
    flat, shape = case
    flat[data.draw(st.integers(0, len(flat) - 1))] = data.draw(st.booleans())
    nest = _nest(flat, shape)
    with pytest.raises(ProblemError, match="^v must be numeric, got "):
        read_reals(nest, "v")
