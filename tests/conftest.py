"""Shared fixtures: built-in problems, grids, and two custom fixtures that
exercise state-dependent linearizations (the built-ins all have b_x = 0);
checks, for every test, that it leaves no thread running, no forked child
unreaped and no file descriptor open; noise_thread, which sends
noise_windows down its thread path; one_thread, which waits for the
process to run one thread, so that noise_windows forks its worker; and
traced_peak, the memory tests' tracemalloc context."""

import contextlib
import os
import signal
import threading
import time
import tracemalloc
import types

# One BLAS thread, as perfbench pins it, set before numpy is first imported
# (here): a BLAS worker pool is a second operating-system thread, beside
# which model.noise_windows draws on a thread instead of forking.
os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"})

import numpy as np
import pytest

from singopt import model
from singopt.model import ProblemSpec, TimeGrid, builtin_problem, problem_from_config

_FDS = "/proc/self/fd"


@pytest.fixture(autouse=True)
def no_leaked_fds():
    """Fail a test that leaves open a file descriptor that was not open
    before it (model.noise_windows paces its worker through two pipes, one
    of which also carries a failed fill's error; both are closed).
    Where /proc/self/fd cannot be read, nothing is checked."""
    try:
        before = set(os.listdir(_FDS))
    except OSError:
        before = None
    yield
    if before is None:
        return
    leaked = {}
    for fd in set(os.listdir(_FDS)) - before:
        try:
            leaked[fd] = os.readlink(f"{_FDS}/{fd}")
        except OSError:
            continue  # the directory's own descriptor, closed by now
    if leaked:
        pytest.fail(f"file descriptors left open: {leaked}")


@pytest.fixture
def noise_thread(monkeypatch):
    """Send model.noise_windows down its thread path, which it takes beside
    another operating-system thread, outside Linux or when the fork fails."""
    monkeypatch.setattr(model, "_single_threaded", lambda: False)


@pytest.fixture
def one_thread():
    """Wait up to 1 s for this process to run one operating-system thread,
    so that model.noise_windows forks its worker, and fail the test if it
    does not: a joined thread stays listed in /proc/self/task for a few
    milliseconds, so a test right after one that drew on a thread would
    otherwise see no fork by timing alone."""
    deadline = time.monotonic() + 1.0
    while not model._single_threaded() and time.monotonic() < deadline:
        time.sleep(0.001)
    assert model._single_threaded(), "a second operating-system thread is alive"


@pytest.fixture(autouse=True)
def no_leaked_threads():
    """Fail a test that leaves alive a thread that was not alive before it
    (model.noise_windows draws on a second thread when it does not fork,
    and joins it)."""
    before = set(threading.enumerate())
    yield
    leaked = [thread.name for thread in threading.enumerate() if thread not in before]
    if leaked:
        pytest.fail(f"threads left running: {leaked}")


@pytest.fixture(autouse=True)
def no_unreaped_children(monkeypatch):
    """Fail a test that leaves a child it forked with os.fork unreaped
    (model.noise_windows forks one noise worker and reaps it); such a
    child is killed and reaped here.  Yields the pids of the test's forks.
    subprocess does not go through os.fork, so its children are not seen."""
    forked = []
    fork = os.fork

    def recording_fork():
        pid = fork()
        if pid:
            forked.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    yield forked
    unreaped = []
    for pid in forked:
        try:
            if os.waitpid(pid, os.WNOHANG) == (0, 0):
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
        except ChildProcessError:
            continue  # reaped by the code under test
        unreaped.append(pid)
    if unreaped:
        pytest.fail(f"forked children left unreaped: {unreaped}")


def refuse_fork():
    """A stand-in for os.fork that fails the test that calls it."""
    pytest.fail("os.fork was called")


@contextlib.contextmanager
def traced_peak():
    """Trace the allocations of the block with tracemalloc, which is stopped
    whatever the block raises; the yielded record's `peak` is then the
    block's traced peak in bytes."""
    record = types.SimpleNamespace(peak=None)
    tracemalloc.start()
    try:
        yield record
        record.peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def reaped(pid):
    """Whether the child pid has been waited for (os.waitpid finds none)."""
    try:
        os.waitpid(pid, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


@pytest.fixture
def example1():
    return builtin_problem("example1")


@pytest.fixture
def example2_separated():
    return builtin_problem("example2_separated")


@pytest.fixture
def example2_stochastic():
    return builtin_problem("example2_stochastic")


@pytest.fixture
def singular_block():
    return builtin_problem("singular_block", kappa=1.0)


def linear_drift_config(sigma_state=0.0, sigma_const=0.0):
    """b = a + 0.5 x with quadratic costs; optional state-proportional noise.

    Unlike the built-ins this problem has b_x != 0, so the fundamental pair,
    the explicit adjoint transport and the duality identity are nontrivial.
    """
    return {
        "name": "linear_drift",
        "dims": {"n": 1, "d": 1, "k": 1, "m": 1},
        "horizon": 1.0,
        "x0": [0.5],
        "coefficients": {
            "drift": {"form": "affine", "state": [[0.5]], "control": [[1.0]]},
            "diffusion": {
                "form": "affine",
                "const": [[sigma_const]],
                "state": [[[sigma_state]]],
            },
            "singular_gain": {"form": "zero"},
            "running_cost": {"form": "quadratic", "state_quad": [[1.0]]},
            "terminal_cost": {"form": "quadratic", "state_quad": [[1.0]]},
            "singular_cost": {"form": "zero"},
        },
        "u1_grid": [[-1.0], [0.0], [1.0]],
        "assumptions_box": {"low": [-2.0], "high": [2.0]},
    }


def state_noise_config(A=-0.5, B=1.0, C=0.4, D=0.6):
    """dx = (A x + B a) dt + (C x + D a) dW, h = g = x^2, U1 = {-1, 0, 1}.

    With C != 0 the fundamental solution is a stochastic exponential, not a
    function of the state; oracles.state_noise_adjoint gives its adjoint.
    """
    cfg = linear_drift_config()
    cfg["name"] = "state_noise"
    cfg["coefficients"]["drift"] = {"form": "affine", "state": [[A]], "control": [[B]]}
    cfg["coefficients"]["diffusion"] = {"form": "affine", "state": [[[C]]], "control": [[[D]]]}
    return cfg


def planar_config():
    """Planar state with correlated two-channel noise, nonzero b_x and
    sigma_x, a matrix singular gain and a two-dimensional U1 grid."""
    return {
        "name": "planar",
        "dims": {"n": 2, "d": 2, "k": 2, "m": 2},
        "horizon": 1.0,
        "x0": [0.5, -0.25],
        "coefficients": {
            "drift": {"form": "affine", "const": [0.1, 0.0],
                      "state": [[-0.3, 0.2], [0.0, -0.1]],
                      "control": [[1.0, 0.0], [0.0, 1.0]]},
            "diffusion": {"form": "affine",
                          "const": [[0.15, 0.0], [0.05, 0.2]],
                          "state": [[[0.1, 0.0], [0.0, 0.05]],
                                    [[0.0, 0.02], [0.03, 0.0]]]},
            "singular_gain": {"form": "constant", "value": [[1.0, 0.0], [0.5, 1.0]]},
            "running_cost": {"form": "quadratic", "state_quad": [[1.0, 0.1], [0.1, 0.5]],
                             "state_lin": [0.1, 0.0]},
            "terminal_cost": {"form": "quadratic", "state_quad": [[0.5, 0.0], [0.0, 0.5]]},
            "singular_cost": {"form": "constant", "value": [0.2, 0.3]},
        },
        "u1_grid": [[a, b] for a in (-1.0, 0.0, 1.0) for b in (-1.0, 0.0, 1.0)],
        "assumptions_box": {"low": [-2.0, -2.0], "high": [2.0, 2.0]},
    }


@pytest.fixture
def linear_drift_det():
    return problem_from_config(linear_drift_config())


@pytest.fixture
def linear_drift_stoch():
    return problem_from_config(linear_drift_config(sigma_state=0.3, sigma_const=0.1))


def tanh_drift_problem():
    """Custom-callable problem with a genuinely nonlinear drift, b = a + tanh(x).

    Used for the finite-difference consistency trend: on affine problems the
    variational remainder vanishes identically, so this fixture supplies the
    nonvanishing second-order term.
    """

    def b(t, x, a):
        return np.tanh(x) + np.asarray(a, dtype=float)

    def b_x(t, x, a):
        return (1.0 - np.tanh(x) ** 2)[..., None]

    def sigma(t, x, a):
        return np.ones(np.shape(x)[:-1] + (1, 1))

    def sigma_x(t, x, a):
        return np.zeros(np.shape(x)[:-1] + (1, 1, 1))

    def h(t, x, a):
        return (x ** 2).sum(axis=-1)

    def h_x(t, x, a):
        return 2.0 * x

    def g(x):
        return np.zeros(np.shape(x)[:-1])

    def g_x(x):
        return np.zeros_like(x)

    return ProblemSpec(
        name="tanh_drift", n=1, d=1, k=1, m=1, horizon=1.0, x0=[0.0],
        b=b, sigma=sigma, G=lambda t: np.zeros((1, 1)),
        h=h, g=g, k_cost=lambda t: np.zeros(1),
        b_x=b_x, sigma_x=sigma_x, h_x=h_x, g_x=g_x,
        u1_grid=[[-1.0], [1.0]],
        assumptions_box=([-2.0], [2.0]),
    )


@pytest.fixture
def tanh_drift():
    return tanh_drift_problem()


@pytest.fixture
def grid64():
    return TimeGrid(64, 1.0)


@pytest.fixture
def grid100():
    return TimeGrid(100, 1.0)
