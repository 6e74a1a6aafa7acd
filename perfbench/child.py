"""One benchmark launch: a fresh interpreter that runs one singopt CLI command.

    python3 child.py SRC T_SPAWN REPORT MODE -- <singopt CLI arguments>

SRC is the checkout's ``src`` directory, T_SPAWN the parent's
``time.monotonic()`` just before it started this process, REPORT the JSON
file this process writes when it ends, and MODE one of

* ``plain``  -- run the command with only two timestamps taken: at the start
  of the command (``cli.COMMANDS[...]`` is entered) and after the manifest
  is written (``OutputDir.finish`` returns);
* ``traced`` -- as ``plain``, and also record a span around every call into
  a public function of the layer modules (see ``install_tracer``);
* ``probe``  -- stop at the start of the command; only set-up is timed,
  and then the fixed ``calibrate`` kernel, which gauges the host's speed.

``time.monotonic()`` reads CLOCK_MONOTONIC, which on Linux is one clock for
all processes, so ``T_SPAWN`` and the child's timestamps can be subtracted.
The process exits with the CLI's exit code (0 for a probe).
"""

from __future__ import annotations

import ctypes
import functools
import inspect
import json
import os
import sys
import time
from pathlib import Path

# Modules that get spans.  ``coefficients`` only runs inside the other
# modules' callables, so it gets none.
LAYERS = ("model", "controls", "sde", "adjoint", "optimality", "io", "cli")


class Tracer:
    """In-memory spans: [name, start, end, parent index, fact].

    ``fact`` is a number derived from a call's arguments or result (bytes,
    path steps) by the ``facts`` hook registered for that span name.
    """

    def __init__(self, facts):
        self.spans = []
        self._stack = []
        self._facts = facts

    def wrap(self, name, fn):
        measure = self._facts.get(name)
        signature = inspect.signature(fn) if measure is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, None, None, self._stack[-1] if self._stack else -1, None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if measure is not None:
                span[4] = measure(signature.bind(*args, **kwargs).arguments, result)
            return result

        return traced


def _file_bytes(arguments, _result):
    return os.path.getsize(arguments["path"])


def _path_steps(_arguments, result):
    paths, knots, _ = result.states.shape
    return paths * (knots - 1)


# Byte figures of in-memory arrays are computed from their shapes (nbytes);
# file byte figures are measured with stat() after the write.
FACTS = {
    "model.NoiseBatch.generate": lambda _a, r: r.increments.nbytes,
    "sde.simulate_strict": _path_steps,
    "sde.simulate_relaxed": _path_steps,
    "sde.fundamental_solutions": lambda _a, r: r.Phi.nbytes + r.Psi.nbytes,
    "io.ensemble_to_csv": _file_bytes,
    "io.ensemble_to_binary": _file_bytes,
}


def install_tracer(package, modules) -> Tracer:
    """Wrap every public module-level function of ``modules`` (and
    ``NoiseBatch.generate``) and rebind every name that refers to an original,
    in every loaded ``package`` module, to its wrapper.  This covers names
    one module imports from another (``adjoint.relaxed_hamiltonian_batch``,
    ``sde.chattering``, ...); imports made inside a function body, such as
    ``verify_necessary``'s ``from .adjoint import variational_inequality_value``,
    read the patched module attribute at call time.  Private helpers
    (leading underscore) are left alone.
    """
    tracer = Tracer(FACTS)
    wrappers = {}
    for short, module in modules.items():
        for attr, obj in vars(module).items():
            if attr.startswith("_") or not inspect.isfunction(obj):
                continue
            if obj.__module__ == module.__name__:
                wrappers[id(obj)] = tracer.wrap(f"{short}.{attr}", obj)
    loaded = [m for name, m in sys.modules.items()
              if name == package or name.startswith(package + ".")]
    for module in loaded:
        for attr, obj in list(vars(module).items()):
            if id(obj) in wrappers:
                setattr(module, attr, wrappers[id(obj)])
    cli = modules["cli"]
    for command, fn in list(cli.COMMANDS.items()):
        cli.COMMANDS[command] = wrappers[id(fn)]
    noise = modules["model"].NoiseBatch
    noise.generate = classmethod(
        tracer.wrap("model.NoiseBatch.generate", noise.generate.__func__)
    )
    return tracer


class _ProbeDone(Exception):
    """Raised at the start of the command in probe mode."""


def _blas_name(np) -> str:
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        return "unknown"


def _blas_threads():
    """Thread count reported by the OpenBLAS that this process has loaded,
    or None when no OpenBLAS library is mapped."""
    try:
        with open("/proc/self/maps") as maps:
            libs = {line.split()[-1] for line in maps if "openblas" in line}
    except OSError:
        return None
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(handle, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return getter()
    return None


def calibrate(np, repeats=10) -> list:
    """Seconds of each repeat of a fixed kernel that does not touch singopt:
    numpy passes over 4 000-element columns in a Python loop, float
    formatting and a 32 MB reduction, the kinds of work the workloads do."""
    big = np.ones((1000, 4000))
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        x = np.linspace(-1.0, 1.0, 4000)
        for _ in range(1000):
            x = x + 0.001 * np.sqrt(x * x + 1.0)
        ",".join(repr(float(v)) for v in x)
        big.sum()
        times.append(time.perf_counter() - start)
    return times


def main(argv) -> int:
    src, t_spawn, report_path, mode = argv[1], float(argv[2]), Path(argv[3]), argv[4]
    if argv[5] != "--" or mode not in ("plain", "traced", "probe"):
        raise SystemExit(f"usage: {__doc__.splitlines()[2].strip()}")
    cli_argv = argv[6:]
    sys.path.insert(0, src)
    import numpy as np
    from singopt import cli

    if not Path(cli.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise SystemExit(f"imported singopt from {cli.__file__}, not from {src}")
    modules = {name: sys.modules[f"singopt.{name}"] for name in LAYERS}
    tracer = install_tracer("singopt", modules) if mode == "traced" else None

    marks = {}
    command = cli_argv[0]
    run_command = cli.COMMANDS[command]

    def timed_command(cfg, out):
        marks["start"] = time.monotonic()
        if mode == "probe":
            raise _ProbeDone
        return run_command(cfg, out)

    cli.COMMANDS[command] = timed_command
    finish = cli.OutputDir.finish

    def timed_finish(self, config):
        finish(self, config)
        marks["end"] = time.monotonic()

    cli.OutputDir.finish = timed_finish

    try:
        code = cli.main(cli_argv)
    except _ProbeDone:
        code = 0
    report = {
        "exit": code,
        "ref_s": calibrate(np) if mode == "probe" else None,
        "setup_s": marks["start"] - t_spawn if "start" in marks else None,
        "wall_s": marks["end"] - marks["start"] if "end" in marks else None,
        "env": {
            "numpy": np.__version__,
            "blas": _blas_name(np),
            "blas_threads": _blas_threads(),
        },
    }
    if tracer is not None:
        report["spans"] = tracer.spans
    report_path.write_text(json.dumps(report))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv))
