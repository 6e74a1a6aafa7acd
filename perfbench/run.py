"""singopt benchmark: three CLI workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The program under test is ``src/singopt`` of the checkout that holds this
directory; the benchmark exits with code 2, printing no result, when it is
missing.  Every sample is one real ``singopt`` command run in a fresh child
interpreter (``child.py``).  Samples run one after another from this
process, so there is one client and no queue.  The child pins BLAS to one
thread, which makes each sample the plain single-threaded baseline.  Inputs
are the run configs and problem file under ``workloads/``, copied into the
sample's own directory; the seed is ``--seed`` and reaches the CLI as its
``--seed``.  Every sample of a run uses the same seed, so the same inputs.

Workloads (why each is here):

* ``certify_scalar`` -- ``certify`` on ``example2_stochastic``, candidate
  ``relaxed_pm1``, M = 10 000, N = 100, degree 2: the paper's question, "is
  this candidate optimal?".  Mostly the Hamiltonian minimality scan
  (``optimality``), noise (``model``) and the backward regression sweep
  (``adjoint``).  Expected: exit 1 and not certified, because
  ``hamiltonian-minimality`` fails; the nonnegativity, flat-off and
  convexity evidence pass.  The first-order value toward the pointwise argmin
  is a Monte Carlo verdict that fails on some seeds (2 of seeds 0-15); it is
  printed as ``vi_argmin``, not checked.
* ``adjoint_planar`` -- ``adjoint`` on the n = 2, d = 2 planar problem with
  a constant two-atom relaxed candidate, M = 4 000, N = 100, degree 2.  The
  only workload with nonzero ``b_x`` and ``sigma_x`` (a nontrivial
  fundamental pair) and the only one writing large files: ``io`` CSV export,
  ``sde.fundamental_solutions`` and both adjoint routes.  Expected: exit 0.
* ``chatter_refined`` -- ``chatter`` on ``example2_stochastic``,
  ``relaxed_pm1``, M = 4 000, n in {4, 64}: 8 192 refined steps, so ``sde``
  runs many narrow steps instead of 100 wide ones.  Expected: exit 0 and a
  noise-free ``traj_gap`` of (T/2n)^2 at n = 64.

``--trace 0`` repeats the command until ``--seconds`` have passed (at least
``MIN_SAMPLES`` times), with a probe before the first run and after every
run, and more at the end up to ``MIN_PROBES``.  A probe is a child that stops
at the start of the command and then times a fixed calibration kernel.  The
run reports:

* ``setup_s`` -- fresh interpreter start to the start of the command
  (imports, reading and resolving the config), median over the probes;
* ``wall_s`` -- start of the command (before the noise draw) to the
  manifest written, median over the command runs;
* ``peak_rss_mb`` -- the child's ``ru_maxrss``, median over the command runs.

Both times are scaled to a nominal host speed (see ``REF_NOMINAL_S``); the
raw medians are printed next to them.

``--trace 1`` alternates an untraced and a traced command until
``--seconds`` have passed and reports the per-layer metrics of
``LAYER_METRICS`` (medians over the traced runs, raw seconds) and
``trace.overhead_s``, the traced minus the untraced median raw ``wall_s``.
A layer a workload does not run reads 0.

Every launch is checked: its exit code, the sizes and SHA-256 digests that
``manifest.json`` lists against the files, the same digests as every other
launch of the run (traced or not), and the workload's own outputs.  A failed
check counts as a failed launch and never stops the run.  ``error_rate``,
``vi_argmin``, ``csv_bad_cells`` and ``route_rms`` are printed with the other
metrics; they are not in the result object because they are 0 or absent on
some workloads.

The last line of stdout is the result object; the line before records the
environment.  The full record of the run, with the spans of the last traced
launch, is written to ``_work/<workload>-seed<N>-trace<T>.json`` here.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"
INPUTS = HERE / "workloads"
WORK = HERE / "_work"

MIN_SAMPLES = 3
MIN_PROBES = 12
# The host's speed drifts by tens of percent within seconds to minutes
# (other tenants of the machine), and raw medians of runs minutes apart differ
# as much.  Each probe also times a fixed kernel (child.calibrate) that does
# not depend on singopt, and each time is scaled to a host on which that
# kernel takes REF_NOMINAL_S: raw * REF_NOMINAL_S / kernel measured next to
# it.  A change to singopt moves the raw times and leaves the kernel alone.
REF_NOMINAL_S = 0.02
SPEED_WINDOW = 2
RUN_LIMIT_S = 170.0  # a launch still running this long after the run began is killed
PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# Accuracy guard on adjoint_planar: RMS distance between the explicit and the
# backward-sweep adjoint p, 0.0092 to 0.0105 over seeds 0-15 at the
# workload's size.  The limit fails a change that doubles it.
ROUTE_RMS_LIMIT = 0.02


class CheckFailed(Exception):
    """An output of a launch is not what the workload expects."""


@dataclass(frozen=True)
class Workload:
    command: str
    config: str
    exit_code: int
    files: tuple
    inputs: tuple = ()


WORKLOADS = {
    "certify_scalar": Workload("certify", "certify_scalar.json", 1, ("certificate.json",)),
    "adjoint_planar": Workload(
        "adjoint", "adjoint_planar.json", 0,
        ("adjoint_P.bin", "adjoint_diagnostics.json", "adjoint_p.bin", "adjoint_p.csv"),
        inputs=("planar_problem.json",),
    ),
    "chatter_refined": Workload("chatter", "chatter_refined.json", 0, ("chatter.csv", "chatter.json")),
}

# Span groups, named by the module that defines the functions.
NOISE = ("model.NoiseBatch.generate",)
LOAD = ("model.builtin_problem", "model.problem_from_json", "model.problem_from_config")
SIMULATE = ("sde.simulate_strict", "sde.simulate_relaxed", "sde.simulate_variational")
HAMILTONIAN = (
    "optimality.strict_hamiltonian_batch", "optimality.relaxed_hamiltonian_batch",
    "optimality.hamiltonian_strict", "optimality.hamiltonian_relaxed",
    "optimality.minimize_hamiltonian",
)

# (metric, unit, kind, spans).  Kinds: "busy" sums the durations of the
# outermost spans of the group, "self" sums span durations minus their
# direct children, "calls" counts spans, "fact" sums the per-span figure
# child.py records (bytes computed from array shapes, file bytes from stat,
# path steps).
LAYER_METRICS = (
    ("model.noise_s", "s", "busy", NOISE),
    ("model.noise_calls", "count", "calls", NOISE),
    ("model.noise_bytes", "B", "fact", NOISE),
    ("model.load_s", "s", "busy", LOAD),
    ("controls.chattering_s", "s", "busy", ("controls.chattering",)),
    ("controls.regrid_s", "s", "busy", ("controls.regrid_relaxed",)),
    ("sde.simulate_s", "s", "busy", SIMULATE),
    ("sde.path_steps", "count", "fact", SIMULATE),
    ("sde.fundamental_s", "s", "busy", ("sde.fundamental_solutions",)),
    ("sde.fundamental_bytes", "B", "fact", ("sde.fundamental_solutions",)),
    ("sde.cost_s", "s", "busy", ("sde.per_path_cost", "sde.estimate_cost")),
    ("sde.chatter_self_s", "s", "self", ("sde.chattering_gap",)),
    ("adjoint.bsde_s", "s", "busy", ("adjoint.adjoint_bsde",)),
    ("adjoint.explicit_s", "s", "busy", ("adjoint.adjoint_explicit",)),
    ("adjoint.fit_s", "s", "busy", ("adjoint.fit_conditional",)),
    ("adjoint.fit_calls", "count", "calls", ("adjoint.fit_conditional",)),
    ("adjoint.features_s", "s", "busy", ("adjoint.polynomial_features",)),
    ("optimality.certify_self_s", "s", "self", ("optimality.certify_sufficient",)),
    ("optimality.verify_s", "s", "busy", ("optimality.verify_necessary",)),
    ("optimality.hamiltonian_s", "s", "busy", HAMILTONIAN),
    ("optimality.hamiltonian_calls", "count", "calls", HAMILTONIAN),
    ("optimality.vi_s", "s", "busy", ("adjoint.variational_inequality_value",)),
    ("io.csv_s", "s", "busy", ("io.ensemble_to_csv",)),
    ("io.csv_bytes", "B", "fact", ("io.ensemble_to_csv",)),
    ("io.binary_s", "s", "busy", ("io.ensemble_to_binary",)),
    ("io.binary_bytes", "B", "fact", ("io.ensemble_to_binary",)),
    ("io.json_s", "s", "busy", ("io.write_json",)),
    ("io.digest_s", "s", "busy", ("io.file_digest",)),
    ("cli.self_s", "s", "self", ("cli.main",)),
)
BYTE_FIGURES = {
    "computed from array shapes": ["model.noise_bytes", "sde.fundamental_bytes"],
    "measured as file sizes": ["io.csv_bytes", "io.binary_bytes"],
}


def layer_metrics(spans) -> dict:
    """Per-layer metrics of one traced launch from its spans
    ``[name, start, end, parent index, fact]``."""
    duration = [end - start for _, start, end, _, _ in spans]
    child_time = [0.0] * len(spans)
    for i, span in enumerate(spans):
        if span[3] >= 0:
            child_time[span[3]] += duration[i]

    def outermost(i, group):
        parent = spans[i][3]
        while parent >= 0:
            if spans[parent][0] in group:
                return False
            parent = spans[parent][3]
        return True

    out = {}
    for name, _, kind, group in LAYER_METRICS:
        members = [i for i, span in enumerate(spans) if span[0] in group]
        if kind == "busy":
            out[name] = sum((duration[i] for i in members if outermost(i, group)), 0.0)
        elif kind == "self":
            out[name] = sum((duration[i] - child_time[i] for i in members), 0.0)
        elif kind == "calls":
            out[name] = len(members)
        else:
            out[name] = sum(spans[i][4] for i in members)
    return out


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def check_manifest(out: Path, expected_files) -> dict:
    """Compare the manifest's sizes and SHA-256 digests with the files."""
    try:
        files = json.loads((out / "manifest.json").read_text())["files"]
    except (OSError, ValueError, KeyError) as exc:
        raise CheckFailed(f"unreadable manifest: {exc!r}")
    if sorted(files) != sorted(expected_files):
        raise CheckFailed(f"manifest lists {sorted(files)}, expected {sorted(expected_files)}")
    for name, entry in files.items():
        path = out / name
        if not path.is_file():
            raise CheckFailed(f"manifest lists missing file {name}")
        if path.stat().st_size != entry["bytes"]:
            raise CheckFailed(f"{name}: {path.stat().st_size} bytes, manifest says {entry['bytes']}")
        if _sha256(path) != entry["sha256"]:
            raise CheckFailed(f"{name}: SHA-256 differs from the manifest")
    return {name: entry["sha256"] for name, entry in files.items()}


def count_bad_cells(path: Path) -> int:
    """Number of data cells of a CSV file that do not parse as a float."""
    bad = 0
    with path.open() as f:
        next(f)
        for line in f:
            for cell in line.rstrip("\n").split(","):
                try:
                    float(cell)
                except ValueError:
                    bad += 1
    return bad


VI_ARGMIN = "variational-inequality[pointwise-argmin]"


def check_certify(out: Path, record: dict, _cache: dict) -> None:
    cert = json.loads((out / "certificate.json").read_text())["certificate"]
    conditions = {c["id"]: c for c in cert["conditions"]["conditions"]}
    vi = conditions.pop(VI_ARGMIN)
    record["vi_argmin"] = {k: vi[k] for k in ("passed", "statistic", "threshold")}
    failed = [name for name, c in conditions.items() if not c["passed"]]
    failed += [f"convexity {c['subject']}" for c in cert["convexity"] if not c["passed"]]
    if failed != ["hamiltonian-minimality"] or cert["certified"]:
        raise CheckFailed(f"failing conditions {failed}, expected only hamiltonian-minimality")


def check_adjoint(out: Path, record: dict, cache: dict) -> None:
    csv_digest = record["digests"]["adjoint_p.csv"]
    if csv_digest not in cache:
        cache[csv_digest] = count_bad_cells(out / "adjoint_p.csv")
    record["csv_bad_cells"] = cache[csv_digest]
    rms = json.loads((out / "adjoint_diagnostics.json").read_text())["method_agreement_rms"]
    record["route_rms"] = rms
    if not (isinstance(rms, float) and math.isfinite(rms) and rms <= ROUTE_RMS_LIMIT):
        raise CheckFailed(f"route_rms {rms!r} is not a finite number <= {ROUTE_RMS_LIMIT}")


CHATTER_HORIZON = 1.0  # example2_stochastic


def check_chatter(out: Path, record: dict, _cache: dict) -> None:
    rows = {row["n"]: row for row in json.loads((out / "chatter.json").read_text())["rows"]}
    if sorted(rows) != [4, 64] or rows[64]["refined_steps"] != 8192:
        raise CheckFailed(f"chatter rows {sorted(rows)}, expected n = 4 and 64 (8192 steps)")
    # constant diffusion: the strict and relaxed paths share the noise term,
    # so the gap is the deterministic drift difference (T / 2n)^2
    exact = (CHATTER_HORIZON / (2 * 64)) ** 2
    gap = rows[64]["traj_gap"]
    if not abs(gap - exact) <= 1e-12 * exact:
        raise CheckFailed(f"traj_gap at n = 64 is {gap!r}, expected {exact!r}")


CHECKS = {"certify_scalar": check_certify, "adjoint_planar": check_adjoint,
          "chatter_refined": check_chatter}


# ---------------------------------------------------------------------------
# launches
# ---------------------------------------------------------------------------

def _wait(proc: subprocess.Popen, timeout: float):
    """Reap the child with wait4, for its own rusage; kill it after timeout.
    Returns (exit code, ru_maxrss in KiB, timed out)."""
    deadline = time.monotonic() + timeout
    timed_out = False
    try:
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                proc.kill()
                timed_out = True
                pid, status, usage = os.wait4(proc.pid, 0)
                break
            time.sleep(0.01)
    except BaseException:
        # interrupted (SIGINT, or SIGTERM via the handler in main): end the
        # child before leaving, so no launch outlives the benchmark
        proc.kill()
        os.wait4(proc.pid, 0)
        raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss, timed_out


class Run:
    """The launches of one benchmark run of one workload and seed."""

    def __init__(self, name: str, seed: int, scratch: Path):
        self.name = name
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.scratch = scratch
        self.records = []
        self.reference = None  # manifest digests of the first good launch
        self._cells = {}  # csv digest -> bad cell count
        self.deadline = time.monotonic() + RUN_LIMIT_S

    def launch(self, mode: str) -> dict:
        """Start one child, wait for it, check its outputs, delete them."""
        w = self.workload
        sample = Path(tempfile.mkdtemp(prefix=f"{mode}-", dir=self.scratch))
        for name in (w.config, *w.inputs):
            shutil.copyfile(INPUTS / name, sample / name)
        report = sample / "report.json"
        record = {"mode": mode, "ok": False}
        try:
            with open(sample / "stdout.txt", "wb") as out, open(sample / "stderr.txt", "wb") as err:
                argv = [sys.executable, str(CHILD), str(SRC), repr(time.monotonic()), str(report),
                        mode, "--", w.command, "--config", w.config, "--out", "out",
                        "--seed", str(self.seed)]
                proc = subprocess.Popen(argv, cwd=sample, stdout=out, stderr=err,
                                        env={**os.environ, **PINNED_THREADS})
                code, rss_kib, timed_out = _wait(proc, self.deadline - time.monotonic())
            record.update(exit=code, peak_rss_mb=rss_kib / 1024.0)
            self._check(sample, record, timed_out)
            record["ok"] = True
        except CheckFailed as exc:
            record["error"] = str(exc)
            tail = (sample / "stderr.txt").read_text(errors="replace")[-2000:]
            print(f"[{self.name} {mode}] check failed: {exc}\n{tail}", file=sys.stderr)
        finally:
            shutil.rmtree(sample, ignore_errors=True)
        self.records.append(record)
        return record

    def _check(self, sample: Path, record: dict, timed_out: bool) -> None:
        if timed_out:
            raise CheckFailed(f"killed {RUN_LIMIT_S} s after the run began")
        mode = record["mode"]
        expected = 0 if mode == "probe" else self.workload.exit_code
        if record["exit"] != expected:
            raise CheckFailed(f"exit code {record['exit']}, expected {expected}")
        try:
            report = json.loads((sample / "report.json").read_text())
        except (OSError, ValueError):
            raise CheckFailed("the child wrote no report (it crashed)")
        record["setup_s"] = report["setup_s"]
        record["env"] = report["env"]
        if mode == "probe":
            record["ref_s"] = report["ref_s"]
            return
        record["wall_s"] = report["wall_s"]
        if mode == "traced":
            record["spans"] = report["spans"]
            record["layers"] = layer_metrics(report["spans"])
        out = sample / "out"
        record["digests"] = check_manifest(out, self.workload.files)
        if self.reference is None:
            self.reference = record["digests"]
        elif record["digests"] != self.reference:
            raise CheckFailed("artefacts differ from the run's first launch with the same seed")
        try:
            CHECKS[self.name](out, record, self._cells)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            raise CheckFailed(f"unreadable output: {exc!r}")

    def good(self, mode: str) -> list:
        return [r for r in self.records if r["ok"] and r["mode"] == mode]


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def environment(run: Run) -> dict:
    child = next((r["env"] for r in run.records if "env" in r), {})
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": child.get("numpy"),
        "blas": child.get("blas"),
        "blas_threads": child.get("blas_threads"),
        "pinned_env": PINNED_THREADS,
        "byte_figures": BYTE_FIGURES,
    }


def _median(records, key):
    return statistics.median(r[key] for r in records)


def _host_speed(run: Run) -> list:
    """Per launch, the median kernel time of the probes around it: the
    launch itself if it is a probe and up to ``SPEED_WINDOW`` probes on each
    side.  Pooling neighbours damps the kernel's own noise; staying local
    follows drifts of the host within the run."""
    probes = [i for i, r in enumerate(run.records) if r["ok"] and r["mode"] == "probe"]
    speed = []
    for i in range(len(run.records)):
        before = [j for j in probes if j < i][-SPEED_WINDOW:]
        after = [j for j in probes if j > i][:SPEED_WINDOW]
        near = before + ([i] if i in probes else []) + after
        speed.append(statistics.median(t for j in near for t in run.records[j]["ref_s"]))
    return speed


def end_to_end(run: Run, lines: list) -> dict:
    """Median set-up time over the probes, median wall time and peak RSS over
    the command runs; times scaled by the host speed around each launch."""
    speed = _host_speed(run)
    setups, walls, scaled_setups, scaled_walls = [], [], [], []
    for r, kernel in zip(run.records, speed):
        if r["ok"] and r["mode"] == "probe":
            setups.append(r["setup_s"])
            scaled_setups.append(r["setup_s"] * REF_NOMINAL_S / kernel)
        elif r["ok"]:
            walls.append(r["wall_s"])
            scaled_walls.append(r["wall_s"] * REF_NOMINAL_S / kernel)
    runs = run.good("plain")
    metrics = {
        "setup_s": {"value": statistics.median(scaled_setups), "unit": "s"},
        "wall_s": {"value": statistics.median(scaled_walls), "unit": "s"},
        "peak_rss_mb": {"value": _median(runs, "peak_rss_mb"), "unit": "MiB"},
    }
    lines += [
        f"  host speed     calibration kernel {min(speed):.5f} to {max(speed):.5f} s"
        f" over the run; times are scaled to a {REF_NOMINAL_S} s kernel",
        f"  setup_s        {metrics['setup_s']['value']:.4f} s    median of {len(setups)} probes"
        f" (raw {statistics.median(setups):.4f} s)",
        f"  wall_s         {metrics['wall_s']['value']:.4f} s    median of {len(walls)} command runs"
        f" (raw {statistics.median(walls):.4f} s, min {min(walls):.4f}, max {max(walls):.4f})",
        f"  peak_rss_mb    {metrics['peak_rss_mb']['value']:.1f} MiB  median of {len(runs)} command runs",
    ]
    return metrics


def per_layer(run: Run, lines: list) -> dict:
    traced = run.good("traced")
    metrics = {}
    for name, unit, _, _ in LAYER_METRICS:
        values = [r["layers"][name] for r in traced]
        metrics[name] = {"value": statistics.median(values), "unit": unit}
    overhead = _median(traced, "wall_s") - _median(run.good("plain"), "wall_s")
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    lines.append(f"  per-layer metrics: medians of {len(traced)} traced command runs")
    for name, entry in metrics.items():
        lines.append(f"  {name:30s} {entry['value']:.6g} {entry['unit']}")
    return metrics


def extra_lines(run: Run) -> list:
    failed = sum(not r["ok"] for r in run.records)
    lines = [f"  error_rate     {failed / len(run.records):.4g} (1)  "
             f"{failed} of {len(run.records)} launches failed"]
    vi = [r["vi_argmin"] for r in run.records if "vi_argmin" in r]
    if vi:
        lines.append(f"  vi_argmin      {vi[-1]['statistic']!r} (1)  bound {vi[-1]['threshold']!r}, "
                     f"{'pass' if vi[-1]['passed'] else 'FAIL'} on this seed")
    runs = [r for r in run.records if "csv_bad_cells" in r]
    if runs:
        lines.append(f"  csv_bad_cells  {runs[-1]['csv_bad_cells']} count  per command run")
        lines.append(f"  route_rms      {runs[-1]['route_rms']!r} (1)  limit {ROUTE_RMS_LIMIT}")
    else:
        lines.append("  csv_bad_cells  not produced by this workload")
        lines.append("  route_rms      not produced by this workload")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (SRC / "singopt" / "cli.py").is_file():
        print(f"no singopt package at {SRC / 'singopt'}; run from a full checkout",
              file=sys.stderr)
        return 2

    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    WORK.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    run = Run(args.workload, args.seed, scratch)
    start = time.monotonic()
    try:
        if args.trace:
            while not run.records or time.monotonic() - start < args.seconds:
                run.launch("plain")
                run.launch("traced")
        else:
            # a probe before the first command run and after each one, so
            # that every run has the host's speed measured on both sides
            run.launch("probe")
            while len(run.records) < 1 + 2 * MIN_SAMPLES or time.monotonic() - start < args.seconds:
                run.launch("plain")
                run.launch("probe")
            while sum(r["mode"] == "probe" for r in run.records) < MIN_PROBES:
                run.launch("probe")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    elapsed = time.monotonic() - start

    lines = [f"{args.workload} seed={args.seed} trace={args.trace}: "
             f"{len(run.records)} launches in {elapsed:.1f} s"]
    try:
        metrics = per_layer(run, lines) if args.trace else end_to_end(run, lines)
    except statistics.StatisticsError:
        print("\n".join(lines + extra_lines(run)))
        print("no launch succeeded; no result", file=sys.stderr)
        return 1
    lines += extra_lines(run)
    env = environment(run)
    failed = sum(not r["ok"] for r in run.records)
    result = {"correct": failed == 0, "attempted": len(run.records), "failed": failed,
              "metrics": metrics}
    record = {"environment": env, "result": result, "elapsed_s": elapsed,
              "launches": [{k: v for k, v in r.items() if k != "spans"} for r in run.records],
              "last_traced_spans": next((r["spans"] for r in reversed(run.records)
                                         if "spans" in r), None)}
    (WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record))
    print("\n".join(lines))
    print("environment: " + json.dumps(env, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
