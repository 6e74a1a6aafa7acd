"""Command-line harness.

Subcommands: simulate | cost | verify | certify | chatter | adjoint.  Every
command reads a JSON run configuration, applies the global overrides
(--seed, --paths, --steps), echoes the fully resolved configuration into its
output artifacts and writes everything below --out together with a
manifest.json indexing the produced files (sizes and SHA-256 digests).
Seeds are mandatory; nothing falls back to wall-clock entropy, so reruns
with identical configurations are byte-identical.

Exit codes: 0 success / verification passed, 1 verification or
certification failed, 2 configuration error, 3 numerical failure, 4 internal
error (an unexpected exception; its traceback is printed with --debug).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import adjoint as adj
from . import controls as ctl
from . import io as sio
from . import model, optimality, sde
from .coefficients import read_count, read_reals

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_INTERNAL = 4


class ConfigError(ValueError):
    """Raised for malformed or incomplete run configurations."""


def _section(cfg, key):
    """cfg[key] as a JSON object, created empty when absent."""
    value = cfg.setdefault(key, {})
    if not isinstance(value, dict):
        raise ConfigError(f"{key} must be an object, got {value!r}")
    return value


def resolve_config(raw: dict, overrides: dict) -> dict:
    """Validate a run configuration and fold in CLI overrides."""
    if not isinstance(raw, dict):
        raise ConfigError(f"config must be an object, got {raw!r}")
    cfg = json.loads(json.dumps(raw))  # deep copy, JSON-clean
    if "problem" not in cfg:
        raise ConfigError("config missing 'problem' (built-in name or problem JSON path)")
    grid = _section(cfg, "grid")
    mc = _section(cfg, "monte_carlo")
    if overrides.get("steps") is not None:
        grid["N"] = overrides["steps"]
    if overrides.get("paths") is not None:
        mc["M"] = overrides["paths"]
    if overrides.get("seed") is not None:
        mc["seed"] = overrides["seed"]
    grid["N"] = read_count(grid.get("N", 100), "grid.N")
    mc["M"] = read_count(mc.get("M", 1000), "monte_carlo.M")
    if "seed" not in mc:
        raise ConfigError("monte_carlo.seed is required (no wall-clock default)")
    mc["seed"] = read_count(mc["seed"], "monte_carlo.seed", 0)
    if mc["seed"] >= 2**64:
        raise ConfigError(f"monte_carlo.seed must be below 2**64 (uint64 header), got {mc['seed']}")
    reg = _section(cfg, "regression")
    reg["degree"] = read_count(reg.get("degree", 2), "regression.degree", 0)
    tol = _section(cfg, "tolerances")
    defaults = optimality.Tolerances().as_dict()
    unknown = sorted(set(tol) - set(defaults))
    if unknown:
        raise ConfigError(f"unknown tolerances {unknown}; known: {', '.join(defaults)}")
    for key, default in defaults.items():
        value = tol.get(key, default)
        tol[key] = float(read_reals(value, f"tolerances.{key}", ()))
        if tol[key] < 0.0:
            raise ConfigError(f"tolerances.{key} must be nonnegative, got {value!r}")
    chatter = _section(cfg, "chatter") if "chatter" in cfg else {}
    if "n_values" in chatter:
        values = chatter["n_values"]
        if not isinstance(values, list) or not values:
            raise ConfigError(
                f"chatter.n_values must be a non-empty list of positive integers, got {values!r}"
            )
        chatter["n_values"] = [read_count(v, "chatter.n_values entry") for v in values]
    return cfg


def _read_json_file(path, what):
    """The JSON value of the UTF-8 file at path.  A path that is not a file
    name, or a file that cannot be opened, decoded or parsed (nested too
    deeply included), raises ConfigError: what, then the reason."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, TypeError, ValueError, RecursionError) as exc:
        raise ConfigError(f"{what}: {exc}") from None


def load_problem(cfg: dict) -> model.ProblemSpec:
    name = cfg["problem"]
    if isinstance(name, str) and name in model.BUILTIN_NAMES:
        options = cfg.get("problem_options", {})
        if not isinstance(options, dict):
            raise ConfigError(f"problem_options must be an object, got {options!r}")
        kappa = float(read_reals(options.get("kappa", 1.0), "problem_options.kappa", ()))
        return model.builtin_problem(name, kappa=kappa)
    return model.problem_from_config(_read_json_file(
        name,
        f"problem {name!r} is neither a built-in ({', '.join(model.BUILTIN_NAMES)}) "
        "nor a readable problem JSON file",
    ))


def _check_in_u1_grid(mu, spec):
    """Every atom the candidate plays must be a point of the problem's U1
    grid.  Points compare as tuples of floats, so by value: -0.0 matches 0.0."""
    grid_points = set(map(tuple, spec.u1_grid.tolist()))
    for point in mu.atoms[mu.weights > 0].tolist():
        if tuple(point) not in grid_points:
            raise ConfigError(f"candidate point {point} is outside the problem's U1 grid")


def _control_part(obj, grid):
    """The candidate's control, rebuilt from its JSON description."""
    try:
        return ctl.control_from_obj(obj, grid)
    except ctl.ControlError as exc:
        raise ConfigError(f"candidate.control: {exc}") from None


def _singular_part(obj, spec, grid):
    """The candidate's singular part: a singular control with spec.m columns."""
    try:
        singular = ctl.control_from_obj(obj, grid)
    except ctl.ControlError as exc:
        raise ConfigError(f"candidate.singular: {exc}") from None
    if not isinstance(singular, ctl.SingularControl):
        raise ConfigError(
            f"candidate.singular must be a singular control, got {type(singular).__name__}"
        )
    if singular.increments.shape[1:] != (spec.m,):
        raise ConfigError(
            f"candidate.singular must have {spec.m} columns, "
            f"got increments of shape {singular.increments.shape}"
        )
    return singular


def build_candidate(cfg: dict, spec: model.ProblemSpec, grid: model.TimeGrid):
    """Resolve the candidate (control, singular) pair from the config.

    The control comes back relaxed (a strict candidate as its point masses)
    and plays only points of the problem's U1 grid.
    """
    cand = cfg.get("candidate")
    if cand is None:
        raise ConfigError("config missing 'candidate'")
    if not isinstance(cand, dict):
        raise ConfigError(f"candidate must be an object, got {cand!r}")
    singular = None
    if "path" in cand:
        what = f"cannot load candidate file {cand['path']!r}"
        obj = _read_json_file(cand["path"], what)
        try:
            control = _control_part(obj["control"], grid)
            if "singular" in obj:
                singular = _singular_part(obj["singular"], spec, grid)
        except (KeyError, TypeError) as exc:
            raise ConfigError(f"{what}: {exc!r}") from None
    else:
        name = cand.get("name")
        if name is not None:
            if not isinstance(name, str):
                raise ConfigError(f"candidate name must be a string, got {name!r}")
            if name == "relaxed_pm1":
                control = ctl.constant_relaxed(grid, [[-1.0], [1.0]], [0.5, 0.5])
            elif name.startswith("alternating:"):
                blocks = read_count(name.split(":", 1)[1], "candidate blocks")
                control = ctl.alternating_strict(grid, blocks)
            elif name.startswith("constant:"):
                value = name.split(":", 1)[1]
                point = read_reals(value.split(","), f"candidate constant {value!r}")
                control = ctl.constant_strict(grid, point)
            else:
                raise ConfigError(
                    f"unknown candidate name {name!r}; use relaxed_pm1, alternating:<n>, "
                    "constant:<v>, or a candidate JSON path"
                )
        elif "control" in cand:
            control = _control_part(cand["control"], grid)
        else:
            raise ConfigError("candidate needs 'name', 'path' or an inline 'control'")
        if "singular" in cand:
            singular = _singular_part(cand["singular"], spec, grid)
    mu = ctl.as_relaxed(control)
    _check_in_u1_grid(mu, spec)
    if singular is None:
        singular = ctl.zero_singular(grid, spec.m)
    return mu, singular


class OutputDir:
    """Collects produced files and writes the manifest."""

    def __init__(self, root, command):
        self.root = Path(root)
        try:
            self.root.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create output directory {str(root)!r}: {exc}") from None
        self.command = command
        self.files = []

    def path(self, name):
        self.files.append(name)
        return self.root / name

    def finish(self, config):
        manifest = {
            "command": self.command,
            "config": config,
            "files": {
                name: {
                    "bytes": (self.root / name).stat().st_size,
                    "sha256": sio.file_digest(self.root / name),
                }
                for name in self.files
            },
        }
        sio.write_json(manifest, self.root / "manifest.json")


def _problem_and_grid(cfg):
    spec = load_problem(cfg)
    return spec, model.TimeGrid(cfg["grid"]["N"], spec.horizon)


def _simulate(cfg) -> sde.TrajectoryEnsemble:
    """The configured candidate simulated on the configured grid and noise."""
    spec, grid = _problem_and_grid(cfg)
    noise = model.NoiseBatch.generate(cfg["monte_carlo"]["M"], grid, spec.d, cfg["monte_carlo"]["seed"])
    mu, singular = build_candidate(cfg, spec, grid)
    return sde.simulate_relaxed(spec, mu, singular, noise)


def cmd_simulate(cfg, out: OutputDir) -> int:
    traj = _simulate(cfg)
    cost = sde.estimate_cost(traj)
    sio.ensemble_to_csv(traj.states, traj.grid.knots, out.path("trajectory.csv"))
    sio.ensemble_to_binary(traj.states, traj.noise.seed, out.path("trajectory.bin"))
    terminal = traj.terminal
    summary = {
        "terminal_mean": terminal.mean(axis=0).tolist(),
        "terminal_variance": terminal.var(axis=0, ddof=1).tolist() if traj.num_paths > 1
        else [0.0] * traj.spec.n,
        "cost": cost.as_dict(),
        "deterministic_paths": traj.spec.diffusion_is_zero,
        "config": cfg,
    }
    sio.write_json(summary, out.path("summary.json"))
    return EXIT_OK


def cmd_cost(cfg, out: OutputDir) -> int:
    cost = sde.estimate_cost(_simulate(cfg))
    sio.write_json({"cost": cost.as_dict(), "config": cfg}, out.path("cost.json"))
    print(f"cost = {cost.value!r} (se {cost.std_error!r})")
    return EXIT_OK


def _verification_inputs(cfg):
    pair = adj.adjoint_bsde(_simulate(cfg), degree=cfg["regression"]["degree"])
    tol = optimality.Tolerances(**cfg["tolerances"])
    echo = {
        "grid": cfg["grid"],
        "monte_carlo": cfg["monte_carlo"],
        "regression": cfg["regression"],
        "tolerances": cfg["tolerances"],
    }
    return pair, tol, echo


def cmd_verify(cfg, out: OutputDir) -> int:
    pair, tol, echo = _verification_inputs(cfg)
    report = optimality.verify_necessary(pair, tol, config_echo=echo)
    sio.write_json({"report": report.as_dict(), "config": cfg}, out.path("verify_report.json"))
    print(report)
    return EXIT_OK if report.passed else EXIT_VERIFY_FAIL


def cmd_certify(cfg, out: OutputDir) -> int:
    pair, tol, echo = _verification_inputs(cfg)
    cert = optimality.certify_sufficient(pair, tol, config_echo=echo)
    sio.write_json({"certificate": cert.as_dict(), "config": cfg}, out.path("certificate.json"))
    for rec in cert.convexity:
        print(f"[{'pass' if rec.passed else 'FAIL'}] convexity {rec.subject}: {rec.evidence}")
    print(cert.report)
    print(f"certified: {cert.certified}")
    return EXIT_OK if cert.certified else EXIT_VERIFY_FAIL


def cmd_chatter(cfg, out: OutputDir) -> int:
    # chattering_gap draws its own noise on each refined grid
    spec, grid = _problem_and_grid(cfg)
    mu, singular = build_candidate(cfg, spec, grid)
    n_values = _section(cfg, "chatter").setdefault("n_values", [4, 8, 16])
    mc = cfg["monte_carlo"]
    rows = [sde.chattering_gap(spec, mu, singular, n, mc["M"], mc["seed"]) for n in n_values]
    lines = ["n,traj_gap,cost_gap,cost_gap_se,refined_steps"]
    for row in rows:
        lines.append(
            f"{row['n']},{row['traj_gap']!r},{row['cost_gap']!r},"
            f"{row['cost_gap_se']!r},{row['refined_steps']}"
        )
    out.path("chatter.csv").write_text("\n".join(lines) + "\n")
    sio.write_json({"rows": rows, "config": cfg}, out.path("chatter.json"))
    for row in rows:
        print(
            f"n={row['n']}: traj_gap={row['traj_gap']:.3e} cost_gap={row['cost_gap']:.3e}"
        )
    return EXIT_OK


def cmd_adjoint(cfg, out: OutputDir) -> int:
    traj = _simulate(cfg)
    spec, grid, seed = traj.spec, traj.grid, traj.noise.seed
    degree = cfg["regression"]["degree"]
    explicit, bsde = adj.adjoint_routes(traj, degree=degree)
    agreement = float(np.sqrt(np.mean((explicit.p - bsde.p) ** 2)))
    explicit_diagnostics = explicit.diagnostics
    del explicit  # release the explicit p before the exports
    sio.ensemble_to_csv(bsde.p, grid.knots, out.path("adjoint_p.csv"), prefix="p")
    sio.ensemble_to_binary(bsde.p, seed, out.path("adjoint_p.bin"))
    sio.ensemble_to_binary(
        bsde.P.reshape(traj.num_paths, grid.num_steps + 1, spec.n * spec.d),
        seed,
        out.path("adjoint_P.bin"),
    )
    diagnostics = {
        "explicit": explicit_diagnostics,
        "bsde": bsde.diagnostics,
        "method_agreement_rms": agreement,
        "config": cfg,
    }
    sio.write_json(diagnostics, out.path("adjoint_diagnostics.json"))
    print(f"explicit vs backward-sweep p agreement (time-path RMS): {agreement:.3e}")
    return EXIT_OK


COMMANDS = {
    "simulate": cmd_simulate,
    "cost": cmd_cost,
    "verify": cmd_verify,
    "certify": cmd_certify,
    "chatter": cmd_chatter,
    "adjoint": cmd_adjoint,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="singopt",
        description="Simulate controlled SDEs and verify first-order optimality conditions.",
    )
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", required=True, help="run configuration JSON")
    parser.add_argument("--out", default="out", help="output directory (default: ./out)")
    parser.add_argument("--seed", type=int, default=None, help="override monte_carlo.seed")
    parser.add_argument("--paths", type=int, default=None, help="override monte_carlo.M")
    parser.add_argument("--steps", type=int, default=None, help="override grid.N")
    parser.add_argument("--debug", action="store_true",
                        help="print the traceback of an internal error (exit 4)")
    return parser


def main(argv=None) -> int:
    """Run one command and return its exit code.  Any exception other than a
    configuration or numerical error propagates to the caller; the console
    entry point `run` reports it as an internal error."""
    return _execute(build_parser().parse_args(argv))


def run(argv=None) -> int:
    """Console entry point: main, with an unexpected exception reported as
    one `internal error:` line and exit code 4, so that a crash is never read
    as a verdict.  The traceback is printed only with --debug."""
    args = build_parser().parse_args(argv)
    try:
        return _execute(args)
    except Exception as exc:
        if args.debug:
            sys.excepthook(type(exc), exc, exc.__traceback__)
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def _execute(args) -> int:
    try:
        raw = _read_json_file(args.config, f"cannot read config {args.config!r}")
        cfg = resolve_config(
            raw, {"seed": args.seed, "paths": args.paths, "steps": args.steps}
        )
        out = OutputDir(args.out, args.command)
        code = COMMANDS[args.command](cfg, out)
        out.finish(cfg)
        return code
    except (ConfigError, model.ProblemError, ctl.ControlError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (sde.SimulationError, adj.RegressionError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(run())
