"""Command-line harness: exit codes, artifacts, config echo, reproducibility."""

import contextlib
import io
import json
import os
import tempfile
import threading
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
# imported before any memory test traces a command: the CLI first imports
# numpy.random at its first noise draw, and that import's 0.65 MB would be
# traced as the command's when a memory test runs alone
import numpy.random  # noqa: F401
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from singopt import cli, model
from singopt import controls as ctl
from singopt.cli import main
from singopt.io import ensemble_from_binary

from conftest import planar_config, reaped, traced_peak


def write_config(tmp_path, name="cfg.json", **overrides):
    cfg = {
        "problem": "example1",
        "grid": {"N": 64},
        "monte_carlo": {"M": 4, "seed": 11},
        "candidate": {"name": "alternating:8"},
    }
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def run(command, cfg_path, out_dir, *extra):
    return main([command, "--config", str(cfg_path), "--out", str(out_dir), *extra])


def read_manifest(out_dir):
    return json.loads((Path(out_dir) / "manifest.json").read_text())


class TestSimulate:
    def test_writes_all_artifacts(self, tmp_path):
        cfg = write_config(tmp_path)
        assert run("simulate", cfg, tmp_path / "out") == 0
        manifest = read_manifest(tmp_path / "out")
        assert set(manifest["files"]) == {"trajectory.csv", "trajectory.bin", "summary.json"}
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["config"]["monte_carlo"]["seed"] == 11
        assert summary["cost"]["std_error"] == 0.0
        # 8-block control on a 64-step grid stays within the ramp cost bound
        assert summary["cost"]["value"] <= 1.0 / 64 + 1e-6

    def test_binary_round_trip_matches_csv_rows(self, tmp_path):
        cfg = write_config(tmp_path)
        run("simulate", cfg, tmp_path / "out")
        values, seed = ensemble_from_binary(tmp_path / "out" / "trajectory.bin")
        assert seed == 11
        assert values.shape == (4, 65, 1)
        lines = (tmp_path / "out" / "trajectory.csv").read_text().splitlines()
        assert len(lines) == 1 + 4 * 65
        assert lines[0] == "path,step,t,x0"


class TestCost:
    def test_alternating_cost_within_bound(self, tmp_path, capsys):
        cfg = write_config(tmp_path, grid={"N": 256}, candidate={"name": "alternating:8"})
        assert run("cost", cfg, tmp_path / "out") == 0
        blob = json.loads((tmp_path / "out" / "cost.json").read_text())
        assert blob["cost"]["value"] <= 1.0 / 64 + 1e-6

    def test_relaxed_optimum_is_exactly_zero(self, tmp_path):
        cfg = write_config(tmp_path, candidate={"name": "relaxed_pm1"})
        run("cost", cfg, tmp_path / "out")
        blob = json.loads((tmp_path / "out" / "cost.json").read_text())
        assert blob["cost"]["value"] == 0.0

    def test_singular_increment_adds_exact_cost(self, tmp_path):
        inc = [[0.0]] * 64
        inc[10] = [1.0]
        candidate_file = tmp_path / "candidate.json"
        candidate_file.write_text(json.dumps({
            "control": {"type": "strict", "values": [[0.0]] * 64},
            "singular": {"type": "singular", "increments": inc},
        }))
        cfg = write_config(
            tmp_path, problem="singular_block", candidate={"path": str(candidate_file)}
        )
        run("cost", cfg, tmp_path / "out")
        blob = json.loads((tmp_path / "out" / "cost.json").read_text())
        assert blob["cost"]["singular"] == 1.0


def test_problem_loaded_from_json_file(tmp_path):
    # a problem with no costs at all: any control costs exactly zero
    zero_problem = {
        "name": "all_zero",
        "dims": {"n": 1, "d": 1, "k": 1, "m": 1},
        "horizon": 1.0,
        "x0": [0.0],
        "coefficients": {
            "drift": {"form": "affine", "control": [[1.0]]},
            "diffusion": {"form": "zero"},
            "singular_gain": {"form": "zero"},
            "running_cost": {"form": "zero"},
            "terminal_cost": {"form": "zero"},
            "singular_cost": {"form": "zero"},
        },
        "u1_grid": [[-1.0], [1.0]],
        "assumptions_box": {"low": [-2.0], "high": [2.0]},
    }
    problem_path = tmp_path / "zero.json"
    problem_path.write_text(json.dumps(zero_problem))
    cfg = write_config(tmp_path, problem=str(problem_path))
    assert run("cost", cfg, tmp_path / "out") == 0
    blob = json.loads((tmp_path / "out" / "cost.json").read_text())
    assert blob["cost"]["value"] == 0.0


class TestVerifyAndCertify:
    def test_passing_candidate_exits_zero(self, tmp_path):
        cfg = write_config(
            tmp_path, problem="example2_separated", grid={"N": 100},
            monte_carlo={"M": 8, "seed": 3}, regression={"degree": 1},
            candidate={"name": "relaxed_pm1"},
        )
        assert run("verify", cfg, tmp_path / "out") == 0
        blob = json.loads((tmp_path / "out" / "verify_report.json").read_text())
        assert blob["report"]["passed"] is True
        assert blob["report"]["config"]["monte_carlo"]["seed"] == 3

    def test_failing_candidate_exits_one_with_gap(self, tmp_path):
        cfg = write_config(
            tmp_path, problem="example2_separated", grid={"N": 100},
            monte_carlo={"M": 8, "seed": 3}, regression={"degree": 1},
            candidate={"name": "constant:0.0"},
        )
        assert run("verify", cfg, tmp_path / "out") == 1
        blob = json.loads((tmp_path / "out" / "verify_report.json").read_text())
        gap = [c for c in blob["report"]["conditions"]
               if c["id"] == "hamiltonian-minimality"][0]
        assert gap["statistic"] == pytest.approx(1.0, abs=1e-9)

    def test_certify_exit_codes(self, tmp_path):
        good = write_config(
            tmp_path, "good.json", problem="example2_separated", grid={"N": 50},
            monte_carlo={"M": 8, "seed": 3}, regression={"degree": 1},
            candidate={"name": "relaxed_pm1"},
        )
        bad = write_config(
            tmp_path, "bad.json", problem="example2_separated", grid={"N": 50},
            monte_carlo={"M": 8, "seed": 3}, regression={"degree": 1},
            candidate={"name": "constant:0.0"},
        )
        assert run("certify", good, tmp_path / "g") == 0
        assert run("certify", bad, tmp_path / "b") == 1
        cert = json.loads((tmp_path / "g" / "certificate.json").read_text())
        assert cert["certificate"]["certified"] is True

    @staticmethod
    def _traced_peak_and_bound(tmp_path, command):
        """The traced peak of command on M = 8 000 paths and N = 50 steps,
        and its bound: the states and the noise (n = d = 1), the minimality
        scan's (21, M) grid of H values and one temporary of its size, eight
        per-path vectors and 1 MB that does not grow with M.  The checks
        read the backward sweep knot by knot, so no adjoint ensemble is
        held, and the noise is drawn with one block of generators at a
        time; one p ensemble (3.3 MB) or all M generators break the bound."""
        M, N = 8000, 50
        cfg = write_config(
            tmp_path, problem="example2_stochastic", grid={"N": N},
            monte_carlo={"M": M, "seed": 7}, candidate={"name": "relaxed_pm1"},
        )
        with traced_peak() as traced:
            assert run(command, cfg, tmp_path / "out") == 1
        ensembles = M * (N + 1) * 8 + M * N * 8
        return traced.peak, ensembles + 2 * 21 * M * 8 + 8 * M * 8 + 1e6

    # tracemalloc does not see a forked worker: on the thread, the bound
    # also holds the backward sweep's temporaries, stepped beside the checks
    def test_certify_peak_memory_is_the_ensembles_and_two_scan_grids(self, tmp_path, worker):
        peak, bound = self._traced_peak_and_bound(tmp_path, "certify")
        assert peak < bound

    def test_verify_peak_memory_is_the_ensembles_and_two_scan_grids(self, tmp_path, worker):
        peak, bound = self._traced_peak_and_bound(tmp_path, "verify")
        assert peak < bound

    @pytest.mark.parametrize("command", ["verify", "certify"])
    def test_stores_no_adjoint_pair(self, tmp_path, monkeypatch, command):
        def refuse(*args, **kwargs):
            raise AssertionError(f"{command} stored the adjoint pair")

        monkeypatch.setattr(cli.adj, "adjoint_bsde", refuse)
        monkeypatch.setattr(cli.adj, "adjoint_routes", refuse)
        cfg = write_config(
            tmp_path, problem="example2_stochastic", grid={"N": 20},
            monte_carlo={"M": 64, "seed": 6}, candidate={"name": "relaxed_pm1"},
        )
        assert run(command, cfg, tmp_path / "out") == 1

    @pytest.mark.parametrize("command", ["verify", "certify"])
    @pytest.mark.parametrize("problem", ["example2_stochastic", "singular_block", "planar"])
    def test_records_are_those_of_the_stored_pair(self, tmp_path, command, problem):
        # the command feeds the checks from the backward sweep as it runs;
        # certify_sufficient and verify_necessary on adjoint_bsde's stored
        # pair must write the same records, float for float.  singular_block
        # and the planar problem carry increments where the slack is positive
        N = 40
        inc = np.zeros((N, 1))
        inc[[5, 17, 30], 0] = [0.3, 1.0, 0.2]
        singular = {"type": "singular", "increments": inc.tolist()}
        candidate = {"name": "relaxed_pm1"}
        if problem == "singular_block":
            candidate = {"name": "constant:0.0", "singular": singular}
        elif problem == "planar":
            problem = str(tmp_path / "planar.json")
            Path(problem).write_text(json.dumps(planar_config()))
            singular["increments"] = np.column_stack([inc[:, 0], inc[::-1, 0]]).tolist()
            candidate = {"control": {"type": "strict", "values": [[1.0, 0.0]] * N},
                         "singular": singular}
        raw = {"problem": problem, "grid": {"N": N}, "monte_carlo": {"M": 64, "seed": 5},
               "candidate": candidate}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(raw))
        assert run(command, cfg_path, tmp_path / "out") in (0, 1)

        cfg = cli.resolve_config(raw, {})
        pair = cli.adj.adjoint_bsde(cli._simulate(cfg), degree=cfg["regression"]["degree"])
        tol = cli.optimality.Tolerances(**cfg["tolerances"])
        if command == "verify":
            written = json.loads((tmp_path / "out" / "verify_report.json").read_text())["report"]
            stored = cli.optimality.verify_necessary(pair, tol).as_dict()
        else:
            written = json.loads((tmp_path / "out" / "certificate.json").read_text())["certificate"]
            stored = cli.optimality.certify_sufficient(pair, tol).as_dict()
            assert written["convexity"] == stored["convexity"]
            assert written["certified"] is stored["certified"]
            written, stored = written["conditions"], stored["conditions"]
        assert written["conditions"] == stored["conditions"]
        flat_off = [c for c in written["conditions"] if c["id"] == "flat-off"][0]
        assert (flat_off["statistic"] > 0.0) == (candidate.get("singular") is not None)

    def test_injected_singular_increment_fails_flat_off(self, tmp_path):
        inc = [[0.0]] * 64
        inc[5] = [1.0]
        candidate_file = tmp_path / "candidate.json"
        candidate_file.write_text(json.dumps({
            "control": {"type": "strict", "values": [[0.0]] * 64},
            "singular": {"type": "singular", "increments": inc},
        }))
        cfg = write_config(
            tmp_path, problem="singular_block",
            monte_carlo={"M": 4, "seed": 2}, regression={"degree": 1},
            candidate={"path": str(candidate_file)},
        )
        assert run("verify", cfg, tmp_path / "out") == 1
        blob = json.loads((tmp_path / "out" / "verify_report.json").read_text())
        flat = [c for c in blob["report"]["conditions"] if c["id"] == "flat-off"][0]
        assert flat["passed"] is False


class TestChatter:
    def test_table_columns_and_decreasing_gap(self, tmp_path):
        cfg = write_config(
            tmp_path, candidate={"name": "relaxed_pm1"},
            monte_carlo={"M": 32, "seed": 4},
            chatter={"n_values": [4, 8]},
        )
        assert run("chatter", cfg, tmp_path / "out") == 0
        lines = (tmp_path / "out" / "chatter.csv").read_text().splitlines()
        assert lines[0] == "n,traj_gap,cost_gap,cost_gap_se,refined_steps"
        rows = [line.split(",") for line in lines[1:]]
        assert [r[0] for r in rows] == ["4", "8"]
        assert float(rows[1][1]) < float(rows[0][1])
        # the relaxed optimum costs 0, so the cost gap is the block-control
        # cost itself and obeys the ramp bound
        for row in rows:
            n = int(row[0])
            assert float(row[2]) <= 1.0 / n ** 2 + 1e-6

    def test_draws_only_the_refined_noise(self, tmp_path, monkeypatch):
        draws = []
        init = model.NoiseStream.__init__

        def counting(self, num_paths, grid, noise_dim, seed):
            draws.append((grid.num_steps, seed))
            init(self, num_paths, grid, noise_dim, seed)

        monkeypatch.setattr(model.NoiseStream, "__init__", counting)
        cfg = write_config(
            tmp_path, candidate={"name": "relaxed_pm1"},
            monte_carlo={"M": 8, "seed": 4}, chatter={"n_values": [4, 8]},
        )
        assert run("chatter", cfg, tmp_path / "out") == 0
        assert draws == [(32, (4, 4)), (128, (4, 8))]

    def test_dirac_target_gives_zero_gaps(self, tmp_path):
        cfg = write_config(
            tmp_path, candidate={"name": "constant:1.0"},
            monte_carlo={"M": 16, "seed": 4}, chatter={"n_values": [4]},
        )
        run("chatter", cfg, tmp_path / "out")
        blob = json.loads((tmp_path / "out" / "chatter.json").read_text())
        assert blob["rows"][0]["traj_gap"] == 0.0
        assert blob["rows"][0]["cost_gap"] == 0.0

    def test_echoes_the_default_n_values_it_ran(self, tmp_path):
        cfg = write_config(tmp_path, grid={"N": 4}, candidate={"name": "relaxed_pm1"},
                           monte_carlo={"M": 2, "seed": 4})
        assert run("chatter", cfg, tmp_path / "out") == 0
        blob = json.loads((tmp_path / "out" / "chatter.json").read_text())
        assert [row["n"] for row in blob["rows"]] == [4, 8, 16]
        assert blob["config"]["chatter"] == {"n_values": [4, 8, 16]}
        assert read_manifest(tmp_path / "out")["config"]["chatter"] == {"n_values": [4, 8, 16]}


class TestAdjointCommand:
    def test_artifacts_and_agreement(self, tmp_path, monkeypatch):
        ensembles = []
        routes = cli.adj.adjoint_routes

        def recording(traj, **kwargs):
            ensembles.append(traj)
            return routes(traj, **kwargs)

        monkeypatch.setattr(cli.adj, "adjoint_routes", recording)
        cfg = write_config(
            tmp_path, problem="example2_stochastic", grid={"N": 50},
            monte_carlo={"M": 256, "seed": 6}, regression={"degree": 1},
            candidate={"name": "constant:0.0"},
        )
        assert run("adjoint", cfg, tmp_path / "out") == 0
        manifest = read_manifest(tmp_path / "out")
        assert set(manifest["files"]) == {
            "adjoint_p.csv", "adjoint_p.bin", "adjoint_P.bin", "adjoint_diagnostics.json",
        }
        diag = json.loads((tmp_path / "out" / "adjoint_diagnostics.json").read_text())
        assert diag["method_agreement_rms"] <= 5e-2
        assert diag["bsde"]["basis_degree"] == 1
        # the agreement reduced in the explicit p's buffer is the whole-array
        # formula on the routes of the command's ensemble, bit for bit
        explicit, bsde = cli.adj.adjoint_routes(ensembles[0], degree=1)
        agreement = float(np.sqrt(np.mean((explicit.p - bsde.p) ** 2)))
        assert diag["method_agreement_rms"] == agreement

    @staticmethod
    def _planar_config(tmp_path, M, N):
        """The planar problem (n = d = 2) under a two-atom measure, degree 2."""
        problem = tmp_path / "planar.json"
        problem.write_text(json.dumps(planar_config()))
        cell = {"atoms": [[1.0, 0.0], [0.0, -1.0]], "weights": [0.5, 0.5]}
        return write_config(
            tmp_path, problem=str(problem), grid={"N": N}, monte_carlo={"M": M, "seed": 7},
            regression={"degree": 2},
            candidate={"control": {"type": "relaxed", "cells": [cell] * N}},
        )

    def test_nothing_is_held_between_the_routes_and_the_exports(self, tmp_path, monkeypatch):
        # from the routes' return to the first export the command reduces the
        # agreement and releases the explicit p: a difference of the two p
        # ensembles would raise the traced peak by one p ensemble
        M, N, n = 2000, 50, 2
        routes, export = cli.adj.adjoint_routes, cli.sio.ensemble_to_csv
        held, peaks = [], []

        def both(*args, **kwargs):
            pairs = routes(*args, **kwargs)
            tracemalloc.reset_peak()
            held.append(tracemalloc.get_traced_memory()[0])
            return pairs

        def csv(*args, **kwargs):
            if not peaks:
                peaks.append(tracemalloc.get_traced_memory()[1] - held[0])
            return export(*args, **kwargs)

        monkeypatch.setattr(cli.adj, "adjoint_routes", both)
        monkeypatch.setattr(cli.sio, "ensemble_to_csv", csv)
        cfg = self._planar_config(tmp_path, M, N)
        with traced_peak():
            assert run("adjoint", cfg, tmp_path / "out") == 0
        assert peaks[0] < M * (N + 1) * n * 8 / 2

    def test_peak_memory_is_the_backward_sweep(self, tmp_path):
        # at the workload size of the benchmark's adjoint_planar the run peaks
        # in the backward sweep, holding the states, the noise, both routes'
        # p and the sweep's P (n d / n = 2 p ensembles): 5 p ensembles and
        # the noise, with room for the sweep's per-knot arrays
        M, N, n, d = 4000, 100, 2, 2
        cfg = self._planar_config(tmp_path, M, N)
        p_bytes = M * (N + 1) * n * 8
        with traced_peak() as traced:
            assert run("adjoint", cfg, tmp_path / "out") == 0
        assert traced.peak < 5 * p_bytes + M * N * d * 8 + p_bytes / 2

    def test_computes_no_fundamental_pair(self, tmp_path, monkeypatch):
        def refuse(*args):
            raise AssertionError("the adjoint command computed a fundamental pair")

        # every fundamental pair is stepped by sde._fundamental_steps
        monkeypatch.setattr(cli.sde, "_fundamental_steps", refuse)
        monkeypatch.setattr(cli.adj, "_fundamental_steps", refuse)
        cfg = write_config(
            tmp_path, problem="example2_stochastic", grid={"N": 20},
            monte_carlo={"M": 64, "seed": 6}, candidate={"name": "constant:0.0"},
        )
        assert run("adjoint", cfg, tmp_path / "out") == 0
        diag = json.loads((tmp_path / "out" / "adjoint_diagnostics.json").read_text())
        assert "inverse_defect" not in diag

    def test_explicit_p_is_released_before_the_exports(self, tmp_path, monkeypatch):
        # only the explicit route's diagnostics are read after the agreement
        explicit_p = []
        routes = cli.adj.adjoint_routes
        export = cli.sio.ensemble_to_csv

        def both(*args, **kwargs):
            explicit, bsde = routes(*args, **kwargs)
            explicit_p.append(weakref.ref(explicit.p))
            return explicit, bsde

        def csv(*args, **kwargs):
            assert explicit_p[0]() is None
            return export(*args, **kwargs)

        monkeypatch.setattr(cli.adj, "adjoint_routes", both)
        monkeypatch.setattr(cli.sio, "ensemble_to_csv", csv)
        cfg = write_config(
            tmp_path, problem="example2_stochastic", grid={"N": 20},
            monte_carlo={"M": 64, "seed": 6}, candidate={"name": "constant:0.0"},
        )
        assert run("adjoint", cfg, tmp_path / "out") == 0
        assert len(explicit_p) == 1

    def test_one_basis_and_one_gradient_average_per_knot(self, tmp_path, monkeypatch):
        # both routes read one regression basis and one cell average of
        # each state gradient per knot, on the planar problem (b_x, sigma_x
        # != 0) under a two-atom measure
        N = 12
        specs, bases, averaged = [], [], []
        load, basis, average = cli.load_problem, cli.adj.regression_basis, ctl.RelaxedControl.average

        def loading(cfg):
            specs.append(load(cfg))
            return specs[-1]

        def counting_basis(*args, **kwargs):
            bases.append(args[0].shape)
            return basis(*args, **kwargs)

        def counting_average(self, fn, *args):
            averaged.append(fn)
            return average(self, fn, *args)

        monkeypatch.setattr(cli, "load_problem", loading)
        monkeypatch.setattr(cli.adj, "regression_basis", counting_basis)
        monkeypatch.setattr(ctl.RelaxedControl, "average", counting_average)
        cfg = self._planar_config(tmp_path, 64, N)
        assert run("adjoint", cfg, tmp_path / "out") == 0
        assert bases == [(64, 2)] * N
        (spec,) = specs
        counts = [sum(fn is gradient for fn in averaged)
                  for gradient in (spec.h_x, spec.b_x, spec.sigma_x)]
        assert counts == [N, N, N]


# malformed singular parts on a 4-step grid of a problem with m = 1
_WIDE_SINGULAR = {"type": "singular", "increments": [[0.0, 0.0]] * 4}
_RELAXED_SINGULAR = {"type": "relaxed", "cells": [{"atoms": [[0.0]], "weights": [1.0]}] * 4}
_PM1_CONTROL = {"type": "relaxed",
                "cells": [{"atoms": [[-1.0], [1.0]], "weights": [0.5, 0.5]}] * 4}


def _pm1_control(atoms=((-1.0,), (1.0,)), weights=(0.5, 0.5)):
    """The 4-cell relaxed_pm1 control with the given atoms and weights."""
    cell = {"atoms": [list(a) for a in atoms], "weights": list(weights)}
    return {"type": "relaxed", "cells": [cell] * 4}


def _singular(increments):
    """A 1-column singular control with one increment per cell."""
    return {"type": "singular", "increments": [[v] for v in increments]}


class TestConfigErrors:
    def test_missing_seed_exits_two(self, tmp_path):
        cfg = write_config(tmp_path, monte_carlo={"M": 4})
        assert run("cost", cfg, tmp_path / "out") == 2

    def test_integral_floats_count_as_integers(self, tmp_path):
        cfg = write_config(tmp_path, grid={"N": 64.0}, monte_carlo={"M": 4.0, "seed": 11.0})
        assert run("simulate", cfg, tmp_path / "out") == 0
        echoed = json.loads((tmp_path / "out" / "summary.json").read_text())["config"]
        values = (echoed["grid"]["N"], echoed["monte_carlo"]["M"], echoed["monte_carlo"]["seed"])
        assert [(v, type(v)) for v in values] == [(64, int), (4, int), (11, int)]

    def test_unknown_problem_exits_two(self, tmp_path):
        cfg = write_config(tmp_path, problem="not_a_problem")
        assert run("cost", cfg, tmp_path / "out") == 2

    def test_unknown_candidate_exits_two(self, tmp_path):
        cfg = write_config(tmp_path, candidate={"name": "wiggle"})
        assert run("cost", cfg, tmp_path / "out") == 2

    def test_candidate_point_off_grid_exits_two(self, tmp_path):
        cfg = write_config(tmp_path, candidate={"name": "constant:0.5"})
        assert run("cost", cfg, tmp_path / "out") == 2

    def test_inline_candidate_off_grid_exits_two(self, tmp_path):
        cfg = write_config(
            tmp_path,
            candidate={"control": {"type": "strict", "values": [[0.3]] * 64}},
        )
        assert run("cost", cfg, tmp_path / "out") == 2

    @pytest.mark.parametrize(
        "overrides, extra, message",
        [
            ({"monte_carlo": {"M": 4, "seed": -1}}, (), "monte_carlo.seed must be nonnegative"),
            ({}, ("--seed", "-1"), "monte_carlo.seed must be nonnegative"),
            ({"monte_carlo": {"M": 4, "seed": "abc"}}, (), "monte_carlo.seed must be an integer"),
            ({"candidate": {"name": "constant:abc"}}, (), "'abc'"),
            ({"candidate": {"name": "constant:1,x"}}, (), "'1,x'"),
            ({"regression": {"degree": "abc"}}, (), "regression.degree must be an integer"),
            ({"regression": {"degree": -1}}, (), "regression.degree must be nonnegative"),
            ({"grid": {"N": float("inf")}}, (), "grid.N must be an integer"),
            ({"tolerances": {"tol_H": "x"}}, (), "tolerances.tol_H must be numeric, got 'x'"),
            ({"tolerances": {"tol_S": float("nan")}}, (), "tolerances.tol_S must be finite, got nan"),
            ({"tolerances": {"tol_F": -1e-9}}, (), "tolerances.tol_F must be nonnegative, got -1e-09"),
            ({"tolerances": {"tol_Q": 0.1}}, (), "unknown tolerances ['tol_Q']"),
            ({"monte_carlo": {"M": 4, "seed": 2**64}}, (),
             "monte_carlo.seed must be below 2**64 (uint64 header), got 18446744073709551616"),
            ({}, ("--seed", str(2**64)), "monte_carlo.seed must be below 2**64"),
            ({"monte_carlo": {"M": 4, "seed": 7.5}}, (), "monte_carlo.seed must be an integer, got 7.5"),
            ({"monte_carlo": {"M": 8.7, "seed": 7}}, (), "monte_carlo.M must be an integer, got 8.7"),
            ({"monte_carlo": {"M": True, "seed": 7}}, (), "monte_carlo.M must be an integer, got True"),
            ({"grid": {"N": 4.9}}, (), "grid.N must be an integer, got 4.9"),
            ({"regression": {"degree": 2.5}}, (), "regression.degree must be an integer, got 2.5"),
            ({"tolerances": {"tol_H": True}}, (), "tolerances.tol_H must be numeric, got True"),
        ],
        ids=["config-seed", "override-seed", "seed-not-int", "constant-abc", "constant-pair",
             "degree-abc", "degree-negative", "steps-inf", "tol-not-number", "tol-nan",
             "tol-negative", "tol-unknown", "config-seed-too-large", "override-seed-too-large",
             "seed-fractional", "paths-fractional", "paths-bool", "steps-fractional",
             "degree-fractional", "tol-bool"],
    )
    def test_bad_seed_or_constant_exits_two_without_traceback(
        self, tmp_path, capsys, overrides, extra, message
    ):
        cfg = write_config(tmp_path, **overrides)
        assert run("simulate", cfg, tmp_path / "out", *extra) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert message in err
        assert "Traceback" not in err
        assert not (tmp_path / "out" / "manifest.json").exists()

    @pytest.mark.parametrize(
        "command, overrides, message",
        [
            ("chatter", {"chatter": {"n_values": ["abc"]}},
             "chatter.n_values entry must be an integer, got 'abc'"),
            ("chatter", {"chatter": {"n_values": 4}},
             "chatter.n_values must be a non-empty list of positive integers, got 4"),
            ("chatter", {"chatter": {"n_values": []}}, "chatter.n_values must be a non-empty"),
            ("chatter", {"chatter": {"n_values": [4, 0]}},
             "chatter.n_values entry must be positive, got 0"),
            ("chatter", {"chatter": {"n_values": [4, 4.5]}},
             "chatter.n_values entry must be an integer, got 4.5"),
            ("cost", {"candidate": {"control": {"type": "relaxed"}}},
             "relaxed control is missing the field 'cells'"),
            ("cost", {"candidate": {"name": 5}}, "candidate name must be a string, got 5"),
            ("cost", {"regression": []}, "regression must be an object, got []"),
            ("cost", {"candidate": 5}, "candidate must be an object, got 5"),
            ("cost", {"candidate": {"control": {"type": "strict", "values": [["x"]] * 4}}},
             "malformed strict control"),
            ("cost", {"problem_options": {"kappa": "x"}},
             "problem_options.kappa must be numeric, got 'x'"),
            ("cost", {"problem": "singular_block", "problem_options": {"kappa": "nan"}},
             "problem_options.kappa must be finite, got 'nan'"),
            ("cost", {"problem": "singular_block", "problem_options": {"kappa": "inf"}},
             "problem_options.kappa must be finite, got 'inf'"),
            ("cost", {"problem": "singular_block", "problem_options": {"kappa": True}},
             "problem_options.kappa must be numeric, got True"),
            ("verify", {"problem": "example2_stochastic",
                        "candidate": {"name": "relaxed_pm1", "singular": _WIDE_SINGULAR}},
             "candidate.singular must have 1 columns, got increments of shape (4, 2)"),
            ("verify", {"problem": "example2_stochastic",
                        "candidate": {"name": "relaxed_pm1", "singular": _RELAXED_SINGULAR}},
             "candidate.singular must be a singular control, got RelaxedControl"),
            ("certify", {"problem": "example2_stochastic",
                         "candidate_file": {"control": _PM1_CONTROL,
                                            "singular": _WIDE_SINGULAR}},
             "candidate.singular must have 1 columns, got increments of shape (4, 2)"),
            ("certify", {"problem": "example2_stochastic",
                         "candidate_file": {"control": _PM1_CONTROL,
                                            "singular": _RELAXED_SINGULAR}},
             "candidate.singular must be a singular control, got RelaxedControl"),
            ("verify", {"candidate": {"name": "relaxed_pm1",
                                      "singular": {"type": "singular", "increments": "x"}}},
             "candidate.singular: malformed singular control"),
            ("cost", {"candidate": {"control": _pm1_control(weights=[float("nan"), 0.5])}},
             "candidate.control: relaxed control weights must be finite, got [nan, 0.5] "
             "in cell 0"),
            ("cost", {"candidate": {"control": _pm1_control(atoms=[[-1.0], [float("inf")]])}},
             "candidate.control: relaxed control atoms must be finite"),
            ("cost", {"candidate": {"control": {"type": "strict",
                                                "values": [[float("-inf")]] * 4}}},
             "candidate.control: strict control values must be finite"),
            ("cost", {"problem": "singular_block",
                      "candidate": {"name": "constant:0",
                                    "singular": _singular([float("nan"), 0.0, 0.0, 0.0])}},
             "candidate.singular: singular increments must be finite, got [nan] in cell 0"),
            ("verify", {"candidate_file": {"control": _pm1_control(weights=[0.5, float("nan")])}},
             "candidate.control: relaxed control weights must be finite"),
            ("certify", {"problem": "singular_block",
                         "candidate_file": {
                             "control": {"type": "strict", "values": [[0.0]] * 4},
                             "singular": _singular([0.0, 0.0, float("inf"), 0.0])}},
             "candidate.singular: singular increments must be finite, got [inf] in cell 2"),
            ("cost", {"candidate": {"control": {"type": "strict", "values": [[True]] * 4}}},
             "candidate.control: malformed strict control: strict control values must be "
             "numeric, got [[True], [True], [True], [True]]"),
            ("cost", {"candidate": {"control": _pm1_control(weights=[True, False])}},
             "candidate.control: malformed relaxed control: relaxed control weights must be "
             "numeric, got [True, False]"),
            ("cost", {"candidate": {"control": _pm1_control(atoms=[[-1.0], [1.0, 2.0]])}},
             "candidate.control: malformed relaxed control: relaxed control atoms must be "
             "a rectangular array, got [[-1.0], [1.0, 2.0]]"),
            ("cost", {"problem": "x" * 300},
             "nor a readable problem JSON file: [Errno 36] File name too long"),
            ("cost", {"problem": "."},
             "nor a readable problem JSON file: [Errno 21] Is a directory"),
            ("cost", {"problem_file": b'{"name": "\xff"}'},
             "nor a readable problem JSON file: 'utf-8' codec can't decode byte 0xff"),
            ("cost", {"candidate_file": b'{"control": "\xff"}'},
             "cannot load candidate file"),
            ("cost", {"config_file": b'{"problem": "\xff"}'},
             "cannot read config"),
            ("cost", {"config_file": b"5"}, "config must be an object, got 5"),
            ("cost", {"config_file": b"[" * 100_000},
             "cannot read config"),
        ],
        ids=["n-values-abc", "n-values-bare-int", "n-values-empty", "n-values-zero",
             "n-values-fractional", "relaxed-without-cells", "candidate-name-int", "regression-list",
             "candidate-int", "strict-values-text", "kappa-text", "kappa-nan", "kappa-inf",
             "kappa-bool",
             "singular-too-wide",
             "singular-relaxed", "singular-file-too-wide", "singular-file-relaxed",
             "singular-text", "weights-nan", "atoms-inf", "strict-values-inf",
             "singular-nan", "weights-file-nan", "singular-file-inf", "strict-values-bool",
             "weights-bool", "atoms-ragged", "problem-name-too-long", "problem-directory",
             "problem-file-not-utf8", "candidate-file-not-utf8", "config-not-utf8",
             "config-not-object", "config-nested-too-deep"],
    )
    def test_malformed_sections_exit_two_without_traceback(
        self, tmp_path, capsys, command, overrides, message
    ):
        # "candidate_file", "problem_file" and "config_file" hold the content
        # of a file, as JSON or as raw bytes; the first two are used by path
        overrides = dict(overrides)
        files = {}
        for key in ("candidate_file", "problem_file", "config_file"):
            if key in overrides:
                content = overrides.pop(key)
                files[key] = path = tmp_path / f"{key}.json"
                if isinstance(content, bytes):
                    path.write_bytes(content)
                else:
                    path.write_text(json.dumps(content))
        if "candidate_file" in files:
            overrides["candidate"] = {"path": str(files["candidate_file"])}
        if "problem_file" in files:
            overrides["problem"] = str(files["problem_file"])
        cfg = files.get("config_file") or write_config(
            tmp_path, **{"grid": {"N": 4}, "candidate": {"name": "relaxed_pm1"}, **overrides}
        )
        assert run(command, cfg, tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert message in err
        assert "Traceback" not in err
        assert not (tmp_path / "out" / "manifest.json").exists()

    @pytest.mark.parametrize("out", ["afile", "afile/sub"], ids=["a-file", "under-a-file"])
    def test_an_out_that_cannot_be_a_directory_exits_two(self, tmp_path, capsys, out):
        (tmp_path / "afile").write_text("kept")
        out = tmp_path / out
        assert cli.run(["cost", "--config", str(write_config(tmp_path)), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot create output directory {str(out)!r}: ")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert (tmp_path / "afile").read_text() == "kept"

    @pytest.mark.parametrize(
        "section, value, message",
        [
            ("coefficients", {"drift": {"form": "cubic"}}, "drift: unknown form 'cubic'"),
            ("horizon", "abc", "'abc'"),
            ("x0", [0.0, 1.0], "x0 must hold 1 values, got 2"),
            ("coefficients", {"drift": "affine"},
             "coefficients.drift must be an object, got 'affine'"),
            ("assumptions_box", [0, 1],
             "assumptions_box must be an object with 'low' and 'high', got [0, 1]"),
            ("assumptions_box", {"low": ["x"], "high": [2.0]},
             "assumptions_box.low must be numeric, got ['x']"),
            ("dims", [1, 1, 1, 1], "dims must be an object, got [1, 1, 1, 1]"),
            ("dims", {"n": 1, "d": 1, "k": 1}, "dims missing 'm'"),
            ("coefficients", {"singular_gain": {"form": "constant"}},
             "singular_gain: form 'constant' needs a 'value'"),
            ("coefficients", {"running_cost": {"form": "quadratic", "const": "x"}},
             "running_cost.const must be numeric, got 'x'"),
            ("u1_grid", [["a"]], "u1_grid must be numeric, got [['a']]"),
            ("coefficients", {"running_cost": {"form": "quadratic", "const": float("nan")}},
             "running_cost.const must be finite, got nan"),
            ("coefficients", {"running_cost": {"form": "quadratic",
                                               "control_poly": [[0.0, float("inf")]]}},
             "running_cost.control_poly[0] must be finite, got [0.0, inf]"),
            ("horizon", float("inf"), "horizon must be finite, got inf"),
            ("x0", [float("nan")], "x0 must be finite, got [nan]"),
            ("assumptions_box", {"low": [-2.0], "high": [float("inf")]},
             "assumptions_box.high must be finite, got [inf]"),
            ("dims", {"n": 1.5, "d": 1, "k": 1, "m": 1}, "dims.n must be an integer, got 1.5"),
            ("dims", {"n": 1, "d": True, "k": 1, "m": 1}, "dims.d must be an integer, got True"),
            ("horizon", True, "horizon must be numeric, got True"),
            ("x0", [True], "x0 must be numeric, got [True]"),
            ("u1_grid", [[True], [False]], "u1_grid must be numeric, got [[True], [False]]"),
            ("coefficients", {"running_cost": {"form": "quadratic", "state_quad": [[True]]}},
             "running_cost.state_quad must be numeric, got [[True]]"),
            ("coefficients", {"running_cost": {"form": "quadratic",
                                               "control_poly": [[1.0, True]]}},
             "running_cost.control_poly[0] must be numeric, got [1.0, True]"),
            ("coefficients", {"running_cost": {"form": "quadratic", "control_poly": [1.0]}},
             "running_cost.control_poly: expected 1 coefficient lists, got [1.0]"),
            ("assumptions_box", {"low": [False], "high": [2.0]},
             "assumptions_box.low must be numeric, got [False]"),
            ("x0", [[1.0], [1.0, 2.0]], "x0 must be a rectangular array, got [[1.0], [1.0, 2.0]]"),
        ],
        ids=["drift-cubic", "horizon-text", "x0-too-long", "drift-not-object",
             "box-list", "box-low-text", "dims-list", "dims-missing-m",
             "constant-gain-without-value", "running-const-text", "u1-grid-text",
             "running-const-nan", "control-poly-inf", "horizon-inf", "x0-nan", "box-high-inf",
             "dims-fractional", "dims-bool", "horizon-bool", "x0-bool", "u1-grid-bool",
             "state-quad-bool", "control-poly-bool", "control-poly-scalar", "box-low-bool",
             "x0-ragged"],
    )
    def test_malformed_problem_file_exits_two_without_traceback(
        self, tmp_path, capsys, section, value, message
    ):
        problem = model._builtin_config("example1", 1.0)
        problem[section] = value
        assert self.run_problem_file(tmp_path, problem) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert message in err
        assert "Traceback" not in err
        assert not (tmp_path / "out" / "manifest.json").exists()

    @staticmethod
    def run_problem_file(tmp_path, problem):
        """Exit code of `cost` on the problem written to a file, on a grid
        that holds the default candidate's 8 blocks."""
        problem_path = tmp_path / "problem.json"
        problem_path.write_text(json.dumps(problem))
        cfg = write_config(tmp_path, problem=str(problem_path), grid={"N": 8})
        return run("cost", cfg, tmp_path / "out")

    def test_unmodified_problem_file_exits_zero(self, tmp_path):
        # the control of the malformed-file cases: only their edit refuses them
        assert self.run_problem_file(tmp_path, model._builtin_config("example1", 1.0)) == 0

    def test_numeric_string_tolerance_is_stored_as_a_number(self, tmp_path):
        cfg = write_config(tmp_path, tolerances={"tol_H": "0.1"})
        assert run("verify", cfg, tmp_path / "out") in (0, 1)
        blob = json.loads((tmp_path / "out" / "verify_report.json").read_text())
        assert blob["config"]["tolerances"]["tol_H"] == 0.1
        assert blob["report"]["config"]["tolerances"]["tol_H"] == 0.1

    def test_malformed_json_exits_two(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert run("cost", path, tmp_path / "out") == 2

    def test_seed_override_fills_missing_seed(self, tmp_path):
        cfg = write_config(tmp_path, monte_carlo={"M": 4})
        assert run("cost", cfg, tmp_path / "out", "--seed", "77") == 0
        blob = json.loads((tmp_path / "out" / "cost.json").read_text())
        assert blob["config"]["monte_carlo"]["seed"] == 77

    def test_paths_and_steps_overrides(self, tmp_path):
        cfg = write_config(tmp_path)
        assert run("cost", cfg, tmp_path / "out", "--paths", "2", "--steps", "32") == 0
        blob = json.loads((tmp_path / "out" / "cost.json").read_text())
        assert blob["config"]["monte_carlo"]["M"] == 2
        assert blob["config"]["grid"]["N"] == 32


@pytest.mark.parametrize("form", ["strict", "relaxed"])
def test_negative_zero_candidate_is_a_grid_point(tmp_path, form):
    # example2_stochastic's U1 grid holds 0.0; -0.0 is the same point
    if form == "strict":
        control = {"type": "strict", "values": [[-0.0]] * 8}
    else:
        control = {"type": "relaxed", "cells": [{"atoms": [[-0.0]], "weights": [1.0]}] * 8}
    cfg = write_config(
        tmp_path, problem="example2_stochastic", grid={"N": 8}, candidate={"control": control}
    )
    assert run("cost", cfg, tmp_path / "out") == 0


_MUTABLE_FIELDS = [
    ("regression", "degree"),
    ("tolerances", "tol_H"),
    ("tolerances", "max_violation_fraction"),
    ("tolerances", "tol_S"),
    ("tolerances", "tol_F"),
    ("tolerances", "vi_allowance"),
    ("tolerances", "tol_Q"),
    ("monte_carlo", "seed"),
    ("monte_carlo", "M"),
    ("grid", "N"),
]
# integers and floats stay at or below 64, so no example allocates a large ensemble
_FIELD_VALUES = st.one_of(
    st.integers(-3, 64),
    st.floats(-2.0, 64.0),
    st.sampled_from(["abc", "", "0.1", "12", None, True, [], float("nan"), float("inf")]),
)
_CANDIDATE_NAMES = [
    "relaxed_pm1", "alternating:4", "alternating:7", "alternating:0", "alternating:x",
    "constant:1", "constant:-0.0", "constant:0.5", "constant:abc", "wiggle",
]
_SINGULAR_PARTS = ["none", "zeros", "too-wide", "relaxed"]


def _singular_obj(kind, rows):
    """A candidate's singular part with `rows` cells: valid zeros, too many
    columns for m = 1, or a control of the wrong type."""
    if kind == "zeros":
        return {"type": "singular", "increments": [[0.0]] * rows}
    if kind == "too-wide":
        return {"type": "singular", "increments": [[0.0, 0.0]] * rows}
    return {"type": "relaxed", "cells": [{"atoms": [[0.0]], "weights": [1.0]}] * rows}


@settings(max_examples=60, deadline=None)
@given(
    mutations=st.dictionaries(st.sampled_from(_MUTABLE_FIELDS), _FIELD_VALUES, max_size=3),
    name=st.sampled_from(_CANDIDATE_NAMES),
    command=st.sampled_from(["cost", "verify", "certify"]),
    singular=st.sampled_from(_SINGULAR_PARTS),
)
def test_mutated_cost_config_exits_cleanly(mutations, name, command, singular):
    cfg = {
        "problem": "example2_stochastic",
        "grid": {"N": 8},
        "monte_carlo": {"M": 4, "seed": 3},
        "regression": {"degree": 2},
        "tolerances": {},
        "candidate": {"name": name},
    }
    for (section, key), value in mutations.items():
        cfg[section][key] = value
    if singular != "none":
        steps = cfg["grid"]["N"]
        rows = steps if isinstance(steps, int) and steps >= 1 else 8
        cfg["candidate"]["singular"] = _singular_obj(singular, rows)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(cfg))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = run(command, path, Path(tmp) / "out")
    assert code in (0, 1, 2, 3)
    assert code != 1 or command in ("verify", "certify")
    assert "Traceback" not in err.getvalue()
    assert (code == 2) == err.getvalue().startswith("config error: ")


def write_exploding_problem(tmp_path):
    """A problem whose state leaves the finite range at the second step."""
    exploding = {
        "name": "exploding",
        "dims": {"n": 1, "d": 1, "k": 1, "m": 1},
        "horizon": 1.0,
        "x0": [1.0],
        "coefficients": {
            "drift": {"form": "affine", "state": [[1e160]]},
            "diffusion": {"form": "zero"},
            "singular_gain": {"form": "zero"},
            "running_cost": {"form": "zero"},
            "terminal_cost": {"form": "zero"},
            "singular_cost": {"form": "zero"},
        },
        "u1_grid": [[0.0]],
        "assumptions_box": {"low": [-2.0], "high": [2.0]},
    }
    problem_path = tmp_path / "exploding.json"
    problem_path.write_text(json.dumps(exploding))
    return problem_path


def test_blowup_exits_three(tmp_path):
    cfg = write_config(tmp_path, problem=str(write_exploding_problem(tmp_path)),
                       candidate={"name": "constant:0.0"})
    with np.errstate(over="ignore", invalid="ignore"):
        assert run("simulate", cfg, tmp_path / "out") == 3


def test_chatter_blowup_exits_three_and_joins_the_noise_thread(tmp_path, no_unreaped_children,
                                                            one_thread):
    # n = 32: 1 024 refined steps, four noise windows; the sweep stops in the
    # first while the forked noise producer waits to fill the third, and the
    # producer is killed and reaped
    cfg = write_config(tmp_path, problem=str(write_exploding_problem(tmp_path)),
                       candidate={"name": "constant:0.0"}, chatter={"n_values": [32]})
    threads = threading.active_count()
    with np.errstate(over="ignore", invalid="ignore"):
        assert run("chatter", cfg, tmp_path / "out") == 3
    [pid] = no_unreaped_children
    assert reaped(pid)
    assert threading.active_count() == threads


class TestInternalError:
    @pytest.fixture
    def crashing(self, tmp_path, monkeypatch):
        def crash(cfg, out):
            raise RuntimeError("kernel fault")

        monkeypatch.setitem(cli.COMMANDS, "cost", crash)
        cfg = write_config(tmp_path)
        return ["cost", "--config", str(cfg), "--out", str(tmp_path / "out")]

    def test_exits_four_with_one_line_and_no_traceback(self, crashing, capsys):
        assert cli.run(crashing) == 4
        err = capsys.readouterr().err
        assert err == "internal error: RuntimeError: kernel fault\n"

    def test_debug_prints_the_traceback(self, crashing, capsys):
        assert cli.run(crashing + ["--debug"]) == 4
        err = capsys.readouterr().err
        assert err.startswith("Traceback (most recent call last):")
        assert err.endswith("internal error: RuntimeError: kernel fault\n")

    def test_main_lets_the_exception_propagate(self, crashing):
        with pytest.raises(RuntimeError, match="kernel fault"):
            main(crashing)

    def test_a_failed_noise_worker_exits_four_without_traceback(
            self, tmp_path, monkeypatch, capsys, no_unreaped_children, one_thread):
        # n = 16: 512 refined steps in two noise windows, both filled by
        # the forked noise worker, whose second fill fails
        fill = model.NoiseStream.fill
        fills = []

        def failing(self, window):
            fills.append(window)
            if len(fills) == 2:
                raise RuntimeError("second window")
            fill(self, window)

        monkeypatch.setattr(model.NoiseStream, "fill", failing)
        cfg = write_config(tmp_path, candidate={"name": "relaxed_pm1"},
                           monte_carlo={"M": 16, "seed": 4}, chatter={"n_values": [16]})
        assert cli.run(["chatter", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 4
        err = capsys.readouterr().err
        assert err.startswith("internal error: OSError: noise of steps 256 to 511 was not drawn")
        assert err.endswith("exit status 1: RuntimeError: second window\n")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert fills == []  # every fill ran in the worker
        assert len(no_unreaped_children) == 1


def write_overflowing_problem(tmp_path):
    """A problem whose states stay finite near 1e306, so that their path sum
    over 400 paths overflows: the regression basis of the sweep's first knot
    has non-finite features."""
    overflowing = {
        "name": "overflowing",
        "dims": {"n": 1, "d": 1, "k": 1, "m": 1},
        "horizon": 1.0,
        "x0": [1e306],
        "coefficients": {
            "drift": {"form": "zero"},
            "diffusion": {"form": "affine", "state": [[[0.3]]]},
            "singular_gain": {"form": "zero"},
            "running_cost": {"form": "zero"},
            "terminal_cost": {"form": "zero"},
            "singular_cost": {"form": "zero"},
        },
        "u1_grid": [[0.0]],
        "assumptions_box": {"low": [-2.0], "high": [2.0]},
    }
    problem_path = tmp_path / "overflowing.json"
    problem_path.write_text(json.dumps(overflowing))
    return problem_path


class TestSweepFailures:
    """verify and certify step the backward sweep on model._ahead's worker
    (forked when the process runs one thread, else a thread)."""

    @pytest.mark.parametrize("command", ["verify", "certify"])
    def test_a_regression_error_in_the_worker_exits_three(
            self, tmp_path, capsys, no_unreaped_children, command, worker):
        # the RegressionError of the worker is raised again in the caller,
        # so the CLI prints the line that a sweep stepped in process printed
        cfg = write_config(tmp_path, problem=str(write_overflowing_problem(tmp_path)),
                           grid={"N": 20}, monte_carlo={"M": 400, "seed": 3},
                           candidate={"name": "constant:0.0"})
        with np.errstate(over="ignore", invalid="ignore"):
            code = cli.run([command, "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 3
        assert capsys.readouterr().err == (
            "numerical failure: regression produced non-finite features from the state; "
            "reduce the basis degree or check the problem's coefficients for overflow\n")
        assert len(no_unreaped_children) == (worker == "fork")
        assert all(reaped(pid) for pid in no_unreaped_children)

    def test_another_failure_of_the_forked_worker_exits_four(
            self, tmp_path, monkeypatch, capsys, no_unreaped_children, one_thread):
        step, caller = cli.adj._bsde_step, os.getpid()

        def failing(basis, lin, p_next):
            if lin.j == 17:
                raise RuntimeError("in the caller" if os.getpid() == caller else "knot 17")
            return step(basis, lin, p_next)

        monkeypatch.setattr(cli.adj, "_bsde_step", failing)
        cfg = write_config(tmp_path, problem="example2_stochastic", grid={"N": 20},
                           monte_carlo={"M": 64, "seed": 6}, candidate={"name": "relaxed_pm1"})
        assert cli.run(["certify", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 4
        assert capsys.readouterr().err == (
            "internal error: OSError: knot 17 of the backward sweep was not computed: the "
            "process computing it ended with exit status 1: RuntimeError: knot 17\n")
        [pid] = no_unreaped_children
        assert reaped(pid)

    @pytest.mark.parametrize("command", ["verify", "certify"])
    def test_a_nonfinite_hamiltonian_exits_three(self, tmp_path, monkeypatch, capsys, command):
        # the running cost is infinite at the grid point 0, which relaxed_pm1
        # does not play, so certify's probe of x -> H stays finite
        base = model.builtin_problem("example2_stochastic")

        def h(t, x, a):
            return base.h(t, x, a) + (np.inf if a[0] == 0.0 else 0.0)

        monkeypatch.setattr(cli, "load_problem", lambda cfg: base.with_overrides(h=h))
        cfg = write_config(tmp_path, problem="example2_stochastic", grid={"N": 20},
                           monte_carlo={"M": 64, "seed": 6}, candidate={"name": "relaxed_pm1"})
        assert cli.run([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 3
        assert capsys.readouterr().err == (
            "numerical failure: Hamiltonian is not finite on the candidate grid at knot 19\n")


class TestReproducibility:
    @pytest.mark.parametrize("command,extra", [
        ("simulate", {}),
        ("cost", {}),
        ("verify", {"problem": "example2_separated", "grid": {"N": 50},
                    "monte_carlo": {"M": 8, "seed": 3}, "regression": {"degree": 1},
                    "candidate": {"name": "relaxed_pm1"}}),
        ("chatter", {"candidate": {"name": "relaxed_pm1"},
                     "monte_carlo": {"M": 16, "seed": 4},
                     "chatter": {"n_values": [4]}}),
    ])
    def test_reruns_are_bit_identical(self, tmp_path, command, extra):
        cfg = write_config(tmp_path, **extra)
        run(command, cfg, tmp_path / "a")
        run(command, cfg, tmp_path / "b")
        files_a = sorted(p.name for p in (tmp_path / "a").iterdir())
        files_b = sorted(p.name for p in (tmp_path / "b").iterdir())
        assert files_a == files_b
        for name in files_a:
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes(), name
