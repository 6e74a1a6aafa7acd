"""Acceptance suite: eleven numbered criteria, one printed line each.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they pass.
Every tolerance is pinned here, not configured elsewhere; statistical checks
run at fixed seeds so the whole suite is reproducible bit for bit.
"""

import json
import time
import zlib
from pathlib import Path

import numpy as np
import pytest

import oracles
from singopt.adjoint import adjoint_bsde, adjoint_routes, duality_residual
from singopt.cli import main as cli_main
from singopt.controls import (
    SingularControl,
    constant_relaxed,
    constant_strict,
    convex_combine,
    dirac_embed,
    zero_singular,
)
from singopt.model import NoiseBatch, TimeGrid, builtin_problem
from singopt.optimality import certify_sufficient, verify_necessary
from singopt.sde import (
    chattering_gap,
    estimate_cost,
    simulate_relaxed,
)

RESULTS = []


def report(num, ok, detail):
    line = f"criterion {num:>2} [{'PASS' if ok else 'FAIL'}] {detail}"
    RESULTS.append(line)
    print(line)
    assert ok, line


def run_cli(command, cfg, tmp_path, tag):
    cfg_path = tmp_path / f"{tag}.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / tag
    code = cli_main([command, "--config", str(cfg_path), "--out", str(out)])
    return code, out


def cost_config(problem, candidate, N, M, seed, **extra):
    cfg = {
        "problem": problem,
        "grid": {"N": N},
        "monte_carlo": {"M": M, "seed": seed},
        "candidate": candidate,
    }
    cfg.update(extra)
    return cfg


def read_cost(out):
    return json.loads((out / "cost.json").read_text())["cost"]


def test_criterion_01_example1_chattering_cost_bound(tmp_path):
    t0 = time.monotonic()
    values = {}
    for n in (4, 8, 16):
        cfg = cost_config("example1", {"name": f"alternating:{n}"}, 256, 2, 1)
        code, out = run_cli("cost", cfg, tmp_path, f"c1_n{n}")
        assert code == 0
        values[n] = read_cost(out)["value"]
    elapsed = time.monotonic() - t0
    bound_ok = all(values[n] <= 1.0 / n ** 2 + 1e-6 for n in values)
    ratios = [values[4] / values[8], values[8] / values[16]]
    ratio_ok = all(3.0 <= r <= 5.0 for r in ratios)
    # cross-check against the closed-form ramp quadrature oracle
    oracle_ok = all(
        abs(values[n] - oracles.alternating_cost_on_grid(n, 256)) <= 1e-12 for n in values
    )
    report(
        1,
        bound_ok and ratio_ok and oracle_ok and elapsed < 1.0,
        f"block-control costs {[round(values[n], 6) for n in (4, 8, 16)]} <= 1/n^2, "
        f"ratios {[round(r, 3) for r in ratios]} in [3,5], {elapsed:.2f}s",
    )


def test_criterion_02_example1_relaxed_optimum(tmp_path):
    cfg = cost_config("example1", {"name": "relaxed_pm1"}, 256, 2, 1)
    code, out = run_cli("cost", cfg, tmp_path, "c2")
    relaxed_cost = read_cost(out)["value"]
    cfg16 = cost_config("example1", {"name": "alternating:16"}, 256, 2, 1)
    _, out16 = run_cli("cost", cfg16, tmp_path, "c2_n16")
    strict16 = read_cost(out16)["value"]
    ok = code == 0 and abs(relaxed_cost) <= 1e-12 and strict16 <= 1.0 / 256 + 1e-6
    report(
        2, ok,
        f"relaxed two-point optimum cost {relaxed_cost!r} (<= 1e-12); "
        f"16-block strict cost {strict16:.3e} approaches it within the criterion-1 bound",
    )


def test_criterion_03_example2_stochastic_relaxed_cost(tmp_path):
    t0 = time.monotonic()
    cfg = cost_config("example2_stochastic", {"name": "relaxed_pm1"}, 100, 10_000, 2024)
    code, out = run_cli("cost", cfg, tmp_path, "c3")
    blob = read_cost(out)
    elapsed = time.monotonic() - t0
    err = abs(blob["value"] - 0.5)
    ok = code == 0 and err <= 3.0 * blob["std_error"] and elapsed < 10.0
    report(
        3, ok,
        f"relaxed cost {blob['value']:.4f} within 3 se ({blob['std_error']:.4f}) "
        f"of 0.5, {elapsed:.1f}s",
    )


def test_criterion_04_variational_consistency():
    spec = builtin_problem("example2_stochastic")
    grid = TimeGrid(100, 1.0)
    noise = NoiseBatch.generate(2000, grid, 1, 41)
    base = (constant_relaxed(grid, [[-1.0], [1.0]], [0.5, 0.5]), zero_singular(grid, 1))
    direction = (dirac_embed(constant_strict(grid, [1.0])), zero_singular(grid, 1))
    traj = simulate_relaxed(spec, *base, noise)
    from singopt.sde import simulate_variational

    z = simulate_variational(traj, direction)
    stats = []
    for theta in (1e-1, 1e-2, 1e-3):
        mixed = convex_combine(base, direction, theta)
        xt = simulate_relaxed(spec, *mixed, noise)
        stats.append(
            float((((xt.states - traj.states) / theta - z.z) ** 2).sum(axis=2).mean(axis=0).max())
        )
    # the comparison is non-vacuous: the sensitivity being validated is far
    # from zero (the direction shifts the drift by one unit)
    nontrivial = float(np.abs(z.z).max()) > 0.1
    if max(stats) <= 1e-18:
        # this problem's dynamics are affine in the control measure, so the
        # difference quotient equals the sensitivity identically: the limit
        # the statistic is meant to evidence is attained exactly, and the
        # decade-ratio window has no nonzero remainder to measure
        report(
            4, nontrivial,
            f"difference quotient equals the (nonzero) sensitivity to machine "
            f"precision (statistics {[f'{s:.1e}' for s in stats]}); decay-ratio "
            f"window inapplicable",
        )
    else:
        ratios = [stats[0] / stats[1], stats[1] / stats[2]]
        ok = nontrivial and stats[0] > stats[1] > stats[2] and all(
            3.0 <= r <= 30.0 for r in ratios
        )
        report(4, ok, f"statistics {stats}, decade ratios {ratios}")


def test_criterion_05_duality_identity():
    # stochastic case at 10^4 paths
    spec = builtin_problem("example2_stochastic")
    grid = TimeGrid(100, 1.0)
    noise = NoiseBatch.generate(10_000, grid, 1, 51)
    base = (constant_relaxed(grid, [[-1.0], [1.0]], [0.5, 0.5]), zero_singular(grid, 1))
    direction = (dirac_embed(constant_strict(grid, [1.0])), zero_singular(grid, 1))
    traj = simulate_relaxed(spec, *base, noise)
    res, se = duality_residual(traj, direction)
    stoch_ok = res <= 3.0 * se
    # deterministic built-ins against the adaptive-integrator oracle
    det_details, det_ok = [], True
    for name in ("example1", "example2_separated", "singular_block"):
        dspec = builtin_problem(name)
        dgrid = TimeGrid(100, 1.0)
        dnoise = NoiseBatch.generate(4, dgrid, 1, 5)
        if name == "singular_block":
            mu = dirac_embed(constant_strict(dgrid, [0.0]))
            inc = np.zeros((100, 1))
            inc[10, 0] = 1.0
            ddir = (mu, SingularControl(dgrid, inc))
        else:
            mu = constant_relaxed(dgrid, [[-1.0], [1.0]], [0.5, 0.5])
            ddir = (dirac_embed(constant_strict(dgrid, [1.0])), zero_singular(dgrid, 1))
        dbase = (mu, zero_singular(dgrid, 1))
        dtraj = simulate_relaxed(dspec, *dbase, dnoise)
        dres, _ = duality_residual(dtraj, ddir)
        # all built-ins have zero terminal gradient, so the oracle value of
        # both sides is exactly zero; the residual must sit at grid error
        allowance = 1e-6 + 5.0 * dgrid.dt
        det_ok = det_ok and dres <= allowance
        det_details.append(f"{name}:{dres:.1e}")
    report(
        5, stoch_ok and det_ok,
        f"stochastic residual {res:.2e} <= 3 se ({se:.2e}); deterministic "
        f"residuals vs oracle {', '.join(det_details)} within 1e-6 + 5 dt",
    )


def test_criterion_06_adjoint_closed_form():
    spec = builtin_problem("example2_stochastic")
    grid = TimeGrid(100, 1.0)
    noise = NoiseBatch.generate(10_000, grid, 1, 61)
    mu = dirac_embed(constant_strict(grid, [0.0]))
    xi = zero_singular(grid, 1)
    traj = simulate_relaxed(spec, mu, xi, noise)
    expl, bsde = adjoint_routes(traj, degree=1)
    p_oracle = 2.0 * traj.states[:, :, 0] * (1.0 - grid.knots)[None, :]
    P_oracle = np.broadcast_to(2.0 * (1.0 - grid.knots), bsde.P[:, :, 0, 0].shape).copy()
    P_oracle[:, -1] = 0.0
    rmse_pe = float(np.sqrt(np.mean((expl.p[:, :, 0] - p_oracle) ** 2)))
    rmse_pb = float(np.sqrt(np.mean((bsde.p[:, :, 0] - p_oracle) ** 2)))
    rmse_P = float(np.sqrt(np.mean((bsde.P[:, :, 0, 0] - P_oracle) ** 2)))
    agree = float(np.sqrt(np.mean((expl.p - bsde.p) ** 2)))
    ok = max(rmse_pe, rmse_pb, rmse_P, agree) <= 5e-2
    report(
        6, ok,
        f"p rmse explicit {rmse_pe:.3f} / backward {rmse_pb:.3f}, P rmse {rmse_P:.3f}, "
        f"route agreement {agree:.3f}, all <= 0.05",
    )


def test_criterion_07_necessary_condition_verdicts():
    spec = builtin_problem("example2_separated")
    grid = TimeGrid(100, 1.0)
    noise = NoiseBatch.generate(16, grid, 1, 71)
    xi = zero_singular(grid, 1)

    mu = constant_relaxed(grid, [[-1.0], [1.0]], [0.5, 0.5])
    traj = simulate_relaxed(spec, mu, xi, noise)
    pair = adjoint_bsde(traj, degree=1)
    good = verify_necessary(pair)
    good_mini = next(c for c in good.conditions if c.condition_id == "hamiltonian-minimality")

    v0 = dirac_embed(constant_strict(grid, [0.0]))
    traj0 = simulate_relaxed(spec, v0, xi, noise)
    pair0 = adjoint_bsde(traj0, degree=1)
    bad = verify_necessary(pair0)
    bad_mini = next(c for c in bad.conditions if c.condition_id == "hamiltonian-minimality")

    ok = (
        good.passed
        and good_mini.statistic <= 1e-9
        and "fraction 0" in good_mini.detail
        and not bad.passed
        and abs(bad_mini.statistic - 1.0) <= 1e-9
    )
    report(
        7, ok,
        f"two-point optimum passes (gap {good_mini.statistic:.1e}, fraction 0); "
        f"zero control fails with gap {bad_mini.statistic:.6f} = 1 +- 1e-9",
    )


def test_criterion_08_singular_conditions_and_cost_gap():
    kappa = 1.0
    spec = builtin_problem("singular_block", kappa=kappa)
    grid = TimeGrid(100, 1.0)
    noise = NoiseBatch.generate(8, grid, 1, 81)
    v0 = dirac_embed(constant_strict(grid, [0.0]))
    flat = zero_singular(grid, 1)
    traj = simulate_relaxed(spec, v0, flat, noise)
    pair = adjoint_bsde(traj, degree=1)
    clean = verify_necessary(pair)
    by_id = {c.condition_id: c for c in clean.conditions}
    clean_ok = by_id["nonnegativity"].passed and by_id["flat-off"].passed

    inc = np.zeros((100, 1))
    inc[30, 0] = 1.0
    xi = SingularControl(grid, inc)
    traj_inj = simulate_relaxed(spec, v0, xi, noise)
    pair_inj = adjoint_bsde(traj_inj, degree=1)
    injected = verify_necessary(pair_inj)
    inj_flat = next(c for c in injected.conditions if c.condition_id == "flat-off")

    base_cost = estimate_cost(traj)
    inj_cost = estimate_cost(traj_inj)
    gap = inj_cost.value - base_cost.value
    margin = 3.0 * (base_cost.std_error + inj_cost.std_error)
    ok = clean_ok and not inj_flat.passed and gap >= kappa - margin
    report(
        8, ok,
        f"flat candidate passes slack/flat-off; unit increment flagged "
        f"(mass {inj_flat.statistic:.1f}) and costs {gap:.3f} more (>= kappa - 3 se)",
    )


def test_criterion_09_certified_candidates_beat_competitors():
    cases = []
    for name, control in (
        ("example1", "pm1"),
        ("example2_separated", "pm1"),
        ("singular_block", "zero"),
    ):
        spec = builtin_problem(name)
        grid = TimeGrid(100, 1.0)
        noise = NoiseBatch.generate(4, grid, 1, 91)
        if control == "pm1":
            mu = constant_relaxed(grid, [[-1.0], [1.0]], [0.5, 0.5])
        else:
            mu = dirac_embed(constant_strict(grid, [0.0]))
        xi = zero_singular(grid, 1)
        traj = simulate_relaxed(spec, mu, xi, noise)
        pair = adjoint_bsde(traj, degree=1)
        cert = certify_sufficient(pair)
        assert cert.certified, f"{name} candidate unexpectedly not certified"
        base = estimate_cost(traj)
        rng = np.random.default_rng(zlib.crc32(name.encode()))
        beaten = 0
        for _ in range(200):
            v, eta = oracles.random_competitor(spec, grid, rng)
            ctraj = simulate_relaxed(spec, v, eta, noise)
            comp = estimate_cost(ctraj)
            if comp.value < base.value - 3.0 * (base.std_error + comp.std_error):
                beaten += 1
        cases.append((name, beaten))
    ok = all(beaten == 0 for _, beaten in cases)
    report(
        9, ok,
        "certified candidates undefeated by 200 random competitors each: "
        + ", ".join(f"{n} ({b} better)" for n, b in cases),
    )


def test_criterion_10_chattering_stability():
    t0 = time.monotonic()
    spec = builtin_problem("example2_stochastic")
    grid = TimeGrid(100, 1.0)
    mu = constant_relaxed(grid, [[-1.0], [1.0]], [0.5, 0.5])
    eta = zero_singular(grid, 1)
    row4 = chattering_gap(spec, mu, eta, 4, 4000, 77)
    row64 = chattering_gap(spec, mu, eta, 64, 4000, 77)
    elapsed = time.monotonic() - t0
    gap4, gap64 = row4["traj_gap"], row64["traj_gap"]
    cost_ok = row64["cost_gap"] <= row4["cost_gap"] + 3.0 * (
        row4["cost_gap_se"] + row64["cost_gap_se"]
    )
    ok = gap64 <= gap4 / 4.0 and cost_ok and elapsed < 30.0
    report(
        10, ok,
        f"sup-mean-square gap falls from {gap4:.2e} (n=4) to {gap64:.2e} (n=64), "
        f"factor {gap4 / gap64:.0f} >= 4; cost gap {row4['cost_gap']:.1e} -> "
        f"{row64['cost_gap']:.1e} within 3 se, {elapsed:.1f}s",
    )


def test_criterion_11_bit_identical_reruns(tmp_path):
    runs = [
        ("cost", cost_config("example1", {"name": "alternating:8"}, 256, 2, 1)),
        ("simulate", cost_config("example2_stochastic", {"name": "relaxed_pm1"}, 50, 64, 7)),
        ("verify", cost_config(
            "example2_separated", {"name": "relaxed_pm1"}, 50, 8, 3,
            regression={"degree": 1},
        )),
        ("chatter", cost_config(
            "example1", {"name": "relaxed_pm1"}, 64, 16, 4, chatter={"n_values": [4, 8]}
        )),
    ]
    mismatches = []
    for command, cfg in runs:
        _, out_a = run_cli(command, cfg, tmp_path, f"{command}_a")
        _, out_b = run_cli(command, cfg, tmp_path, f"{command}_b")
        for path_a in sorted(Path(out_a).iterdir()):
            path_b = Path(out_b) / path_a.name
            if path_a.read_bytes() != path_b.read_bytes():
                mismatches.append(f"{command}/{path_a.name}")
    report(
        11, not mismatches,
        "reruns byte-identical across cost/simulate/verify/chatter"
        + (f"; mismatches: {mismatches}" if mismatches else ""),
    )


def test_zz_summary():
    print("\n----- acceptance summary -----")
    for line in RESULTS:
        print(line)
    assert len(RESULTS) == 11
