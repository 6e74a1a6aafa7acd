"""Golden artefacts: small runs of every command that writes numbers must
keep writing the bytes they wrote before.

Criterion 11 compares reruns of one version with each other; these digests
pin the artefacts across versions.  They were recorded with numpy 2.4 on
x86-64.  A change that is meant to alter the numbers must re-record them,
and say so; another numpy or BLAS build may also round differently, in
which case the digests are re-recorded from an unchanged checkout first.

The certify, verify and three adjoint_planar digests were re-recorded when
the adjoint regressions moved from lstsq on raw monomials to one centred
orthonormal basis per knot: the adjoint changed in its last bits, every
verdict stayed the same, and adjoint_diagnostics.json gained the keys
max_rank_loss and max_basis_cond.

adjoint_planar-diagnostics alone was re-recorded when the explicit route
became the pathwise discrete adjoint: its method_agreement_rms moved from
0.025940900742035006 to 0.024749834677905366, and the inverse_defect key
went, since no output of the adjoint command depends on the fundamental
pair any more.  adjoint_p.bin and adjoint_P.bin come from the backward
sweep and kept their bytes.

adjoint_planar-diagnostics alone was re-recorded again when the explicit
route came to step with the transposed Euler Jacobian of
sde._linearization, lam_j = J_j^T lam_{j+1} + hbar_x dt, instead of the
Hamiltonian gradient at P = lam_{j+1} dW_j^T / dt: the two agree up to
rounding, and method_agreement_rms moved from 0.024749834677905366 to
0.024749834677905362.  The other digests kept their bytes.

When verify and certify came to check the conditions inside the backward
sweep, their per-path sums (the first-order value and the flat-off mass)
came to run from knot N-1 down to 0.  At these runs' size that order gives
the same floats, so no digest was re-recorded: the VI statistic reads
-0.050588704517044024 with se 0.023422654558221623 in both orders (on the
certify benchmark workload, seed 7, it moved from -0.0028702124012978674 to
-0.002870212401297867, se 0.004483455070384974 to 0.004483455070384973).
"""

import hashlib
import json

import pytest

from conftest import planar_config
from singopt.cli import main

CONFIG = {
    "problem": "example2_stochastic",
    "grid": {"N": 20},
    "monte_carlo": {"M": 400, "seed": 5},
    "candidate": {"name": "relaxed_pm1"},
}

# The planar problem is read from a file in the working directory, so the
# echoed config holds no machine path.  The candidate is the constant
# two-atom measure of the adjoint_planar benchmark workload.
PLANAR = {
    "problem": "planar.json",
    "grid": {"N": 20},
    "monte_carlo": {"M": 200, "seed": 5},
    "candidate": {"control": {
        "type": "relaxed",
        "cells": [{"atoms": [[1.0, 0.0], [0.0, -1.0]], "weights": [0.5, 0.5]}] * 20,
    }},
}

# run: (command, config, exit code).  relaxed_pm1 fails
# hamiltonian-minimality on example2_stochastic, so verify and certify exit 1.
RUNS = {
    "certify": ("certify", CONFIG, 1),
    "verify": ("verify", CONFIG, 1),
    "simulate": ("simulate", CONFIG, 0),
    "chatter": ("chatter", {**CONFIG, "chatter": {"n_values": [2, 4]}}, 0),
    "adjoint_planar": ("adjoint", PLANAR, 0),
}

GOLDEN = {
    "certify": ("certify", "certificate.json",
                "bfc4861c337894d46622937dfe3fa1283add393d0fdadd0e3a97fd53fd60fe2e"),
    "verify": ("verify", "verify_report.json",
               "935cfb214c7b442e8576aaa2af9fd0730c36d1b9fd0584e597a4ba3d06b2c2be"),
    "simulate": ("simulate", "trajectory.bin",
                 "fa9993ca973d6a3c9b34ac8d27ca5ca1ee089ac5fe6c481faf46ea05f019da57"),
    "chatter": ("chatter", "chatter.json",
                "5af260e2ea6e5179afe64b535e61634d30342d149e7701ea2b9634a0ddbf9147"),
    "adjoint_planar-p": ("adjoint_planar", "adjoint_p.bin",
                         "df354148a7a3d45c480f36c553f80b142bbe744dfcb1fe5c49a86e9c71dfdeb1"),
    "adjoint_planar-P": ("adjoint_planar", "adjoint_P.bin",
                         "7034c6c4c6ba0527cb48e9bff044a2a096af6bcf61c2ce2bff63c2e427ceb1c2"),
    "adjoint_planar-diagnostics": ("adjoint_planar", "adjoint_diagnostics.json",
                                   "43f61681dc9fbfe72efda01ffbb5528b9b2ecd2f2b1059f7fa3af8294ceb3973"),
}


@pytest.mark.parametrize("run, artefact, digest", GOLDEN.values(), ids=list(GOLDEN))
def test_artefact_matches_recorded_digest(tmp_path, monkeypatch, run, artefact, digest):
    command, config, exit_code = RUNS[run]
    monkeypatch.chdir(tmp_path)
    (tmp_path / "planar.json").write_text(json.dumps(planar_config()))
    (tmp_path / "cfg.json").write_text(json.dumps(config))
    assert main([command, "--config", "cfg.json", "--out", "out"]) == exit_code
    assert hashlib.sha256((tmp_path / "out" / artefact).read_bytes()).hexdigest() == digest
