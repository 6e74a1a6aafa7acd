"""Golden artefacts: small runs of every command that writes numbers must
keep writing the bytes they wrote before.

Criterion 11 compares reruns of one version with each other; these digests
pin the artefacts across versions.  They were recorded with numpy 2.4 on
x86-64.  A change that is meant to alter the numbers must re-record them,
and say so; another numpy or BLAS build may also round differently, in
which case the digests are re-recorded from an unchanged checkout first.
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
                "8beefa1303668c98b1d2d26db7186ac513a8c15c9e0abeaa701156b545c26e0d"),
    "verify": ("verify", "verify_report.json",
               "48d77ed547271a70700844b1d88d014e5723533259e21d349b892524a049bcd3"),
    "simulate": ("simulate", "trajectory.bin",
                 "fa9993ca973d6a3c9b34ac8d27ca5ca1ee089ac5fe6c481faf46ea05f019da57"),
    "chatter": ("chatter", "chatter.json",
                "5af260e2ea6e5179afe64b535e61634d30342d149e7701ea2b9634a0ddbf9147"),
    "adjoint_planar-p": ("adjoint_planar", "adjoint_p.bin",
                         "0ac4f6d1134cfe1662d1e7801c225a60abf17341849787271f310e0ee663bccb"),
    "adjoint_planar-P": ("adjoint_planar", "adjoint_P.bin",
                         "b1fe36b486a92077f5507a6cc7b9a40e25006eb6dfa9b40e3d668e39c81402ff"),
    "adjoint_planar-diagnostics": ("adjoint_planar", "adjoint_diagnostics.json",
                                   "e895b9c389cc3e20c269d904e5a8e9fe1fbebd67d886f87d47113288c9fff5b8"),
}


@pytest.mark.parametrize("run, artefact, digest", GOLDEN.values(), ids=list(GOLDEN))
def test_artefact_matches_recorded_digest(tmp_path, monkeypatch, run, artefact, digest):
    command, config, exit_code = RUNS[run]
    monkeypatch.chdir(tmp_path)
    (tmp_path / "planar.json").write_text(json.dumps(planar_config()))
    (tmp_path / "cfg.json").write_text(json.dumps(config))
    assert main([command, "--config", "cfg.json", "--out", "out"]) == exit_code
    assert hashlib.sha256((tmp_path / "out" / artefact).read_bytes()).hexdigest() == digest
