"""Hamiltonian evaluation and first-order optimality verification.

The strict Hamiltonian is H(t, x, v, p, P) = h + b . p + sigma : P (the
diffusion pairs with P column by column); the relaxed Hamiltonian is its
measure average and is therefore linear in the weights, so its infimum over
all discrete measures on the candidate grid is attained at a point mass.
Both are evaluated over a batch of paths; a single point is a batch of one.

verify_necessary checks a candidate against the three global first-order
conditions: pointwise Hamiltonian minimality over the candidate grid,
nonnegativity of the singular slack k + G^T p, and the flat-off complement
(singular increments only where the slack vanishes).  certify_sufficient
additionally gathers convexity evidence for the terminal cost and for the
state-to-Hamiltonian map, which upgrades the necessary conditions to a
sufficiency certificate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .controls import ControlError, StrictControl, as_relaxed, dirac_embed, zero_singular
from .model import ProblemSpec, TimeGrid, ensemble_zeros
from .sde import TrajectoryEnsemble, _cell_average


@dataclass(frozen=True)
class Tolerances:
    """Pointwise condition tolerances; all configurable, echoed in reports.

    The minimality gap at a point passes when it is at most
    tol_H * (1 + |H|); the candidate passes when at most
    max_violation_fraction of all (path, knot) points violate.
    """

    tol_H: float = 1e-3
    max_violation_fraction: float = 0.01
    tol_S: float = 1e-6
    tol_F: float = 1e-9
    vi_allowance: float = 1e-6

    def as_dict(self) -> dict:
        return {
            "tol_H": self.tol_H,
            "max_violation_fraction": self.max_violation_fraction,
            "tol_S": self.tol_S,
            "tol_F": self.tol_F,
            "vi_allowance": self.vi_allowance,
        }


def strict_hamiltonian_batch(spec, t, x, v, p, P):
    """H over a path batch: x (M, n), p (M, n), P (M, n, d) -> (M,)."""
    M = x.shape[0]
    h = np.broadcast_to(np.asarray(spec.h(t, x, v), dtype=float), (M,))
    b = np.broadcast_to(np.asarray(spec.b(t, x, v), dtype=float), (M, spec.n))
    sig = np.broadcast_to(np.asarray(spec.sigma(t, x, v), dtype=float), (M, spec.n, spec.d))
    return h + np.einsum("mp,mp->m", b, p) + np.einsum("mpj,mpj->m", sig, P)


def relaxed_hamiltonian_batch(spec, t, x, atoms, weights, p, P):
    """Measure-averaged Hamiltonian over a path batch -> (M,)."""
    return _cell_average(lambda tt, xx, a: strict_hamiltonian_batch(spec, tt, xx, a, p, P),
                         t, x, atoms, weights)


def relaxed_hamiltonian_gradient(spec, t, x, atoms, weights, p, P):
    """Measure-averaged H_x = hbar_x + bbar_x^T p + sum_i sbar_x,i^T P_i over
    a path batch -> (M, n)."""
    M = x.shape[0]
    hx = np.broadcast_to(_cell_average(spec.h_x, t, x, atoms, weights), (M, spec.n))
    bx = np.broadcast_to(_cell_average(spec.b_x, t, x, atoms, weights), (M, spec.n, spec.n))
    sx = np.broadcast_to(
        _cell_average(spec.sigma_x, t, x, atoms, weights), (M, spec.d, spec.n, spec.n)
    )
    return hx + np.einsum("mqp,mq->mp", bx, p) + np.einsum("mjqp,mqj->mp", sx, P)


def _grid_argmin(u1_grid, values) -> np.ndarray:
    """The grid point of least value; exact ties resolve to the
    lexicographically smallest point."""
    tied = u1_grid[values == values.min()]
    return np.array(min(map(tuple, tied.tolist())))


def minimize_hamiltonian(spec: ProblemSpec, t: float, x, p, P) -> tuple:
    """Exhaustive Hamiltonian minimum over the candidate grid at one point:
    x (n,), p (n,), P (n, d).

    By linearity in the measure weights this value is also the infimum over
    all discrete measures on the grid.  Exact ties resolve to the
    lexicographically smallest grid point.
    """
    x = np.asarray(x, dtype=float).reshape(1, spec.n)
    p = np.asarray(p, dtype=float).reshape(1, spec.n)
    P = np.asarray(P, dtype=float).reshape(1, spec.n, spec.d)
    values = np.array([strict_hamiltonian_batch(spec, t, x, v, p, P)[0] for v in spec.u1_grid])
    return _grid_argmin(spec.u1_grid, values), float(values.min())


# ---------------------------------------------------------------------------
# verification reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConditionRecord:
    condition_id: str
    passed: bool
    statistic: float
    threshold: float
    std_error: float | None
    detail: str

    def as_dict(self) -> dict:
        return {
            "id": self.condition_id,
            "passed": self.passed,
            "statistic": self.statistic,
            "threshold": self.threshold,
            "std_error": self.std_error,
            "detail": self.detail,
        }


@dataclass(frozen=True)
class VerificationReport:
    conditions: tuple
    config: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.conditions)

    def as_dict(self) -> dict:
        return {
            "passed": self.passed,
            "conditions": [c.as_dict() for c in self.conditions],
            "config": self.config,
        }

    def __str__(self):
        lines = [
            f"[{'pass' if c.passed else 'FAIL'}] {c.condition_id}: {c.detail}"
            for c in self.conditions
        ]
        lines.append(f"overall: {'pass' if self.passed else 'FAIL'}")
        return "\n".join(lines)


@dataclass(frozen=True)
class ConvexityRecord:
    subject: str
    passed: bool
    evidence: str

    def as_dict(self) -> dict:
        return {"subject": self.subject, "passed": self.passed, "evidence": self.evidence}


@dataclass(frozen=True)
class SufficiencyCertificate:
    convexity: tuple
    report: VerificationReport
    certified: bool

    def as_dict(self) -> dict:
        return {
            "certified": self.certified,
            "convexity": [c.as_dict() for c in self.convexity],
            "conditions": self.report.as_dict(),
        }


def _minimality_scan(spec, mu, adjoint, traj, grid, tol):
    """Per-(path, knot) Hamiltonian gap of the candidate above the grid
    minimum.  Returns (worst gap, violating fraction, per-cell mean argmin)."""
    M = traj.num_paths
    N = grid.num_steps
    knots = grid.knots
    P = adjoint.P
    if P is None:
        P = ensemble_zeros(M, N + 1, spec.n, spec.d)
    worst = 0.0
    violations = 0
    argmin_cells = np.empty((N, spec.k))
    for j in range(N):
        xj = traj.states[:, j, :]
        pj = adjoint.p[:, j, :]
        Pj = P[:, j]
        cand = relaxed_hamiltonian_batch(spec, knots[j], xj, mu.atoms[j], mu.weights[j], pj, Pj)
        grid_vals = np.stack(
            [strict_hamiltonian_batch(spec, knots[j], xj, v, pj, Pj) for v in spec.u1_grid]
        )
        best = grid_vals.min(axis=0)
        gap = cand - best
        thr = tol.tol_H * (1.0 + np.abs(cand))
        violations += int(np.count_nonzero(gap > thr))
        worst = max(worst, float(gap.max()))
        # deterministic representative direction: argmin of the path-mean values
        argmin_cells[j] = _grid_argmin(spec.u1_grid, grid_vals.mean(axis=1))
    fraction = violations / float(M * N)
    return worst, fraction, argmin_cells


def verify_necessary(
    spec: ProblemSpec,
    candidate: tuple,
    adjoint,
    traj: TrajectoryEnsemble,
    grid: TimeGrid,
    tolerances: Tolerances = Tolerances(),
    config_echo: dict | None = None,
) -> VerificationReport:
    """Check the global first-order necessary conditions for a candidate.

    candidate is a (control, singular) pair; the adjoint must have been
    computed for this candidate on the same trajectory ensemble.  The
    integral first-order inequality is evaluated toward the pointwise
    Hamiltonian argmin.
    """
    if adjoint is None:
        raise ValueError("verify_necessary requires the candidate's adjoint pair")
    control, xi = candidate
    mu = as_relaxed(control)
    records = []

    worst, fraction, argmin_cells = _minimality_scan(spec, mu, adjoint, traj, grid, tolerances)
    records.append(
        ConditionRecord(
            "hamiltonian-minimality",
            fraction <= tolerances.max_violation_fraction,
            worst,
            tolerances.tol_H,
            None,
            f"worst gap {worst:.3g}, violating fraction {fraction:.3g} "
            f"(allowed {tolerances.max_violation_fraction:g})",
        )
    )

    M = traj.num_paths
    N = grid.num_steps
    knots = grid.knots
    slack = ensemble_zeros(M, N, spec.m)
    for j in range(N):
        slack[:, j, :] = spec.k_cost(knots[j]) + np.einsum(
            "pq,mp->mq", spec.G(knots[j]), adjoint.p[:, j, :]
        )
    min_slack = float(slack.min())
    records.append(
        ConditionRecord(
            "nonnegativity",
            min_slack >= -tolerances.tol_S,
            min_slack,
            -tolerances.tol_S,
            None,
            f"min component of k + G^T p = {min_slack:.3g} (tolerance -{tolerances.tol_S:g})",
        )
    )

    flagged = slack > tolerances.tol_S
    per_path = np.einsum("mjq,jq->m", flagged.astype(float), xi.increments)
    worst_mass = float(per_path.max()) if M else 0.0
    records.append(
        ConditionRecord(
            "flat-off",
            worst_mass <= tolerances.tol_F,
            worst_mass,
            tolerances.tol_F,
            None,
            f"max per-path increment mass where slack > {tolerances.tol_S:g} "
            f"is {worst_mass:.3g}",
        )
    )

    direction = (dirac_embed(StrictControl(grid, argmin_cells)), zero_singular(grid, spec.m))
    # imported here: adjoint depends on this module for Hamiltonian evaluation
    from .adjoint import variational_inequality_value

    value, se = variational_inequality_value(spec, (mu, xi), direction, adjoint, traj, grid)
    bound = -(3.0 * se + tolerances.vi_allowance)
    records.append(
        ConditionRecord(
            "variational-inequality[pointwise-argmin]",
            value >= bound,
            value,
            bound,
            se,
            f"first-order value {value:.3g} toward 'pointwise-argmin' (>= {bound:.3g})",
        )
    )

    return VerificationReport(tuple(records), dict(config_echo or {}))


# ---------------------------------------------------------------------------
# sufficiency
# ---------------------------------------------------------------------------

def _psd(matrix, tol=1e-12):
    return bool(np.linalg.eigvalsh(np.asarray(matrix, dtype=float)).min() >= -tol)


def _midpoint_probe(fn, lo, hi, rng, pairs, tol):
    """Midpoint convexity probe: fn((x+y)/2) <= (fn(x)+fn(y))/2 + tol."""
    xs = rng.uniform(lo, hi, size=(pairs, len(lo)))
    ys = rng.uniform(lo, hi, size=(pairs, len(lo)))
    mid = 0.5 * (xs + ys)
    defect = np.asarray(fn(mid)) - 0.5 * (np.asarray(fn(xs)) + np.asarray(fn(ys)))
    return float(defect.max()), bool(defect.max() <= tol)


def certify_sufficient(
    spec: ProblemSpec,
    candidate: tuple,
    adjoint,
    traj: TrajectoryEnsemble,
    grid: TimeGrid,
    tolerances: Tolerances = Tolerances(),
    probe_pairs: int = 1000,
    config_echo: dict | None = None,
) -> SufficiencyCertificate:
    """Assemble a sufficiency certificate for a candidate.

    Convexity of the terminal cost and of the state-to-Hamiltonian map is
    established from the declared quadratic forms when available (affine
    dynamics forms make H convex in x for every (p, P) as soon as the
    running-cost state block is positive semidefinite), and otherwise by
    midpoint probes over the assumptions box at the adjoint values realized
    per time slice.  The certificate holds only if the convexity evidence
    and all necessary conditions pass; an uncertified outcome is valid, not
    an error.
    """
    control, xi = candidate
    mu = as_relaxed(control)
    rng = np.random.default_rng(0)
    lo, hi = spec.assumptions_box
    convexity = []

    if spec.terminal_state_quad is not None:
        ok = _psd(spec.terminal_state_quad)
        convexity.append(
            ConvexityRecord(
                "terminal_cost", ok,
                f"declared quadratic form, min eigenvalue "
                f"{np.linalg.eigvalsh(spec.terminal_state_quad).min():.3g}",
            )
        )
    else:
        worst, ok = _midpoint_probe(spec.g, lo, hi, rng, probe_pairs, 1e-9)
        convexity.append(
            ConvexityRecord(
                "terminal_cost", ok,
                f"midpoint probe over {probe_pairs} pairs, worst defect {worst:.3g}",
            )
        )

    if spec.running_state_quad is not None and spec.config is not None:
        # form-built problems have state-affine b and sigma, so x -> H is
        # convex for every (p, P) iff the running-cost state block is PSD
        ok = _psd(spec.running_state_quad)
        convexity.append(
            ConvexityRecord(
                "hamiltonian_in_state", ok,
                f"declared forms (affine dynamics + quadratic running cost), min "
                f"eigenvalue {np.linalg.eigvalsh(spec.running_state_quad).min():.3g}",
            )
        )
    else:
        P = adjoint.P
        if P is None:
            P = ensemble_zeros(traj.num_paths, grid.num_steps + 1, spec.n, spec.d)
        worst_overall, ok = 0.0, True
        knots = grid.knots
        for j in range(grid.num_steps):
            p_bar = adjoint.p[:, j, :].mean(axis=0)
            P_bar = P[:, j].mean(axis=0)

            def H_of_x(xs, j=j, pb=p_bar, Pb=P_bar):
                M = len(xs)
                values = relaxed_hamiltonian_batch(
                    spec, knots[j], xs, mu.atoms[j], mu.weights[j],
                    np.broadcast_to(pb, (M, spec.n)), np.broadcast_to(Pb, (M, spec.n, spec.d)),
                )
                if not np.all(np.isfinite(values)):
                    raise ControlError(
                        f"Hamiltonian is not finite at a convexity probe point in cell {j}"
                    )
                return values

            worst, ok_j = _midpoint_probe(H_of_x, lo, hi, rng, probe_pairs, 1e-9)
            worst_overall = max(worst_overall, worst)
            ok = ok and ok_j
        convexity.append(
            ConvexityRecord(
                "hamiltonian_in_state", ok,
                f"midpoint probe at path-mean adjoint values, {probe_pairs} pairs "
                f"per slice, worst defect {worst_overall:.3g}",
            )
        )

    report = verify_necessary(
        spec, (mu, xi), adjoint, traj, grid, tolerances, config_echo=config_echo
    )
    certified = report.passed and all(c.passed for c in convexity)
    return SufficiencyCertificate(tuple(convexity), report, certified)
