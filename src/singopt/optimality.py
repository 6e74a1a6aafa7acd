"""Hamiltonian evaluation and first-order optimality verification.

The strict Hamiltonian is H(t, x, v, p, P) = h + b . p + sigma : P (the
diffusion pairs with P column by column); the relaxed Hamiltonian is its
measure average and is therefore linear in the weights, so its infimum over
all discrete measures on the candidate grid is attained at a point mass.
Both are evaluated over a batch of paths; a single point is a batch of one.

verify_necessary checks a candidate against the global first-order
conditions knot by knot, in the backward sweep's order N-1, ..., 0:
pointwise Hamiltonian minimality over the candidate grid, nonnegativity of
the singular slack k + G^T p, the flat-off complement (increments only where
the slack vanishes) and the integral first-order inequality toward the
pointwise argmin; fed by adjoint.BackwardSweep, it holds no adjoint ensemble.
certify_sufficient adds convexity evidence (terminal cost, x -> H), which
upgrades the necessary conditions to a sufficiency certificate.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .controls import ControlError
from .model import ProblemSpec
from .sde import _std_error


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
        return asdict(self)


def strict_hamiltonian_batch(spec, t, x, v, p, P, out=None):
    """H over a path batch: x (M, n), p (M, n), P (M, n, d).

    v is one control point (k,), giving (M,), or a stack of points (L, k),
    giving (L, M) with row i bit for bit H at v[i].  A stack is evaluated in
    one pass when h, b and sigma carry their state/control split (the
    coefficient forms do), and point by point otherwise.  out, an (L, M)
    array, receives a stacked result; the verifier reuses one across knots.
    """
    v = np.asarray(v, dtype=float)
    if v.ndim == 1:
        return _point_hamiltonian(spec, t, x, v, p, P)
    if out is None:
        out = np.empty((len(v), x.shape[0]))
    if not _has_split(spec):
        for i, u in enumerate(v):
            out[i] = _point_hamiltonian(spec, t, x, u, p, P)
        return out
    # ((h_state + h_ctrl) + b . p) + sigma : P, as in _point_hamiltonian; a
    # term that does not depend on the control is one row, broadcast
    np.add(spec.h.state_part(x), spec.h.control_part(v)[:, None], out=out)
    out += np.einsum("lmp,mp->lm", _stacked(spec.b, x, v), p)
    out += np.einsum("lmpj,mpj->lm", _stacked(spec.sigma, x, v), P)
    return out


def _has_split(spec) -> bool:
    """Whether h, b and sigma carry their state/control split, which the
    coefficient forms attach: then b and sigma are affine in the state and h
    is a quadratic state term plus a control term."""
    return all(hasattr(f, "control_part") for f in (spec.h, spec.b, spec.sigma))


def _point_hamiltonian(spec, t, x, v, p, P):
    M = x.shape[0]
    h = np.broadcast_to(np.asarray(spec.h(t, x, v), dtype=float), (M,))
    b = np.broadcast_to(np.asarray(spec.b(t, x, v), dtype=float), (M, spec.n))
    sig = np.broadcast_to(np.asarray(spec.sigma(t, x, v), dtype=float), (M, spec.n, spec.d))
    return h + np.einsum("mp,mp->m", b, p) + np.einsum("mpj,mpj->m", sig, P)


def _stacked(fn, x, U):
    """An affine form at every row of control_part(U) over the batch x:
    (L, M, ...), or (1, M, ...) when it does not depend on the control."""
    control = fn.control_part(U)[:, None]
    state = fn.state_part(x)
    if state is None:
        return np.broadcast_to(control, (len(control), len(x)) + control.shape[2:])
    return control + state


def relaxed_hamiltonian_batch(spec, t, x, q, j, p, P):
    """Hamiltonian averaged over cell j of the relaxed control q, over a
    path batch -> (M,)."""
    return q.average(lambda tt, xx, a: strict_hamiltonian_batch(spec, tt, xx, a, p, P), j, t, x)


def _grid_argmin(u1_grid, values) -> int:
    """Index of the grid point of least value; exact ties resolve to the
    lexicographically smallest point."""
    tied = np.flatnonzero(values == values.min())
    return int(min(tied, key=lambda i: tuple(u1_grid[i].tolist())))


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
    values = strict_hamiltonian_batch(spec, t, x, spec.u1_grid, p, P)[:, 0]
    return spec.u1_grid[_grid_argmin(spec.u1_grid, values)].copy(), float(values.min())


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
        return asdict(self)


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


class _Conditions:
    """verify_necessary's statistics along adjoint.traj, fed knot by knot by
    adjoint.knots(); with keep_means, also means[j], the path means of p_j, P_j."""

    def __init__(self, adjoint, tolerances: Tolerances, keep_means: bool):
        if adjoint is None:
            raise ValueError("verify_necessary requires the candidate's adjoint pair")
        traj = adjoint.traj
        spec, mu, xi, grid, M = traj.spec, traj.control, traj.singular, traj.grid, traj.num_paths
        worst, violations, min_slack = 0.0, 0, np.inf
        flat_off_mass, first_order = np.zeros(M), np.zeros(M)
        self.means = {}
        grid_vals = np.empty((len(spec.u1_grid), M))
        row_of = {u.tobytes(): i for i, u in enumerate(spec.u1_grid)}
        for j, pj, Pj, *_ in adjoint.knots():  # a sweep also yields each knot's health
            t, xj = grid.knots[j], traj.states[:, j, :]
            if keep_means:
                self.means[j] = pj.mean(axis=0), Pj.mean(axis=0)
            strict_hamiltonian_batch(spec, t, xj, spec.u1_grid, pj, Pj, out=grid_vals)
            try:
                # H is linear in the measure: average the grid rows of the atoms
                cand = mu.average(lambda _t, _x, a: grid_vals[row_of[a.tobytes()]], j, t, xj)
            except KeyError:  # an atom off the grid
                cand = relaxed_hamiltonian_batch(spec, t, xj, mu, j, pj, Pj)
            gap = cand - grid_vals.min(axis=0)
            violations += int(np.count_nonzero(gap > tolerances.tol_H * (1.0 + np.abs(cand))))
            worst = max(worst, float(gap.max()))
            slack = spec.k_cost(t) + np.einsum("pq,mp->mq", spec.G(t), pj)
            min_slack = float(np.minimum(min_slack, slack.min()))
            flat_off_mass += (slack > tolerances.tol_S) @ xi.increments[j]
            best = _grid_argmin(spec.u1_grid, grid_vals.mean(axis=1))
            first_order += (grid_vals[best] - cand) * grid.dt - slack @ xi.increments[j]
        fraction = violations / float(M * grid.num_steps)
        self._statistics = tolerances, fraction, worst, min_slack, flat_off_mass, first_order

    def records(self) -> tuple:
        """The four condition records, reduced from the per-path sums."""
        tolerances, fraction, worst, min_slack, flat_off_mass, first_order = self._statistics
        worst_mass = float(flat_off_mass.max()) if len(flat_off_mass) else 0.0
        value, se = float(first_order.mean()), _std_error(first_order)
        bound = -(3.0 * se + tolerances.vi_allowance)
        return (
            ConditionRecord(
                "hamiltonian-minimality",
                fraction <= tolerances.max_violation_fraction,
                worst,
                tolerances.tol_H,
                None,
                f"worst gap {worst:.3g}, violating fraction {fraction:.3g} "
                f"(allowed {tolerances.max_violation_fraction:g})",
            ),
            ConditionRecord(
                "nonnegativity",
                min_slack >= -tolerances.tol_S,
                min_slack,
                -tolerances.tol_S,
                None,
                f"min component of k + G^T p = {min_slack:.3g} (tolerance -{tolerances.tol_S:g})",
            ),
            ConditionRecord(
                "flat-off",
                worst_mass <= tolerances.tol_F,
                worst_mass,
                tolerances.tol_F,
                None,
                f"max per-path increment mass where slack > {tolerances.tol_S:g} "
                f"is {worst_mass:.3g}",
            ),
            ConditionRecord(
                "variational-inequality[pointwise-argmin]",
                value >= bound,
                value,
                bound,
                se,
                f"first-order value {value:.3g} toward 'pointwise-argmin' (>= {bound:.3g})",
            ),
        )


def verify_necessary(
    adjoint,
    tolerances: Tolerances = Tolerances(),
    config_echo: dict | None = None,
) -> VerificationReport:
    """Check the global first-order necessary conditions for a candidate.

    The candidate is the (control, singular) pair of the ensemble that the
    adjoint pair was computed along, adjoint.traj.  The conditions are
    updated as adjoint.knots() yields (j, p_j, P_j) from knot N-1 down to 0:
    a stored pair (adjoint.AdjointPair) and the unstored backward sweep
    (adjoint.BackwardSweep) give the same records, bit for bit.  Per knot,
    H at every grid point (one stacked strict_hamiltonian_batch call), the
    candidate's H (the weighted rows of its atoms, or the measure average
    for atoms off the grid) and the slack k + G^T p update every condition.
    The integral first-order inequality is evaluated toward the pointwise
    argmin: per knot, the grid point of least path-mean H (exact ties to
    the lexicographically smallest), as a point mass with no singular part.
    Its per-path value is the sum of adjoint.variational_inequality_value
    for that direction, in the same knot order, with the direction's H read
    off the grid values.  A pair without P (the explicit route) raises
    ValueError.
    """
    records = _Conditions(adjoint, tolerances, keep_means=False).records()
    return VerificationReport(records, dict(config_echo or {}))


# ---------------------------------------------------------------------------
# sufficiency
# ---------------------------------------------------------------------------

def _declared_convexity(subject, quad, evidence):
    """The record of a declared quadratic form: convex when its least
    eigenvalue is >= -1e-12, which the evidence quotes."""
    lowest = np.linalg.eigvalsh(quad).min()
    return ConvexityRecord(subject, bool(lowest >= -1e-12),
                           f"{evidence}, min eigenvalue {lowest:.3g}")


def _midpoint_probe(fn, lo, hi, rng, pairs, tol):
    """Midpoint convexity probe: fn((x+y)/2) <= (fn(x)+fn(y))/2 + tol."""
    xs = rng.uniform(lo, hi, size=(pairs, len(lo)))
    ys = rng.uniform(lo, hi, size=(pairs, len(lo)))
    mid = 0.5 * (xs + ys)
    defect = np.asarray(fn(mid)) - 0.5 * (np.asarray(fn(xs)) + np.asarray(fn(ys)))
    return float(defect.max()), bool(defect.max() <= tol)


def certify_sufficient(
    adjoint,
    tolerances: Tolerances = Tolerances(),
    probe_pairs: int = 1000,
    config_echo: dict | None = None,
) -> SufficiencyCertificate:
    """Assemble a sufficiency certificate for the candidate of adjoint.traj,
    its conditions read from adjoint.knots() as verify_necessary reads them.

    Convexity of the terminal cost and of the state-to-Hamiltonian map is
    established from the quadratic forms that the coefficient forms attach
    to g and h as state_quad when available (h, b and sigma carrying their
    state/control split make b and sigma affine in x, so H is convex in x
    for every (p, P) as soon as the running-cost state block is positive
    semidefinite), and otherwise, after the sweep, by midpoint probes over
    the assumptions box at each slice's path-mean (p, P).  The certificate
    holds only if the convexity evidence and all necessary conditions pass;
    an uncertified outcome is valid, not an error.
    """
    spec, mu = adjoint.traj.spec, adjoint.traj.control
    terminal_quad = getattr(spec.g, "state_quad", None)
    running_quad = getattr(spec.h, "state_quad", None) if _has_split(spec) else None
    checks = _Conditions(adjoint, tolerances, keep_means=running_quad is None)
    rng = np.random.default_rng(0)
    lo, hi = spec.assumptions_box
    convexity = []

    if terminal_quad is not None:
        convexity.append(
            _declared_convexity("terminal_cost", terminal_quad, "declared quadratic form")
        )
    else:
        worst, ok = _midpoint_probe(spec.g, lo, hi, rng, probe_pairs, 1e-9)
        convexity.append(
            ConvexityRecord(
                "terminal_cost", ok,
                f"midpoint probe over {probe_pairs} pairs, worst defect {worst:.3g}",
            )
        )

    if running_quad is not None:
        # b and sigma are state-affine, so x -> H is convex for every (p, P)
        # iff the running-cost state block is PSD
        convexity.append(_declared_convexity(
            "hamiltonian_in_state", running_quad,
            "declared forms (affine dynamics + quadratic running cost)",
        ))
    else:
        worst_overall, ok = 0.0, True
        for j in range(len(checks.means)):  # after the sweep, in knot order

            def H_of_x(xs, j=j, pb=checks.means[j][0], Pb=checks.means[j][1]):
                M = len(xs)
                values = relaxed_hamiltonian_batch(
                    spec, adjoint.traj.grid.knots[j], xs, mu, j,
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

    report = VerificationReport(checks.records(), dict(config_echo or {}))
    certified = report.passed and all(c.passed for c in convexity)
    return SufficiencyCertificate(tuple(convexity), report, certified)
