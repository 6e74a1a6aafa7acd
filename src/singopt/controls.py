"""Strict, relaxed and singular control processes on a time grid.

A strict control assigns one candidate point per grid cell.  A relaxed
control assigns a finite discrete probability measure (atoms + weights) per
cell, which makes dynamics and running cost linear in the control.  A
singular control assigns a nonnegative increment vector to each half-open
cell (t_j, t_{j+1}]; its cumulative process is evaluated as the
left-limit partial sum, honoring left-continuity at grid resolution.

The chattering construction approximates a relaxed control by a strict one:
within each cell, each atom is played for a consecutive run of refined
sub-steps proportional to its weight (largest-remainder rounding), so
occupation fractions deviate from the weights by at most one refined step.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, singledispatch

import numpy as np

from .coefficients import read_numbers
from .model import TimeGrid

_WEIGHT_TOL = 1e-12


class ControlError(ValueError):
    """Raised for malformed controls or invalid control operations."""


class ChatteringError(ControlError):
    """Raised when the refined grid cannot represent all positive weights."""


def _require_finite(values, what):
    """Raise ControlError naming the first cell (index along axis 0) of
    `values` that holds a NaN or an infinity."""
    finite = np.isfinite(values)
    if not finite.all():
        cell = int(np.argmin(finite.reshape(len(values), -1).all(axis=1)))
        raise ControlError(
            f"{what} must be finite, got {values[cell].tolist()} in cell {cell}"
        )


@dataclass(frozen=True, eq=False)
class StrictControl:
    """Per-cell control values, shape (N, k)."""

    grid: TimeGrid
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim == 1:
            vals = vals[:, None]
        if vals.shape[0] != self.grid.num_steps:
            raise ControlError(
                f"expected {self.grid.num_steps} cell values, got {vals.shape[0]}"
            )
        _require_finite(vals, "strict control values")
        object.__setattr__(self, "values", vals)

    @property
    def control_dim(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True, eq=False)
class RelaxedControl:
    """Per-cell discrete measures stored as padded arrays.

    atoms has shape (N, A, k) and weights (N, A); padding entries carry
    weight 0.  Weights are nonnegative and sum to 1 per cell within 1e-12.
    Every measure average (drift, diffusion, cost, Hamiltonian) goes through
    average (one cell), block_total (a block of cells) or cell_averages (every
    cell, for a coefficient without a state term).
    """

    grid: TimeGrid
    atoms: np.ndarray
    weights: np.ndarray
    _averages_by_fn: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        atoms = np.asarray(self.atoms, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        if atoms.ndim == 2:
            atoms = atoms[:, :, None]
        if atoms.shape[0] != self.grid.num_steps or weights.shape != atoms.shape[:2]:
            raise ControlError("relaxed control arrays do not match the grid")
        _require_finite(atoms, "relaxed control atoms")
        _require_finite(weights, "relaxed control weights")
        if np.any(weights < 0):
            raise ControlError("relaxed control weights must be nonnegative")
        sums = weights.sum(axis=1)
        if np.max(np.abs(sums - 1.0)) > _WEIGHT_TOL:
            j = int(np.argmax(np.abs(sums - 1.0)))
            raise ControlError(f"cell {j}: weights sum to {sums[j]!r}, expected 1")
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "weights", weights)

    @property
    def control_dim(self) -> int:
        return self.atoms.shape[2]

    def average(self, fn, j, t, x):
        """Measure average sum_a w_a fn(t, x, a) over the atoms of cell j,
        skipping zero weights and summing left to right."""
        total = None
        for atom, w in zip(self.atoms[j], self.weights[j]):
            if w == 0.0:
                continue
            value = fn(t, x, atom)
            total = w * value if total is None else total + w * value
        return total

    @cached_property
    def _atom_index(self) -> tuple:
        """The distinct atoms of positive weight, (L, k), as np.unique(axis=0)
        finds them (sorted, and equal by value, so -0.0 and 0.0 merge), and
        for each (cell, slot) the row of its atom there, -1 at zero weight."""
        live = self.weights > 0
        distinct, rows = np.unique(self.atoms[live], axis=0, return_inverse=True)
        index = np.full(self.weights.shape, -1)
        index[live] = rows.ravel()
        return distinct, index

    def cell_averages(self, fn, x):
        """Per-cell measure averages of fn, shape (N, ...), when fn is a form
        whose state_part(x) is None, so that each average is a constant of
        the control; None for any other coefficient.  Whether a form has a
        state term does not depend on x.

        fn.control_part is evaluated once on the distinct atoms.  Each cell
        sums w * value over its atoms left to right and skips zero weights,
        its first live term starting the sum, so row j is average(fn, j, t,
        x) bit for bit.  The result is kept per fn, read-only.
        """
        state_part = getattr(fn, "state_part", None)
        if state_part is None:
            return None
        cache = self._averages_by_fn
        if fn not in cache:
            cache[fn] = None if state_part(x) is not None else self._sum_over_atoms(fn.control_part)
        return cache[fn]

    def _sum_over_atoms(self, control_part) -> np.ndarray:
        """Per cell, the sum of w * control_part(atom) in average's order."""
        distinct, index = self._atom_index
        values = control_part(distinct)
        if len(values) == 1:  # a form that does not depend on the control
            index = np.zeros_like(index)
        total = np.zeros((len(index),) + values.shape[1:])
        started = np.zeros((len(index),) + (1,) * (values.ndim - 1), dtype=bool)
        for w, rows in zip(self.weights.T, index.T):
            w = w.reshape(started.shape)
            live = w != 0.0
            term = w * values[rows]
            np.add(total, term, out=total, where=started & live)
            np.copyto(total, term, where=live & ~started)
            started |= live
        total.flags.writeable = False
        return total

    def block_total(self, fn, start, t, x) -> np.ndarray:
        """Per-path sum of the measure averages of fn over the K cells from
        cell `start`, sum_j sum_a w_ja fn(t_j, x_j, a), shape (M,).

        t has shape (K, 1) and x (K, M, n).  fn is evaluated once per
        distinct atom of positive weight in the block, in _atom_index order,
        on the whole block, and its values are contracted with that atom's
        per-cell weight.  A form's state part is evaluated once per call and
        each atom adds its control_part row (the single row of a form that
        does not use the control), which is fn(t, x, atom) bit for bit; any
        other fn is called once per atom.
        """
        K, M = x.shape[:2]
        distinct, index = self._atom_index
        index = index[start:start + K]
        weights = self.weights[start:start + K]
        state_part = getattr(fn, "state_part", None)
        if state_part is None:
            def value(row):
                return fn(t, x, distinct[row])
        else:
            state = state_part(x)
            control = fn.control_part(distinct)

            def value(row):
                term = control[row if len(control) > 1 else 0]
                return term if state is None else term + state
        total = np.zeros(M)
        for row in np.unique(index[index >= 0]):
            w = np.where(index == row, weights, 0.0).sum(axis=1)
            total += w @ np.broadcast_to(value(row), (K, M))
        return total


@dataclass(frozen=True, eq=False)
class SingularControl:
    """Nonnegative increments per cell, shape (N, m); eta_0 = 0."""

    grid: TimeGrid
    increments: np.ndarray

    def __post_init__(self):
        inc = np.asarray(self.increments, dtype=float)
        if inc.ndim == 1:
            inc = inc[:, None]
        if inc.shape[0] != self.grid.num_steps:
            raise ControlError(
                f"expected {self.grid.num_steps} increment rows, got {inc.shape[0]}"
            )
        _require_finite(inc, "singular increments")
        if np.any(inc < 0):
            raise ControlError("singular increments must be nonnegative componentwise")
        object.__setattr__(self, "increments", inc)

    @property
    def singular_dim(self) -> int:
        return self.increments.shape[1]

    def cumulative(self) -> np.ndarray:
        """Knot values of the nondecreasing process, shape (N+1, m).

        The increment of cell (t_j, t_{j+1}] is not yet included at knot
        t_j (left limits), so row 0 is zero and row N is the total.
        """
        out = np.zeros((self.grid.num_steps + 1, self.singular_dim))
        np.cumsum(self.increments, axis=0, out=out[1:])
        return out


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def constant_strict(grid: TimeGrid, point) -> StrictControl:
    point = np.atleast_1d(np.asarray(point, dtype=float))
    return StrictControl(grid, np.tile(point, (grid.num_steps, 1)))


def constant_relaxed(grid: TimeGrid, atoms, weights) -> RelaxedControl:
    atoms = np.atleast_2d(np.asarray(atoms, dtype=float))
    weights = np.asarray(weights, dtype=float).ravel()
    return RelaxedControl(
        grid,
        np.tile(atoms, (grid.num_steps, 1, 1)),
        np.tile(weights, (grid.num_steps, 1)),
    )


def zero_singular(grid: TimeGrid, singular_dim: int) -> SingularControl:
    return SingularControl(grid, np.zeros((grid.num_steps, singular_dim)))


def alternating_strict(grid: TimeGrid, num_blocks: int) -> StrictControl:
    """Block-alternating scalar control: +1 on the first of num_blocks equal
    blocks, -1 on the second, and so on.  num_blocks must divide the grid."""
    if grid.num_steps % num_blocks != 0:
        raise ControlError(
            f"grid with {grid.num_steps} steps cannot hold {num_blocks} equal blocks"
        )
    block = np.arange(grid.num_steps) // (grid.num_steps // num_blocks)
    return StrictControl(grid, np.where(block % 2 == 0, 1.0, -1.0)[:, None])


def dirac_embed(v: StrictControl) -> RelaxedControl:
    """Identify a strict control with the relaxed control of point masses."""
    return RelaxedControl(
        v.grid,
        v.values[:, None, :],
        np.ones((v.grid.num_steps, 1)),
    )


def as_relaxed(control) -> RelaxedControl:
    """The relaxed form of a candidate control: a strict control becomes its
    point masses (dirac_embed), a relaxed control is returned unchanged."""
    if isinstance(control, StrictControl):
        return dirac_embed(control)
    if isinstance(control, RelaxedControl):
        return control
    raise ControlError(
        f"candidate control must be strict or relaxed, got {type(control).__name__}"
    )


# ---------------------------------------------------------------------------
# per-cell measures as padded arrays
# ---------------------------------------------------------------------------

def _mixture(atoms, weights):
    """Per-cell union of the atoms (C, S, k) with positive weight (C, S):
    atoms equal byte for byte (so -0.0 and 0.0 stay apart) are merged, in
    first-seen order, and their weights summed left to right.  Returns the
    padded (atoms (C, B, k), weights (C, B)); each cell's merged entries come
    first and its padding holds zero weights on copies of its first atom."""
    cell, slot = np.nonzero(weights)
    points = atoms[cell, slot]
    keys = np.column_stack([cell, points.view(np.int64)])
    _, first, group = np.unique(keys, axis=0, return_index=True, return_inverse=True)
    rep = np.sort(first)  # the entry where each merged atom is first seen
    column = np.searchsorted(rep, first)[group.ravel()] - np.searchsorted(cell[rep], cell)
    first_atom = points[np.searchsorted(cell, np.arange(len(atoms)))]
    out_atoms = np.repeat(first_atom[:, None], column.max() + 1, axis=1)
    out_atoms[cell[rep], column[rep]] = points[rep]
    out_weights = np.zeros(out_atoms.shape[:2])
    np.add.at(out_weights, (cell, column), weights[cell, slot])
    return out_atoms, out_weights


def _normalized(weights):
    """Each row over the sum of its positive prefix, summed as an array of
    that length (so the sum does not depend on the padding's width)."""
    width = np.count_nonzero(weights, axis=1)
    sums = np.empty(len(weights))
    for b in np.unique(width):
        sums[width == b] = weights[width == b, :b].sum(axis=1)
    return weights / sums[:, None]


def _padded(grid: TimeGrid, cells) -> RelaxedControl:
    """The relaxed control of per-cell (atoms (A_j, k), weights (A_j,))
    pairs, padded to the widest cell with zero weights on copies of each
    cell's first atom, so padding rows stay inside the atom set."""
    width = max(len(wts) for _, wts in cells)
    atoms = np.zeros((grid.num_steps, width, cells[0][0].shape[1]))
    weights = np.zeros((grid.num_steps, width))
    for j, (pts, wts) in enumerate(cells):
        atoms[j, : len(wts)] = pts
        atoms[j, len(wts):] = pts[0]
        weights[j, : len(wts)] = wts
    return RelaxedControl(grid, atoms, weights)


# ---------------------------------------------------------------------------
# convex perturbation
# ---------------------------------------------------------------------------

def convex_combine(base: tuple, direction: tuple, theta: float) -> tuple:
    """Move a (relaxed, singular) pair a fraction theta toward a direction pair.

    A strict control of either pair plays its point masses (as_relaxed).
    The measure part is the atom union with weights (1-theta) w_base +
    theta w_direction; the singular part mixes increments the same way.
    theta = 0 and theta = 1 return the base and direction, in relaxed form.
    """
    if not 0.0 <= theta <= 1.0:
        raise ControlError(f"theta must lie in [0, 1], got {theta!r}")
    mu, xi = base
    q, eta = direction
    mu, q = as_relaxed(mu), as_relaxed(q)
    if mu.grid != q.grid or xi.grid != eta.grid:
        raise ControlError("base and direction controls must share the grid")
    if theta == 0.0:
        return mu, xi
    if theta == 1.0:
        return q, eta

    atoms, weights = _mixture(
        np.concatenate([mu.atoms, q.atoms], axis=1),
        np.concatenate([(1.0 - theta) * mu.weights, theta * q.weights], axis=1),
    )
    inc = (1.0 - theta) * xi.increments + theta * eta.increments
    return RelaxedControl(mu.grid, atoms, weights), SingularControl(xi.grid, inc)


# ---------------------------------------------------------------------------
# chattering approximation
# ---------------------------------------------------------------------------

def _apportion(weights: np.ndarray, seats: int) -> np.ndarray:
    """Largest-remainder apportionment of `seats` slots to each row of the
    weights (C, A)."""
    quotas = weights * seats
    alloc = np.floor(quotas).astype(int)
    remainder = quotas - alloc
    short = seats - alloc.sum(axis=1, keepdims=True)
    # stable: larger remainder first, ties to the lower index
    rank = np.argsort(np.argsort(-remainder, axis=1, kind="stable"), axis=1)
    return alloc + (rank < short)


def chattering(q: RelaxedControl, n: int) -> StrictControl:
    """Approximate a relaxed control by a strict control on a refined grid.

    Each base cell is subdivided into n * A refined sub-steps (A the padded
    atom count); atom j occupies a consecutive run of sub-steps apportioned
    to its weight by largest remainder, so its occupation fraction deviates
    from w_j by at most one refined step.  Raises ChatteringError when some
    positive weight receives no sub-step, stating the minimum refinement.
    """
    if n <= 0:
        raise ControlError("refinement index n must be positive")
    per_cell = n * q.atoms.shape[1]
    alloc = _apportion(q.weights, per_cell)
    starved = ((q.weights > 0) & (alloc == 0)).any(axis=1)
    if starved.any():
        j = int(np.argmax(starved))
        need = int(np.ceil(1.0 / q.weights[j][q.weights[j] > 0].min()))
        raise ChatteringError(
            f"cell {j}: refined grid too coarse to represent all positive "
            f"weights; needs at least {need} sub-steps per cell, got {per_cell}"
        )
    values = np.repeat(q.atoms.reshape(-1, q.control_dim), alloc.ravel(), axis=0)
    return StrictControl(q.grid.refine(per_cell), values)


# ---------------------------------------------------------------------------
# resampling onto another uniform grid
# ---------------------------------------------------------------------------

def _overlap(grid: TimeGrid, num_cells: int) -> tuple:
    """The cells of grid that each of num_cells equal cells over its horizon
    overlaps, and the overlap lengths: both (num_cells, W), length 0 in padding.

    Which cells overlap is decided in integers: in units of T / (N C), old
    cell i covers [i C, (i+1) C) and new cell j covers [j N, (j+1) N), so
    cells that only touch get no rounding-size share.  The lengths of real
    overlaps are computed in floats."""
    if num_cells <= 0:
        raise ControlError("num_cells must be positive")
    N = grid.num_steps
    old_dt = grid.dt
    new_dt = grid.horizon / num_cells
    j = np.arange(num_cells)[:, None]
    start, end = j * new_dt, (j + 1) * new_dt
    lo = np.floor(start / old_dt).astype(int)
    hi = np.minimum(np.ceil(end / old_dt).astype(int), N)
    idx = lo + np.arange((hi - lo).max())
    length = np.minimum(end, (idx + 1) * old_dt) - np.maximum(start, idx * old_dt)
    units = np.minimum((idx + 1) * num_cells, (j + 1) * N) - np.maximum(idx * num_cells, j * N)
    length = np.where((idx < hi) & (units > 0), length, 0.0)
    return np.minimum(idx, N - 1), length


def regrid_relaxed(q: RelaxedControl, num_cells: int) -> RelaxedControl:
    """Resample a relaxed control onto num_cells equal cells by time-averaging.

    The measure of a new cell is the overlap-length-weighted convex mixture
    of the old cell measures it covers, so weights stay nonnegative and
    normalized.
    """
    idx, length = _overlap(q.grid, num_cells)
    new_dt = q.grid.horizon / num_cells
    weights = (length / new_dt)[:, :, None] * q.weights[idx]
    atoms, weights = _mixture(
        q.atoms[idx].reshape(num_cells, -1, q.control_dim), weights.reshape(num_cells, -1)
    )
    return RelaxedControl(TimeGrid(num_cells, q.grid.horizon), atoms, _normalized(weights))


def regrid_singular(eta: SingularControl, num_cells: int) -> SingularControl:
    """Redistribute increments onto num_cells equal cells by overlap fractions."""
    idx, length = _overlap(eta.grid, num_cells)
    out = (eta.increments[idx] * (length / eta.grid.dt)[:, :, None]).sum(axis=1)
    return SingularControl(TimeGrid(num_cells, eta.grid.horizon), out)


# ---------------------------------------------------------------------------
# JSON forms
# ---------------------------------------------------------------------------

@singledispatch
def control_to_obj(control) -> dict:
    """JSON-ready description of any control type."""
    raise ControlError(f"cannot serialize object of type {type(control).__name__}")


@control_to_obj.register(StrictControl)
def _strict_to_obj(control) -> dict:
    return {"type": "strict", "values": control.values.tolist()}


@control_to_obj.register(RelaxedControl)
def _relaxed_to_obj(control) -> dict:
    cells = [
        {"atoms": atoms[weights > 0].tolist(), "weights": weights[weights > 0].tolist()}
        for atoms, weights in zip(control.atoms, control.weights)
    ]
    return {"type": "relaxed", "cells": cells}


@control_to_obj.register(SingularControl)
def _singular_to_obj(control) -> dict:
    return {"type": "singular", "increments": control.increments.tolist()}


def control_from_obj(obj: dict, grid: TimeGrid):
    """Rebuild a control from its JSON description on the given grid; a
    malformed description, a bool among its numbers included, raises
    ControlError."""
    kind = obj.get("type") if isinstance(obj, dict) else None
    if kind not in ("strict", "singular", "relaxed"):
        raise ControlError(f"unknown control type {kind!r}")
    try:
        if kind == "strict":
            return StrictControl(grid, read_numbers(obj["values"], "strict control values"))
        if kind == "singular":
            return SingularControl(grid, read_numbers(obj["increments"], "singular increments"))
        cells = obj["cells"]
        if len(cells) != grid.num_steps:
            raise ControlError(
                f"control has {len(cells)} cells but the grid has {grid.num_steps}"
            )
        return _padded(grid, [
            (np.atleast_2d(read_numbers(c["atoms"], "relaxed control atoms")),
             read_numbers(c["weights"], "relaxed control weights"))
            for c in cells
        ])
    except KeyError as exc:
        raise ControlError(f"{kind} control is missing the field {exc}") from None
    except ControlError:
        raise
    except (TypeError, ValueError, IndexError) as exc:
        raise ControlError(f"malformed {kind} control: {exc}") from None
