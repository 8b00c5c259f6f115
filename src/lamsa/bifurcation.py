"""Tracing the moving saddle and detecting its disappearance at (0, 0).

On the near arc the saddle branch is explicit in the circle's angle
theta (see ``equilibria``), and it has no fold there: ``trace_path``
solves that balance at every sample's F_L in one call of the Newton
iteration of ``fixed_points``.  ``saddle_region_map`` rasters the saddle
test of ``stability`` over the (p, F_L) plane, and ``design_feasibility``
sets the published design condition beside the finite-difference h1 at
the origin.  The paper's printed slope Lambda/(Sigma+Pi), region U and
the design condition's closed forms are in ``lamsa.published``.

As F_L rises to zero the interior saddle slides into the stationary point
at p = 0 and no equilibrium survives for F_L > 0: the branch terminates,
which is the bifurcation that releases the projectile.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple

import numpy as np

from .config import _MAX_ITEMS
from .errors import ConfigError, InvalidStartError
from .model import SystemParams, SystemState, latch_from_projectile
from .equilibria import _near_arc, _newton_correct, balance_residual
from .published import design_closed_form
from .stability import Classification, _linearize, characteristic_invariants, jacobian_fd_at

__all__ = [
    "PathTerminal",
    "PathSample",
    "ContinuationPath",
    "RegionMap",
    "DesignReport",
    "trace_path",
    "saddle_region_map",
    "design_feasibility",
]

_START_BALANCE_TOL = 1e-8
_FL_STEP = 0.05


class PathTerminal(Enum):
    REACHED_ZERO_FORCE = "ReachedZeroForce"
    LEFT_DOMAIN = "LeftDomain"


class PathSample(NamedTuple):
    """One continuation sample; h2 = A + Delta there (the saddle's eigenvalues are +/- sqrt(h2))."""

    F_L: float
    p_star: float
    in_S: bool
    h2: float


class ContinuationPath(NamedTuple):
    """``trace_path``'s samples, in order of F_L, and how the path ended."""

    samples: tuple[PathSample, ...]
    terminal: PathTerminal

    @property
    def final(self) -> PathSample:
        return self.samples[-1]


class RegionMap(NamedTuple):
    """Saddle-condition raster over a (p, F_L) grid of on-circle rest states; h1, h2 and in_S are p-by-F_L arrays."""

    p_grid: np.ndarray
    F_L_grid: np.ndarray
    h1: np.ndarray
    h2: np.ndarray
    in_S: np.ndarray


class DesignReport(NamedTuple):
    """Feasibility of hosting the saddle-disappearance at (0, 0).

    ``h1_at_origin`` evaluates the published closed form; ``h1_fd_origin``
    is the finite-difference value at the origin rest state with F_L = 0,
    reported alongside because the two do not agree (the finite-difference
    invariant vanishes identically there).
    """

    p0_window_ok: bool
    p0_bound: float
    p0_bound_ok: bool
    h1_at_origin: float
    h1_fd_origin: float
    feasible: bool


def trace_path(
    params: SystemParams,
    start: tuple[float, float],
    F_L_end: float = 0.0,
) -> ContinuationPath:
    """Follow the interior equilibrium from ``start = (p*, F_L0)`` to F_L_end.

    Samples go at F_L0 + 0.05, F_L0 + 0.10, ... (the last clipped to
    F_L_end, so a near-arc path always ends there, even from a start
    within 1e-14 below it), each the near-arc point that ``fixed_points`` gives at that
    F_L; one Newton call solves them all.  The start must satisfy the
    equilibrium balance to 1e-8 max(k p0 R, |F_L0 R|), a tolerance with no
    absolute floor; the path never extends past F_L = 0, where the branch
    ceases to exist.  A span from F_L0 to F_L_end of more than
    ``_MAX_ITEMS`` samples at that spacing raises ConfigError before any
    sample is computed, wherever the start lies.  Terminates with
    REACHED_ZERO_FORCE at F_L_end, or LEFT_DOMAIN at once when the
    start lies on the far arc (p* >= R), which does not reach F_L = 0.
    """
    p_start, fl_start = float(start[0]), float(start[1])
    if not fl_start < F_L_end and not (p_start == 0.0 and fl_start == F_L_end):
        raise InvalidStartError(
            f"need F_L0 < F_L_end, got F_L0={fl_start}, F_L_end={F_L_end}"
        )
    if F_L_end > 0.0:
        raise InvalidStartError("the equilibrium branch does not extend past F_L = 0")
    res = balance_residual(params, p_start, fl_start)
    scale = max(params.k * params.p0 * params.R, abs(fl_start * params.R))
    if not abs(res) <= _START_BALANCE_TOL * scale:  # nan fails too
        raise InvalidStartError(
            f"start ({p_start}, {fl_start}) violates the equilibrium balance "
            f"(residual {res:.3e})"
        )

    if (F_L_end - fl_start) / _FL_STEP > _MAX_ITEMS - 1:  # ceil((F_L_end - F_L0) / step) + 1 samples
        raise ConfigError(f"a trace from F_L={fl_start} would take more than {_MAX_ITEMS} samples")

    near = p_start < params.R  # the far arc does not reach F_L = 0
    fls, fl = [fl_start], fl_start
    while near and fl < F_L_end:
        fl += min(_FL_STEP, F_L_end - fl)
        if F_L_end - fl < 1e-14:
            fl = F_L_end
        fls.append(fl)
    F_L = np.array(fls)
    ck, u, stop = _near_arc(params, F_L[1:])
    (p, l), _ = _newton_correct(params, ck, F_L[1:], 1.0, u, stop)
    p = np.concatenate(([p_start], p))
    l = np.concatenate(([latch_from_projectile(params, p_start)], l))
    *_, h2, label = _linearize(params, p, l, F_L)
    in_s = (label == Classification.SADDLE.value).tolist()
    samples = tuple(map(PathSample, fls, p.tolist(), in_s, h2.tolist()))
    terminal = PathTerminal.REACHED_ZERO_FORCE if near else PathTerminal.LEFT_DOMAIN
    return ContinuationPath(samples, terminal)


def saddle_region_map(params: SystemParams, p_grid: np.ndarray, F_L_grid: np.ndarray) -> RegionMap:
    """Evaluate (h1, h2, saddle membership) on a raster of rest states.

    Grid nodes are zero-velocity on-circle states, not equilibria: the
    raster colours the whole (p, F_L) plane the way the saddle-region
    figure does.  The closed-form entries and the saddle test of
    ``stability`` run once over the whole broadcast grid, so every node
    equals what ``stability_report`` and ``classify`` give for it.
    Requires p in [0, R) (p = 0 is the preloaded rest state) and F_L <= 0.
    """
    p_grid = np.asarray(p_grid, dtype=float)
    F_L_grid = np.asarray(F_L_grid, dtype=float)
    if p_grid.size == 0 or F_L_grid.size == 0:
        raise ValueError("grids must be non-empty")
    if not np.all((p_grid >= 0.0) & (p_grid < params.R)):  # nan fails too
        raise ValueError("p grid must lie inside [0, R)")
    if not np.all(F_L_grid <= 0.0):
        raise ValueError("F_L grid must be non-positive")

    p = p_grid[:, None]
    l = np.sqrt(p * (2.0 * params.R - p))  # latch_from_projectile, node by node
    *_, h1, h2, label = _linearize(params, p, l, F_L_grid[None, :])
    return RegionMap(p_grid=p_grid, F_L_grid=F_L_grid, h1=h1, h2=h2, in_S=label == Classification.SADDLE.value)


def design_feasibility(params: SystemParams) -> DesignReport:
    """Check the published design condition for a saddle-node at (0, 0).

    Evaluates the natural-length window p0 in (R, 4R), the published
    lower bound on p0, and the published closed-form h1 at (0, 0) (all
    verbatim), and cross-checks the latter against the finite-difference
    h1 at the origin rest state with F_L = 0.
    """
    bound, h1_closed = design_closed_form(params)
    window_ok = params.R < params.p0 < 4.0 * params.R
    bound_ok = params.p0 > bound

    J = jacobian_fd_at(params, SystemState(0.0, 0.0, 0.0, 0.0), 0.0)
    h1_fd = float(characteristic_invariants(J[1, 0], J[1, 2], J[3, 0], J[3, 2])[0])

    return DesignReport(
        p0_window_ok=window_ok,
        p0_bound=bound,
        p0_bound_ok=bound_ok,
        h1_at_origin=h1_closed,
        h1_fd_origin=h1_fd,
        feasible=window_ok and bound_ok and h1_closed < 0.0,
    )
