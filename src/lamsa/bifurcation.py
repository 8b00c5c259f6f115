"""Tracing the moving saddle and detecting its disappearance at (0, 0).

On the near arc the saddle branch is a graph over the circle's angle
theta (see ``equilibria``) with no fold: ``trace_path`` samples it in
closed form at evenly spaced theta, solving only its end force with
``fixed_points``' Newton iteration.  ``saddle_region_map`` rasters the
saddle test of ``stability`` over the (p, F_L) plane, and
``design_feasibility`` sets the published design condition beside the
finite-difference h1 at the origin.  The paper's printed slope
Lambda/(Sigma+Pi), region U and the design condition's closed forms are
in ``lamsa.published``.

As F_L rises to zero the interior saddle slides into the stationary point
at p = 0 and no equilibrium survives for F_L > 0: the branch terminates,
which is the bifurcation that releases the projectile.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import NamedTuple

import numpy as np

from .errors import InvalidStartError
from .model import SystemParams, SystemState, latch_from_projectile
from .equilibria import _near_arc, _newton_correct, _on_arc, balance_residual
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
_THETA_STEP = 0.005


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

    On the near arc (p* <= R) the samples are the start, the branch in
    closed form at evenly spaced theta at most 0.005 rad apart (so at most
    316 samples, the same in any units) and the point ``fixed_points``
    gives at F_L_end, where the path ends REACHED_ZERO_FORCE.  A far-arc
    start (p* > R) is the whole path, with LEFT_DOMAIN: the far arc is not
    followed, though its ends p = 2R and p = p0 reach F_L = 0 too.  The
    start must satisfy the balance to 1e-8 max(k p0 R, |F_L0 R|), with no
    absolute floor, and F_L0 < F_L_end <= 0: no branch exists past F_L = 0.
    """
    p_start, fl_start = float(start[0]), float(start[1])
    if not fl_start < F_L_end and not (p_start == 0.0 and fl_start == F_L_end):
        raise InvalidStartError(f"need F_L0 < F_L_end, got F_L0={fl_start}, F_L_end={F_L_end}")
    if F_L_end > 0.0:
        raise InvalidStartError("the equilibrium branch does not extend past F_L = 0")
    res = balance_residual(params, p_start, fl_start)
    scale = max(params.k * params.p0 * params.R, abs(fl_start * params.R))
    if not abs(res) <= _START_BALANCE_TOL * scale:  # nan fails too
        raise InvalidStartError(
            f"start ({p_start}, {fl_start}) violates the equilibrium balance "
            f"(residual {res:.3e})"
        )

    near = p_start <= params.R  # the far arc, though its ends reach F_L = 0, is not followed
    p, l, F_L = np.array([p_start]), np.array([latch_from_projectile(params, p_start)]), np.array([fl_start])
    if near and fl_start < F_L_end:
        fl_end = np.array([F_L_end])
        ck, u, stop = _near_arc(params, fl_end)
        (p_end, l_end), _ = _newton_correct(params, ck, fl_end, 1.0, u, stop)
        theta0, theta1 = math.atan2(l[0], params.R - p_start), math.atan2(l_end[0], params.R - p_end[0])
        # theta falls as F_L rises; spaced up from theta1 (0 at F_L = 0), small angles keep their precision
        theta = np.linspace(theta1, theta0, max(1, math.ceil((theta0 - theta1) / _THETA_STEP)) + 1)[-2:0:-1]
        p_in, l_in, fl_in = _on_arc(params, ck, 1.0, np.tan(theta))
        p, l, F_L = np.concatenate((p, p_in, p_end)), np.concatenate((l, l_in, l_end)), np.concatenate((F_L, fl_in, fl_end))
    *_, h2, label = _linearize(params, p, l, F_L)
    in_s = (label == Classification.SADDLE.value).tolist()
    samples = tuple(map(PathSample, F_L.tolist(), p.tolist(), in_s, h2.tolist()))
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
