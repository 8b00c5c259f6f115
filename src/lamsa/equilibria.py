"""Latched-mode equilibria as a function of the latch force.

A latched rest state lies on the constraint circle, parametrized by the
angle theta as p = R (1 - cos theta), l = R sin theta.  Zeroing the
projectile acceleration with the contact force substituted gives the
force balance

    c * F_s(p) * l(p) = (p - R) * F_L,   c = d/M,

with d the latch-force divisor ``SystemParams`` resolves (m printed, M
derived, so c = m/M or 1).  With a = p0 - R > 0 it reads
F_L = -c k (a + R cos theta) tan theta on the circle, and it splits into
two arcs:

* Near arc, p in (0, R).  With t = tan theta and s = sqrt(1 + t^2),
  G(t) = c k (a + R/s) t + F_L = 0.  G is increasing
  (G' = c k (a + R/s^3) > 0) and concave, so every F_L < 0 has exactly one
  near-arc point, with t in [-F_L/(c k p0), -F_L/(c k a)]; Newton's
  iteration from the lower end climbs to it monotonically.
  l = R t/s and p = l t/(1 + s) carry no cancellation, so the point is
  resolved as F_L -> 0-, where p* ~ F_L^2 and l* ~ -F_L.
* Far pair, p in (p0, 2R), only when p0 < 2R.  With phi = pi - theta and
  t = tan phi, F_L = c k (a - R/s) t.  This vanishes at phi = 0 (p = 2R)
  and at cos phi = a/R (p = p0) and has one minimum F_min, where
  cos^3 phi = a/R.  For F_min < F_L < 0 there is one point on each of the
  two monotone pieces; the function is convex, so Newton's iteration from
  each piece's outer end reaches it monotonically.  F_L = F_min is the
  fold where the two merge; below F_min there is no far point.

Points with p in (R, min(p0, 2R)) would need F_L > 0.  ``fixed_points``
reports nothing for F_L > 0 and only the origin for F_L = 0: the branch
that holds the saddle ends there.

``_newton_correct`` solves the balance in theta for a whole array of
forces at once, for ``fixed_point_sweep`` (and so ``fixed_points``) and
the end force of ``bifurcation.trace_path``; ``_on_arc`` reads it the
other way, from given angles to (p, l, F_L).  Squaring the
balance gives the paper's quartic D(p), which also has the spurious
roots of the squared sign; no solver uses it, and it lives with the
other printed formulas in ``lamsa.published``.

Note that the origin (and, under AS_PRINTED, every other point) zeroes
the projectile row of the vector field but leaves a latch acceleration
F_L/M (resp. F_L (m - M)/(m M)); ``vanishing_rows`` records which
components actually vanish.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import EquilibriumBalanceError
from .model import Mode, SystemParams, SystemState, _field_arr, latch_from_projectile, spring_force
from .published import roots_in_interval  # not called here; kept importable because perfbench/tracer.py wraps lamsa.equilibria.roots_in_interval

__all__ = [
    "FixedPoint",
    "balance_residual",
    "fixed_points",
    "fixed_point_sweep",
    "unlatched_fixed_point",
]

_BALANCE_RTOL = 1e-9
_BALANCE_ULPS = 8  # the floor of the bound, in float spacings of its scale (subnormal forces reach 5)
_NEWTON_MAX_ITER = 100
_VANISH_TOL = 1e-8


class FixedPoint(NamedTuple):
    """A validated equilibrium of the latched (or unlatched) mode.

    ``l_star`` is None for the unlatched equilibrium, where the latch
    position is unconstrained.  ``vanishing_rows`` lists which components
    of the full 4-state field vanish at the point (all four only for the
    constraint-consistent interior point and the F_L = 0 origin).  The
    record is an immutable tuple: ``_replace`` derives a changed copy.
    """

    p_star: float
    l_star: float | None
    F_L_star: float
    mode: Mode
    origin_flag: bool = False
    vanishing_rows: tuple[int, ...] = (0, 1, 2, 3)

    def rest_state(self) -> SystemState:
        l = 0.0 if self.l_star is None else self.l_star
        return SystemState(self.p_star, 0.0, l, 0.0)


def balance_residual(params: SystemParams, p: float, F_L: float) -> float:
    """Signed residual of the unsquared equilibrium balance at p.

    The residual is c F_s l - (p - R) F_L with c = d/M, the balance of
    the module docstring, which the theta-Newton solves.  It is zero (to
    round-off) exactly at genuine equilibria; the squared quartic cannot
    distinguish the sign of the two sides, this can.  The latch position
    is ``latch_from_projectile``'s, which raises ContactWindowError for p
    outside [0, 2R].
    """
    l = latch_from_projectile(params, p)
    return spring_force(params, p) * l * (params._d / params.M) - (p - params.R) * F_L


def _make_fp(
    params: SystemParams, p_star: float, l_star: float, F_L: float, tol: float
) -> FixedPoint:
    """The latched rest point (p*, l*), with the field rows that vanish there within ``tol``."""
    res = _field_arr(params, (p_star, 0.0, l_star, 0.0), F_L)[:4]
    vanishing = tuple([i for i, r in enumerate(res) if abs(r) <= tol])
    return FixedPoint(p_star, l_star, F_L, Mode.LATCHED, False, vanishing)


def _near_arc(params: SystemParams, F_L):
    """(c k, start, stop in tan theta) of Newton's near-arc solve at F_L <= 0 (c = d/M).

    F_L may be a float or a numpy array; start and stop follow it.
    """
    ck = params.k * (params._d / params.M)
    return ck, -F_L / (ck * params.p0), -F_L / (ck * (params.p0 - params.R))


def _newton_correct(
    params: SystemParams, ck: float, F_L: np.ndarray, sigma: float, u: np.ndarray, stop: np.ndarray
) -> tuple[tuple[np.ndarray, np.ndarray], int]:
    """((p, l), iterations) of the balance's roots on one monotone piece of an arc.

    One solve per element of the arrays ``F_L``, ``u`` and ``stop``.
    ``sigma`` is +1 on the near arc (cos theta = 1/s) and -1 on the far arc
    (cos theta = -1/s), with u = |tan theta| and s = sqrt(1 + u^2); there
    the balance reads -c k (sigma a + R/s) u = F_L.  Newton's iteration
    starts at ``u`` and, the balance being convex in u, moves monotonically
    towards the root, which lies between ``u`` and ``stop``; an element's
    iteration ends when its iterate stops moving on (the rounding floor) or
    its slope is zero, and the others go on.  Each element's arithmetic
    is its own, so it gives the same root whatever array it is solved in.
    ``iterations`` sums the Newton steps tried over the elements, at least
    1.  Raises EquilibriumBalanceError, naming the first failing F_L, when
    a balance residual at the result is not small against its terms.
    """
    R, sa = params.R, sigma * (params.p0 - params.R)
    # clamping into [start, stop] is clamping towards stop: an iterate
    # that falls back towards its start stops moving on either way
    lo, hi = np.minimum(u, stop), np.maximum(u, stop)
    u = np.array(u, dtype=float)
    live = np.ones(u.shape, dtype=bool)
    iterations = 0
    with np.errstate(divide="ignore", invalid="ignore"):  # the dead elements' steps
        for _ in range(_NEWTON_MAX_ITER):
            n_live = int(np.count_nonzero(live))
            if not n_live:
                break
            iterations += n_live
            s = np.hypot(1.0, u)
            slope = -ck * (sa + R / (s * s * s))
            u_new = np.minimum(np.maximum(u + (ck * (sa + R / s) * u + F_L) / slope, lo), hi)
            live &= (slope != 0.0) & ~((u_new - u) * (stop - u) <= 0.0)
            np.copyto(u, u_new, where=live)
    p, l, F_u = _on_arc(params, ck, sigma, u)
    residual = F_L - F_u
    scale = np.fmax(np.abs(F_L), ck * u * (abs(sa) + R / np.hypot(1.0, u)))
    bad = ~(np.abs(residual) <= np.fmax(_BALANCE_RTOL * scale, _BALANCE_ULPS * np.spacing(scale)))
    if bad.any():
        i = int(np.argmax(bad))
        raise EquilibriumBalanceError(
            f"balance residual {residual[i]:.3e} at tan(theta)={float(u[i])!r}, F_L={float(F_L[i])!r}"
        )
    return (p, l), max(iterations, 1)


def _on_arc(params: SystemParams, ck: float, sigma: float, u: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(p, l, F_L) of the balance's point at u = |tan theta| on the near (sigma = +1) or far (-1) arc."""
    R, s = params.R, np.hypot(1.0, u)
    l = R * (u / s)
    return (l * u / (1.0 + s) if sigma > 0.0 else R + R / s), l, -(ck * (sigma * (params.p0 - R) + R / s) * u)


def _far_fold(params: SystemParams, ck: float) -> tuple[float, float] | None:
    """(u*, F_min) at the far arc's fold, or None when p0 >= 2R (no far arc).

    u* = tan phi* with cos^3 phi* = (p0 - R)/R, and F_min is the balance's
    least F_L on the far arc, reached there.
    """
    R, a = params.R, params.p0 - params.R
    if a >= R:
        return None
    s = (R / a) ** (1.0 / 3.0)
    u = math.sqrt(s * s - 1.0)
    return u, ck * (a - R / s) * u


def fixed_point_sweep(params: SystemParams, F_L) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(F_L, p*, l*) of every latched equilibrium but the origin over a sweep of forces.

    The rows follow ``F_L``'s order and, within one force, ascend in p:
    for each F_L < 0 the near-arc point, then, when p0 < 2R and F_L >
    F_min, the far pair (the single fold point at F_L = F_min).  A force
    F_L >= 0 has no row.  The near arc is one Newton solve over the whole
    sweep and both sides of the far pair another, their rows then sorted
    by force, so every row equals the matching point of ``fixed_points``.
    """
    F_L = np.asarray(F_L, dtype=float).ravel()
    fl = F_L[~(F_L >= 0.0)]  # a nan force fails the balance check
    ck, u, stop = _near_arc(params, fl)
    (p, l), _ = _newton_correct(params, ck, fl, 1.0, u, stop)
    fold = _far_fold(params, ck)
    if fold is None:
        return fl, p, l
    u_fold, f_min = fold
    u_p0 = math.sqrt((params.R / (params.p0 - params.R)) ** 2 - 1.0)
    # one solve over the far pair's p0-side points (from u_p0, or the fold
    # itself at F_min) and its 2R-side points (from 0); both stop at the fold
    at_p0, at_2r = np.flatnonzero(fl >= f_min), np.flatnonzero(fl > f_min)
    far = np.concatenate([at_p0, at_2r])
    u = np.concatenate([np.where(fl[at_p0] > f_min, u_p0, u_fold), np.zeros(at_2r.size)])
    (pf, lf), _ = _newton_correct(params, ck, fl[far], -1.0, u, np.full(u.size, u_fold))
    rows = np.concatenate([np.arange(fl.size), far])
    order = np.argsort(rows, kind="stable")  # each force's rows stay ascending in p
    return fl[rows[order]], np.concatenate([p, pf])[order], np.concatenate([l, lf])[order]


def fixed_points(params: SystemParams, F_L: float) -> list[FixedPoint]:
    """Latched-mode equilibrium set for one latch force, in ascending p.

    * F_L > 0: empty.
    * F_L = 0: exactly the origin.
    * F_L < 0: the origin (flagged; its latch row does not vanish), exactly
      one near-arc point in (0, R), and, when p0 < 2R and F_L > F_min, the
      far pair in (p0, 2R) (a single point at the fold F_L = F_min).

    The points after the origin are ``fixed_point_sweep``'s rows for the
    one force: Newton solves of the balance in the circle's angle (see the
    module docstring); a residual that fails the postcondition raises
    EquilibriumBalanceError.
    """
    if F_L > 0.0:
        return []
    # At the origin the velocity rows 0 and 2 are zero, row 1 cancels to
    # round-off (R tau = k p0 there) and row 3 is exactly F_L/M.
    tol = _VANISH_TOL * max(1.0, abs(F_L), params.k * params.p0)
    rows = (0, 1, 2, 3) if abs(F_L / params.M) <= tol else (0, 1, 2)
    origin = FixedPoint(0.0, 0.0, F_L, Mode.LATCHED, True, rows)
    _, p, l = fixed_point_sweep(params, F_L)
    return [origin, *(_make_fp(params, pi, li, F_L, tol) for pi, li in zip(p.tolist(), l.tolist()))]


def unlatched_fixed_point(params: SystemParams) -> FixedPoint:
    """Rest point of the unlatched mode: spring at natural length, F_L = 0.

    The latch position is unconstrained there (``l_star`` is None).
    """
    return FixedPoint(p_star=params.p0, l_star=None, F_L_star=0.0, mode=Mode.UNLATCHED)
