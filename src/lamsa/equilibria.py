"""Latched-mode equilibria as a function of the latch force.

A latched rest state lies on the constraint circle, parametrized by the
angle theta as p = R (1 - cos theta), l = R sin theta.  Zeroing the
projectile acceleration with the contact force substituted gives the
force balance

    F_s(p) * l(p) * c1 = (p - R) * F_L * c2

(c1 = 1/M, c2 = 1/m for AS_PRINTED; c1 = c2 = 1 for the
constraint-consistent variant).  With c = c1/c2 and a = p0 - R > 0 it
reads F_L = -c k (a + R cos theta) tan theta on the circle, and it splits
into two arcs:

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

Squaring the balance gives the quartic D(p) of ``quartic_coefficients``,
which also has the spurious roots of the squared sign.  ``fixed_points``
no longer uses it: the quartic and its root scan ``roots_in_interval``
stay as an independent oracle and as the equation the continuation's
corrector solves.

Note that the origin (and, under AS_PRINTED, every other point) zeroes
the projectile row of the vector field but leaves a latch acceleration
F_L/M (resp. F_L (m - M)/(m M)); ``vanishing_rows`` records which
components actually vanish.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import EquilibriumBalanceError
from .model import (
    Mode,
    ModelVariant,
    SystemParams,
    SystemState,
    _field_arr,
    spring_force,
)

__all__ = [
    "QuarticD",
    "FixedPoint",
    "quartic_coefficients",
    "eval_quartic",
    "eval_quartic_derivative",
    "roots_in_interval",
    "balance_residual",
    "fixed_points",
    "unlatched_fixed_point",
    "equilibrium_field_residual",
]

_BALANCE_RTOL = 1e-9
_NEWTON_MAX_ITER = 100
_VANISH_TOL = 1e-8


@dataclass(frozen=True)
class QuarticD:
    """Coefficients of the equilibrium quartic E p^4 + Z p^3 + H p^2 + Theta p + I."""

    E: float
    Z: float
    H: float
    Theta: float
    I: float

    def as_tuple(self) -> tuple[float, float, float, float, float]:
        return (self.E, self.Z, self.H, self.Theta, self.I)


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


def quartic_coefficients(
    params: SystemParams, F_L: float, variant: ModelVariant | None = None
) -> QuarticD:
    """Equilibrium quartic coefficients for a given latch force.

    AS_PRINTED carries the published mass factors (1/M^2 on spring terms,
    1/m^2 on latch-force terms); the constraint-consistent variant has
    them cancelled.
    """
    var = params.variant_or(variant)
    m, M, R, k, p0 = params.m, params.M, params.R, params.k, params.p0
    if var is ModelVariant.AS_PRINTED:
        im2, iM2 = 1.0 / (m * m), 1.0 / (M * M)
    else:
        im2 = iM2 = 1.0
    k2 = k * k
    fl2 = F_L * F_L
    return QuarticD(
        E=-k2 * iM2,
        Z=2.0 * R * k2 * iM2 + 2.0 * k2 * p0 * iM2,
        H=-(fl2 * im2 + k2 * p0 * p0 * iM2 + 4.0 * R * k2 * p0 * iM2),
        Theta=2.0 * fl2 * R * im2 + 2.0 * R * k2 * p0 * p0 * iM2,
        I=-fl2 * R * R * im2,
    )


def eval_quartic(q: QuarticD, p: float) -> float:
    """Horner evaluation of D(p)."""
    return (((q.E * p + q.Z) * p + q.H) * p + q.Theta) * p + q.I


def eval_quartic_derivative(q: QuarticD, p: float) -> float:
    """Horner evaluation of D'(p)."""
    return ((4.0 * q.E * p + 3.0 * q.Z) * p + 2.0 * q.H) * p + q.Theta


def roots_in_interval(
    q: QuarticD, lo: float, hi: float, tol: float = 1e-12
) -> list[float]:
    """All real roots of D in the open interval (lo, hi), sorted ascending.

    A 1024-point grid scan brackets sign changes (the quartic has at most
    four real roots, so the grid is far denser than needed); each bracket
    is narrowed by bisection until its width is at most ``tol``.
    """
    if not lo < hi:
        raise ValueError(f"need lo < hi, got ({lo}, {hi})")
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    grid = np.linspace(lo, hi, 1024)
    e, z, h, th, i = q.as_tuple()
    vals = (((e * grid + z) * grid + h) * grid + th) * grid + i

    roots: list[float] = []
    for j in range(grid.size - 1):
        a, b = float(grid[j]), float(grid[j + 1])
        fa, fb = float(vals[j]), float(vals[j + 1])
        if fa == 0.0:
            if a != lo:
                roots.append(a)
            continue
        if fa * fb >= 0.0:
            continue
        while b - a > tol:
            mid = 0.5 * (a + b)
            fm = eval_quartic(q, mid)
            if fm == 0.0:
                a = b = mid
                break
            if fa * fm < 0.0:
                b = mid
            else:
                a, fa = mid, fm
        roots.append(0.5 * (a + b))
    return roots


def balance_residual(
    params: SystemParams, p: float, F_L: float, variant: ModelVariant | None = None
) -> float:
    """Signed residual of the unsquared equilibrium balance at p.

    Zero (to round-off) exactly at genuine equilibria; the squared quartic
    cannot distinguish the sign of the two sides, this can.  The latch
    position is l = sqrt(p (2R - p)), which, unlike sqrt(R^2 - (R - p)^2),
    keeps its digits as p -> 0.  Raises ValueError for p outside [0, 2R].
    """
    var = params.variant_or(variant)
    if p < 0.0 or p > 2.0 * params.R:
        raise ValueError(f"p={p} outside the contact window [0, {2.0 * params.R}]")
    l = math.sqrt(p * (2.0 * params.R - p))
    if var is ModelVariant.AS_PRINTED:
        c1, c2 = 1.0 / params.M, 1.0 / params.m
    else:
        c1 = c2 = 1.0
    return spring_force(params, p) * l * c1 - (p - params.R) * F_L * c2


def equilibrium_field_residual(
    params: SystemParams, fp: FixedPoint, variant: ModelVariant | None = None
) -> np.ndarray:
    """Full 4-state field evaluated at the candidate rest state."""
    latched = fp.mode is Mode.LATCHED
    return np.array(
        _field_arr(
            params,
            fp.rest_state().as_array(),
            fp.F_L_star,
            latched,
            params.variant_or(variant),
        )
    )


def _make_fp(
    params: SystemParams,
    p_star: float,
    l_star: float,
    F_L: float,
    var: ModelVariant,
    origin: bool = False,
) -> FixedPoint:
    res = _field_arr(params, (p_star, 0.0, l_star, 0.0), F_L, True, var)
    tol = _VANISH_TOL * max(1.0, abs(F_L), params.k * params.p0)
    vanishing = tuple([i for i, r in enumerate(res) if abs(r) <= tol])
    return FixedPoint(p_star, l_star, F_L, Mode.LATCHED, origin, vanishing)


def _arc_point(
    params: SystemParams, ck: float, F_L: float, sigma: float, u: float, stop: float
) -> tuple[float, float]:
    """(p, l) of the balance's root on one monotone piece of an arc.

    ``sigma`` is +1 on the near arc (cos theta = 1/s) and -1 on the far arc
    (cos theta = -1/s), with u = |tan theta| and s = sqrt(1 + u^2); there
    the balance reads -c k (sigma a + R/s) u = F_L.  Newton's iteration
    starts at ``u`` and, the balance being convex in u, moves monotonically
    towards the root, which lies between ``u`` and ``stop``; it ends when an
    iterate stops moving on (the rounding floor).  Raises
    EquilibriumBalanceError when the balance residual at the result is not
    small against its terms.
    """
    R, sa = params.R, sigma * (params.p0 - params.R)
    up = stop > u
    for _ in range(_NEWTON_MAX_ITER):
        s = math.hypot(1.0, u)
        slope = -ck * (sa + R / s**3)
        if slope == 0.0:
            break
        u_new = u + (ck * (sa + R / s) * u + F_L) / slope
        u_new = min(u_new, stop) if up else max(u_new, stop)
        if (u_new - u) * (stop - u) <= 0.0:
            break
        u = u_new
    s = math.hypot(1.0, u)
    residual = ck * (sa + R / s) * u + F_L
    if not abs(residual) <= _BALANCE_RTOL * max(abs(F_L), ck * u * (abs(sa) + R / s)):
        raise EquilibriumBalanceError(
            f"balance residual {residual:.3e} at tan(theta)={u!r}, F_L={F_L!r}"
        )
    l = R * (u / s)
    return (l * u / (1.0 + s) if sigma > 0.0 else R + R / s), l


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


def fixed_points(
    params: SystemParams,
    F_L: float,
    variant: ModelVariant | None = None,
) -> list[FixedPoint]:
    """Latched-mode equilibrium set for one latch force, in ascending p.

    * F_L > 0: empty.
    * F_L = 0: exactly the origin.
    * F_L < 0: the origin (flagged; its latch row does not vanish), exactly
      one near-arc point in (0, R), and, when p0 < 2R and F_L > F_min, the
      far pair in (p0, 2R) (a single point at the fold F_L = F_min).

    Each point is a Newton solve of the balance in the circle's angle (see
    the module docstring); a residual that fails the postcondition raises
    EquilibriumBalanceError.
    """
    var = params.variant_or(variant)
    if F_L > 0.0:
        return []
    origin = _make_fp(params, 0.0, 0.0, F_L, var, origin=True)
    if F_L == 0.0:
        return [origin]

    ck = params.k * (params.m / params.M if var is ModelVariant.AS_PRINTED else 1.0)
    a = params.p0 - params.R
    arcs = [(1.0, -F_L / (ck * params.p0), -F_L / (ck * a))]
    fold = _far_fold(params, ck)
    if fold is not None and F_L == fold[1]:
        arcs.append((-1.0, fold[0], fold[0]))
    elif fold is not None and F_L > fold[1]:
        u_p0 = math.sqrt((params.R / a) ** 2 - 1.0)
        arcs += [(-1.0, u_p0, fold[0]), (-1.0, 0.0, fold[0])]
    out = [origin]
    for sigma, u, stop in arcs:
        p, l = _arc_point(params, ck, F_L, sigma, u, stop)
        out.append(_make_fp(params, p, l, F_L, var))
    return out


def unlatched_fixed_point(params: SystemParams) -> FixedPoint:
    """Rest point of the unlatched mode: spring at natural length, F_L = 0.

    The latch position is unconstrained there (``l_star`` is None).
    """
    return FixedPoint(p_star=params.p0, l_star=None, F_L_star=0.0, mode=Mode.UNLATCHED)
