"""Latched-mode equilibria as a function of the latch force.

Setting the projectile acceleration to zero with the contact force
substituted, and squaring away the square root of the constraint, turns
the equilibrium condition into a quartic D(p) whose coefficients depend
on F_L.  Squaring introduces spurious roots, so every quartic root is
re-validated against the unsquared force balance

    F_s(p) * l(p) * c1 = (p - R) * F_L * c2

(c1 = 1/M, c2 = 1/m for AS_PRINTED; c1 = c2 = 1 for the
constraint-consistent variant), which in particular rejects the root the
quartic always has between R and 2R.

For F_L < 0 there are exactly two latched equilibria: the stationary one
at p = 0 and one interior point in (0, R).  For F_L = 0 only the origin
remains, and for F_L > 0 there is none: a pulling force cannot balance
the spring.  Note that the origin (and, under AS_PRINTED, the interior
point) zeroes the projectile row of the vector field but leaves a latch
acceleration F_L/M (resp. F_L (m - M)/(m M)); ``vanishing_rows`` records
which components actually vanish.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import (
    Mode,
    ModelVariant,
    SystemParams,
    SystemState,
    _field_arr,
    latch_from_projectile,
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


@dataclass(frozen=True)
class FixedPoint:
    """A validated equilibrium of the latched (or unlatched) mode.

    ``l_star`` is None for the unlatched equilibrium, where the latch
    position is unconstrained.  ``vanishing_rows`` lists which components
    of the full 4-state field vanish at the point (all four only for the
    constraint-consistent interior point and the F_L = 0 origin).
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
    cannot distinguish the sign of the two sides, this can.
    """
    var = params.variant_or(variant)
    l = latch_from_projectile(params, p)
    if var is ModelVariant.AS_PRINTED:
        c1, c2 = 1.0 / params.M, 1.0 / params.m
    else:
        c1 = c2 = 1.0
    return spring_force(params, p) * l * c1 - (p - params.R) * F_L * c2


def _balance_ok(params: SystemParams, p: float, F_L: float, var: ModelVariant) -> bool:
    l = latch_from_projectile(params, p)
    if var is ModelVariant.AS_PRINTED:
        c1, c2 = 1.0 / params.M, 1.0 / params.m
    else:
        c1 = c2 = 1.0
    lhs = spring_force(params, p) * l * c1
    rhs = (p - params.R) * F_L * c2
    return abs(lhs - rhs) <= _BALANCE_RTOL * max(1.0, abs(lhs), abs(rhs))


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
    F_L: float,
    var: ModelVariant,
    origin: bool,
) -> FixedPoint:
    l_star = latch_from_projectile(params, p_star)
    res = _field_arr(
        params,
        np.array([p_star, 0.0, l_star, 0.0]),
        F_L,
        True,
        var,
    )
    scale = max(1.0, abs(F_L), params.k * params.p0)
    vanishing = tuple(i for i in range(4) if abs(res[i]) <= _VANISH_TOL * scale)
    return FixedPoint(
        p_star=p_star,
        l_star=l_star,
        F_L_star=F_L,
        mode=Mode.LATCHED,
        origin_flag=origin,
        vanishing_rows=vanishing,
    )


def fixed_points(
    params: SystemParams,
    F_L: float,
    variant: ModelVariant | None = None,
    root_tol: float = 1e-12,
) -> list[FixedPoint]:
    """Latched-mode equilibrium set for one latch force.

    * F_L > 0: empty (no pushing balance exists; a positive force also
      accelerates the latch at the origin).
    * F_L = 0: exactly the origin.
    * F_L < 0: the origin (flagged; its latch row does not vanish) plus
      exactly one sign-validated interior point in (0, R).  The quartic
      root in (R, 2R) always fails the sign check for F_L < 0 and is
      dropped.
    """
    var = params.variant_or(variant)
    if F_L > 0.0:
        return []
    origin = _make_fp(params, 0.0, F_L, var, origin=True)
    if F_L == 0.0:
        return [origin]

    q = quartic_coefficients(params, F_L, var)
    out = [origin]
    for root in roots_in_interval(q, 0.0, 2.0 * params.R, tol=root_tol):
        if _balance_ok(params, root, F_L, var):
            out.append(_make_fp(params, root, F_L, var, origin=False))
    return out


def unlatched_fixed_point(params: SystemParams) -> FixedPoint:
    """Rest point of the unlatched mode: spring at natural length, F_L = 0.

    The latch position is unconstrained there (``l_star`` is None).
    """
    return FixedPoint(
        p_star=params.p0,
        l_star=None,
        F_L_star=0.0,
        mode=Mode.UNLATCHED,
        origin_flag=False,
        vanishing_rows=(0, 1, 2, 3),
    )
