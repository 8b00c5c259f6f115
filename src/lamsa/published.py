"""The paper's printed formulas, transcribed verbatim, in one place.

No trusted result depends on them: the equilibria are solved in the
circle's angle (``equilibria``), the linearization is ``stability``'s
closed form, and the design check's Jacobian is a finite difference.
They stay for comparison, for the ``quiver`` direction field and the
``region-map`` U column, and some of them disagree with the model:

* The equilibrium quartic D(p; F_L) (``quartic_coefficients``) is the
  squared force balance, so it also has the spurious roots of the
  squared sign.  Its implicit slope dp*/dF_L = -(dD/dF_L)/(dD/dp)
  (``nominal_rhs``) is ``quiver``'s direction field.
* The printed slope Lambda/(Sigma+Pi) (``printed_slope``): its
  denominator disagrees in sign (and one term in powers) with dD/dp of
  the printed quartic.  Region U (``in_region_U``) is where that
  denominator is negative; the printed claim that U contains (0, 0) for
  p0 in (R, 4R) fails.
* The closed-form Jacobian entries (``closed_form_ABGD``): A's
  parenthesization is ambiguous, and Delta's sign disagrees with finite
  differences at the origin.
* The p0 lower bound and closed-form h1 at (0, 0)
  (``design_closed_form``): the finite-difference h1 is identically
  zero at the origin, so it cannot match the printed -0.50876
  (acceptance criterion 10).
"""

from __future__ import annotations

import functools
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .errors import SingularBoundError, SingularDenominatorError
from .model import SystemParams

if TYPE_CHECKING:
    from .equilibria import FixedPoint

__all__ = [
    "QuarticD",
    "quartic_coefficients",
    "eval_quartic",
    "eval_quartic_derivative",
    "roots_in_interval",
    "nominal_rhs",
    "printed_slope",
    "UMembership",
    "in_region_U",
    "closed_form_ABGD",
    "design_closed_form",
]

_DENOM_TOL = 1e-10


class QuarticD(NamedTuple):
    """Coefficients of the equilibrium quartic E p^4 + Z p^3 + H p^2 + Theta p + I."""

    E: float
    Z: float
    H: float
    Theta: float
    I: float


def quartic_coefficients(params: SystemParams, F_L: float) -> QuarticD:
    """Equilibrium quartic coefficients for a given latch force.

    The spring terms carry 1/M^2 and the latch-force terms 1/d^2, d the
    latch-force divisor: the published factors for AS_PRINTED (d = m),
    and for the constraint-consistent variant (d = M) its quartic scaled
    by 1/M^2.
    """
    R, k, p0, d = params.R, params.k, params.p0, params._d
    im2, iM2 = 1.0 / (d * d), 1.0 / (params.M * params.M)
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
    """Horner evaluation of D(p), for a float or an array p."""
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
    vals = eval_quartic(q, grid)

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


def _dD_dFL(params: SystemParams, p: float, F_L: float) -> float:
    im2 = 1.0 / (params._d * params._d)
    R = params.R
    return (-2.0 * F_L * im2) * p * p + (4.0 * R * F_L * im2) * p - 2.0 * F_L * R * R * im2


def _negligible(den, terms):
    """|den| <= _DENOM_TOL * max |term|, for floats or arrays: a denominator zero against its own terms.

    Relative to the terms only: at F_L = 0 every term of dD/dp and of
    Sigma+Pi scales with k^2, so an absolute floor would flag a soft
    spring's whole F_L = 0 line.  ``<=`` keeps an all-zero denominator
    singular.
    """
    return abs(den) <= _DENOM_TOL * functools.reduce(np.maximum, map(abs, terms))


def _dp_singular(q: QuarticD, p, den):
    """dD/dp = ``den`` at p is negligible against its terms (Theta > 0 keeps the bound positive)."""
    return _negligible(den, (q.Theta, 4.0 * q.E * p**3, 3.0 * q.Z * p * p, 2.0 * q.H * p))


def _implicit_slope(params: SystemParams, p, F_L):
    """(slope, singular): dp*/dF_L = -(dD/dF_L)/(dD/dp) of the quartic at (p, F_L).

    p and F_L may be floats or numpy arrays that broadcast together.
    ``singular`` flags where dD/dp is numerically zero (a fold of the
    quartic's root locus would look like this); the slope there is nan.
    """
    q = quartic_coefficients(params, F_L)
    den = eval_quartic_derivative(q, p)
    singular = _dp_singular(q, p, den)
    return -_dD_dFL(params, p, F_L) / np.where(singular, np.nan, den), singular


def nominal_rhs(params: SystemParams, p: float, F_L: float) -> float:
    """Slope dp*/dF_L of the equilibrium branch at (p, F_L): the quartic's implicit derivative.

    Raises SingularDenominatorError when dD/dp is numerically zero (a
    fold of the branch would look like this).
    """
    slope, singular = _implicit_slope(params, p, F_L)
    if singular:
        raise SingularDenominatorError(f"dD/dp ~ 0 at p={p}, F_L={F_L}")
    return float(slope)


def printed_slope(params: SystemParams, p: float, F_L: float) -> float:
    """The published slope Lambda/(Sigma+Pi) of the equilibrium branch at (p, F_L).

    Raises SingularDenominatorError when Sigma+Pi is numerically zero.
    """
    m, M, R, k, p0 = params.m, params.M, params.R, params.k, params.p0
    lam = -(M * M) * (p - R) ** 2 * F_L
    sig_pi = _sigma_plus_pi(params, p, F_L)
    mk2 = m * m * k * k
    terms = (F_L * F_L * M * M * (p - R), 2.0 * mk2 * k * k * p**3, mk2 * p * p0 * p0,
             3.0 * mk2 * p * p * (p0 + R), mk2 * (4.0 * R - p0) * p0 * R)
    if _negligible(sig_pi, terms):
        raise SingularDenominatorError(f"Sigma+Pi ~ 0 at p={p}, F_L={F_L}")
    return lam / sig_pi


def _sigma_plus_pi(params: SystemParams, p: float, F_L: float) -> float:
    # transcribed as printed, including the suspect 2 k^4 p^3 term
    m, M, R, k, p0 = params.m, params.M, params.R, params.k, params.p0
    sigma = F_L * F_L * M * M * (p - R)
    pi = m * m * (
        2.0 * k**4 * p**3
        + k * k * p * (p0 * p0 - 3.0 * p * (p0 + R))
        + (4.0 * R - p0) * p0 * R * k * k
    )
    return sigma + pi


class UMembership(NamedTuple):
    """Printed-denominator sign test plus the implicit-diff diagnostic."""

    in_u: bool
    sigma_plus_pi: float
    quartic_dp: float


def in_region_U(params: SystemParams, p: float, F_L: float) -> UMembership:
    """Membership in the printed negative-denominator set, with diagnostics.

    The published claim that this set contains (0, 0) for p0 in (R, 4R)
    conflicts with the printed expression's sign; both the printed value
    and the implicit-diff denominator dD/dp are reported so callers can
    see the discrepancy rather than having it resolved silently.  p and
    F_L may be numpy arrays that broadcast together; the fields are then
    arrays over the grid.
    """
    sig_pi = _sigma_plus_pi(params, p, F_L)
    q = quartic_coefficients(params, F_L)
    return UMembership(sig_pi < 0.0, sig_pi, eval_quartic_derivative(q, p))


def closed_form_ABGD(
    params: SystemParams, fp: FixedPoint, F_L: float | None = None
) -> tuple[float, float, float, float]:
    """Published closed-form Jacobian entries (A, B, Gamma, Delta) at a fixed point.

    Kept only for comparison against finite differences: agreement is
    never asserted (see the module docstring).
    """
    m, M, R, k, p0 = params.m, params.M, params.R, params.k, params.p0
    p = fp.p_star
    l = 0.0 if fp.l_star is None else fp.l_star
    fl = fp.F_L_star if F_L is None else F_L
    den = l * l * m + M * (p - R) ** 2

    n1 = fl * l + 2.0 * k * p0 * p - k * (3.0 * p * p + 4.0 * p * R - 2.0 * p0 * R + R * R)
    n2 = (
        R * (-fl * l + k * p0 * R)
        + p * (fl * l + k * (2.0 * p0 - R) * R)
        + p * p * (k * (p0 - 2.0 * R))
        - p**3 * k
    )
    A = (-1.0 / (m * m)) * (k * m + M * n1 / den + 2.0 * M * M * (p - R) * n2 / den**2)
    B = fl * M * (l * l * m - M * (p - R) ** 2) * (p - R) / (m * den**2)
    Delta = (
        fl * l * (m - 2.0 * l * l * m - 2.0 * M * (p - R) ** 2)
        + k * (p0 - p) * (-l * l * m + M * (p - R) ** 2) * (p - R)
    ) / den**2
    Gamma = (
        l
        * (
            2.0 * fl * l * m * M * (p - R)
            + k * (2.0 * m * M * (-p + p0) + m * M * (2.0 * p - p0 - R)) * (p - R) ** 2
            + k * l * l * m * m * (2.0 * p - p0 - R)
        )
    ) / den**2
    return float(A), float(B), float(Gamma), float(Delta)


def design_closed_form(params: SystemParams) -> tuple[float, float]:
    """(p0 bound, h1 at (0, 0)): the published lower bound on p0 and closed-form h1 at the origin.

    Raises SingularBoundError at M R^2 = 1, where the bound's denominator
    vanishes.
    """
    m, M, R, k, p0 = params.m, params.M, params.R, params.k, params.p0
    if abs(M * R * R - 1.0) < 1e-12:
        raise SingularBoundError("published p0 bound is singular at M R^2 = 1")
    bound = (m * (m + M) ** 2 * R * R - R) / (2.0 * M * (M * R * R - 1.0))
    h1 = (k * k * p0 * (m + M * R) / (m * (m + M) ** 2 * R * R)) * (
        1.0 + M * (2.0 * (1.0 - M * R * R) * p0 - R) / (m * (m + M) ** 2 * R**3)
    )
    return bound, h1
