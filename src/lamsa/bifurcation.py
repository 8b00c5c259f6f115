"""Tracing the moving saddle and detecting its disappearance at (0, 0).

Implicit differentiation of the equilibrium quartic D(p; F_L) = 0 gives
the slope of the saddle locus,

    dp*/dF_L = -(dD/dF_L) / (dD/dp),

which is integrated in F_L with an Euler predictor and a Newton corrector
back onto D = 0 (raw integration of the slope equation drifts off the
root locus).  The published form of the same slope, Lambda/(Sigma+Pi), is
retained verbatim behind ``NominalFormula.PUBLISHED`` for comparison
only: its printed denominator disagrees in sign (and one term in powers)
with the implicit derivative of the printed quartic.

As F_L rises to zero the interior saddle slides into the stationary point
at p = 0 and no equilibrium survives for F_L > 0: the branch terminates,
which is the bifurcation that releases the projectile.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import (
    CorrectorDivergenceError,
    InvalidStartError,
    SingularBoundError,
    SingularDenominatorError,
)
from .model import ModelVariant, SystemParams, SystemState, latch_from_projectile
from .equilibria import (
    QuarticD,
    balance_residual,
    eval_quartic,
    eval_quartic_derivative,
    quartic_coefficients,
)
from .stability import (
    _is_saddle,
    _latched_abgd,
    characteristic_invariants,
    extract_ABGD,
    jacobian_fd_at,
)

__all__ = [
    "NominalFormula",
    "PathTerminal",
    "PathSample",
    "ContinuationPath",
    "UMembership",
    "RegionMap",
    "DesignReport",
    "nominal_rhs",
    "trace_path",
    "in_region_U",
    "saddle_region_map",
    "design_feasibility",
]

_DENOM_TOL = 1e-10
_START_BALANCE_TOL = 1e-8
_DEFAULT_FL_STEP = 0.05


class NominalFormula(Enum):
    IMPLICIT_DIFF = "implicit"
    PUBLISHED = "printed"


class PathTerminal(Enum):
    REACHED_ZERO_FORCE = "ReachedZeroForce"
    DENOMINATOR_SINGULAR = "DenominatorSingular"
    LEFT_DOMAIN = "LeftDomain"


@dataclass(frozen=True)
class PathSample:
    """One continuation sample; h2 = A + Delta there (the saddle's eigenvalues are +/- sqrt(h2))."""

    F_L: float
    p_star: float
    in_S: bool
    h2: float


@dataclass(frozen=True)
class ContinuationPath:
    samples: tuple[PathSample, ...]
    terminal: PathTerminal

    @property
    def final(self) -> PathSample:
        return self.samples[-1]


@dataclass(frozen=True)
class UMembership:
    """Printed-denominator sign test plus the implicit-diff diagnostic."""

    in_u: bool
    sigma_plus_pi: float
    quartic_dp: float


@dataclass(frozen=True)
class RegionMap:
    """Saddle-condition raster over a (p, F_L) grid of on-circle rest states."""

    p_grid: np.ndarray
    F_L_grid: np.ndarray
    h1: np.ndarray
    h2: np.ndarray
    in_S: np.ndarray


@dataclass(frozen=True)
class DesignReport:
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


def _dD_dFL(params: SystemParams, p: float, F_L: float, var: ModelVariant) -> float:
    im2 = 1.0 / (params.m * params.m) if var is ModelVariant.AS_PRINTED else 1.0
    R = params.R
    return (-2.0 * F_L * im2) * p * p + (4.0 * R * F_L * im2) * p - 2.0 * F_L * R * R * im2


def _dp_singular(q: QuarticD, p, den):
    """|dD/dp| < _DENOM_TOL * max(1, |terms of dD/dp|), for floats or arrays.

    Written as one comparison per term, which is the same test and keeps
    numpy out of the scalar path.
    """
    a = abs(den)
    out = a < _DENOM_TOL
    for term in (4.0 * q.E * p**3, 3.0 * q.Z * p * p, 2.0 * q.H * p, q.Theta):
        out = out | (a < _DENOM_TOL * abs(term))
    return out


def _implicit_slope(params: SystemParams, p, F_L, var: ModelVariant, q: QuarticD | None = None):
    """(slope, singular): dp*/dF_L = -(dD/dF_L)/(dD/dp) of the quartic at (p, F_L).

    p and F_L may be floats or numpy arrays that broadcast together; ``q``,
    when given, is the quartic at F_L.  ``singular`` flags where dD/dp is
    numerically zero (a fold of the branch would look like this); the
    slope there is nan.
    """
    if q is None:
        q = quartic_coefficients(params, F_L, var)
    den = eval_quartic_derivative(q, p)
    singular = _dp_singular(q, p, den)
    if isinstance(singular, np.ndarray):
        den = np.where(singular, np.nan, den)
    elif singular:
        return float("nan"), True
    return -_dD_dFL(params, p, F_L, var) / den, singular


def nominal_rhs(
    params: SystemParams,
    p: float,
    F_L: float,
    variant: ModelVariant | None = None,
    formula: NominalFormula = NominalFormula.IMPLICIT_DIFF,
) -> float:
    """Slope dp*/dF_L of the equilibrium branch at (p, F_L).

    IMPLICIT_DIFF differentiates the quartic actually solved by the
    equilibrium module and is the formula used for continuation;
    PUBLISHED evaluates the published Lambda/(Sigma+Pi) verbatim.
    Raises SingularDenominatorError when the respective denominator is
    numerically zero (a fold of the branch would look like this).
    """
    var = params.variant_or(variant)
    if formula is NominalFormula.IMPLICIT_DIFF:
        slope, singular = _implicit_slope(params, p, F_L, var)
        if singular:
            raise SingularDenominatorError(f"dD/dp ~ 0 at p={p}, F_L={F_L}")
        return slope
    M, R = params.M, params.R
    lam = -(M * M) * (p - R) ** 2 * F_L
    sig_pi = _sigma_plus_pi(params, p, F_L)
    if abs(sig_pi) < _DENOM_TOL * max(1.0, abs(lam)):
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
    return UMembership(
        in_u=sig_pi < 0.0,
        sigma_plus_pi=sig_pi,
        quartic_dp=eval_quartic_derivative(q, p),
    )


def _in_S_at(params: SystemParams, p: float, F_L: float, var: ModelVariant) -> tuple[float, bool]:
    """(h2, saddle?) at the on-circle rest state (p, F_L)."""
    A, B, G, D = _latched_abgd(params, p, latch_from_projectile(params, p), F_L, var)
    h1, h2 = characteristic_invariants(A, B, G, D)
    return h2, _is_saddle(h1, h2)


def trace_path(
    params: SystemParams,
    start: tuple[float, float],
    F_L_end: float = 0.0,
    variant: ModelVariant | None = None,
    step_tol: float = 1e-10,
) -> ContinuationPath:
    """Continue the interior equilibrium from ``start = (p*, F_L0)`` to F_L_end.

    Euler predictor in F_L (step at most 0.05, shrunk on corrector
    trouble) followed by Newton correction back onto D(p; F_L) = 0.  The
    start must satisfy the equilibrium balance; the path never extends
    past F_L = 0, where the branch ceases to exist.  Terminates with
    REACHED_ZERO_FORCE at F_L_end, DENOMINATOR_SINGULAR at a fold, or
    LEFT_DOMAIN when the corrected root exits [0, R).
    """
    var = params.variant_or(variant)
    p_start, fl_start = float(start[0]), float(start[1])
    if not fl_start < F_L_end and not (p_start == 0.0 and fl_start == F_L_end):
        raise InvalidStartError(
            f"need F_L0 < F_L_end, got F_L0={fl_start}, F_L_end={F_L_end}"
        )
    if F_L_end > 0.0:
        raise InvalidStartError("the equilibrium branch does not extend past F_L = 0")
    res = balance_residual(params, p_start, fl_start, var)
    scale = max(1.0, abs(params.k * params.p0 * params.R), abs(fl_start * params.R))
    if abs(res) > _START_BALANCE_TOL * scale:
        raise InvalidStartError(
            f"start ({p_start}, {fl_start}) violates the equilibrium balance "
            f"(residual {res:.3e})"
        )

    h2, in_s = _in_S_at(params, p_start, fl_start, var)
    samples = [PathSample(fl_start, p_start, in_s, h2)]
    p, fl = p_start, fl_start
    slope, singular = _implicit_slope(params, p, fl, var)
    dfl = _DEFAULT_FL_STEP

    while fl < F_L_end - 1e-14:
        if singular:  # only at the start: a singular sample ends the path below
            return ContinuationPath(tuple(samples), PathTerminal.DENOMINATOR_SINGULAR)
        dfl = min(dfl, F_L_end - fl)
        while True:
            fl_new = fl + dfl
            if F_L_end - fl_new < 1e-14:
                fl_new = F_L_end
            q = quartic_coefficients(params, fl_new, var)
            corrected, iters = _newton_correct(q, p + dfl * slope, step_tol)
            if corrected is not None:
                break
            dfl *= 0.5
            if dfl < 1e-9:
                raise CorrectorDivergenceError(
                    f"corrector kept failing near F_L={fl} (step shrank below 1e-9)"
                )

        p_new = corrected
        if abs(p_new) < 1e-12:
            p_new = 0.0
        if not 0.0 <= p_new < params.R:
            return ContinuationPath(tuple(samples), PathTerminal.LEFT_DOMAIN)

        # the corrector's quartic gives the fold test and the next predictor slope
        slope, singular = _implicit_slope(params, p_new, fl_new, var, q)
        h2, in_s = _in_S_at(params, p_new, fl_new, var)
        samples.append(PathSample(fl_new, p_new, in_s, h2))
        if singular:
            return ContinuationPath(tuple(samples), PathTerminal.DENOMINATOR_SINGULAR)
        p, fl = p_new, fl_new
        if iters <= 3:
            dfl = min(_DEFAULT_FL_STEP, dfl * 1.5)

    return ContinuationPath(tuple(samples), PathTerminal.REACHED_ZERO_FORCE)


def _newton_correct(
    q: QuarticD, p0: float, tol: float, max_iter: int = 12
) -> tuple[float | None, int]:
    """(root, iterations) of Newton's method on D from p0; root None on failure."""
    p = p0
    for it in range(1, max_iter + 1):
        f = eval_quartic(q, p)
        df = eval_quartic_derivative(q, p)
        if df == 0.0:
            return None, it
        step = f / df
        p -= step
        if abs(step) <= tol * max(1.0, abs(p)):
            return p, it
    return None, max_iter


def saddle_region_map(
    params: SystemParams,
    p_grid: np.ndarray,
    F_L_grid: np.ndarray,
    variant: ModelVariant | None = None,
) -> RegionMap:
    """Evaluate (h1, h2, saddle membership) on a raster of rest states.

    Grid nodes are zero-velocity on-circle states, not equilibria: the
    raster colours the whole (p, F_L) plane the way the saddle-region
    figure does.  The closed-form entries and the saddle test of
    ``stability`` run once over the whole broadcast grid, so every node
    equals what ``stability_report`` and ``classify`` give for it.
    Requires p in [0, R) (p = 0 is the preloaded rest state) and F_L <= 0.
    """
    var = params.variant_or(variant)
    p_grid = np.asarray(p_grid, dtype=float)
    F_L_grid = np.asarray(F_L_grid, dtype=float)
    if p_grid.size == 0 or F_L_grid.size == 0:
        raise ValueError("grids must be non-empty")
    if np.any(p_grid < 0.0) or np.any(p_grid >= params.R):
        raise ValueError("p grid must lie inside [0, R)")
    if np.any(F_L_grid > 0.0):
        raise ValueError("F_L grid must be non-positive")

    p = p_grid[:, None]
    rp = params.R - p
    l = np.sqrt(params.R * params.R - rp * rp)  # latch_from_projectile, node by node
    A, B, G, D = _latched_abgd(params, p, l, F_L_grid[None, :], var)
    h1, h2 = characteristic_invariants(A, B, G, D)
    in_s = _is_saddle(h1, h2)
    return RegionMap(p_grid=p_grid, F_L_grid=F_L_grid, h1=h1, h2=h2, in_S=in_s)


def design_feasibility(params: SystemParams) -> DesignReport:
    """Check the published design condition for a saddle-node at (0, 0).

    Evaluates the natural-length window p0 in (R, 4R), the published
    lower bound on p0, and the published closed-form h1 at (0, 0) (all
    verbatim), and cross-checks the latter against the finite-difference
    h1 at the origin rest state with F_L = 0.
    """
    m, M, R, k, p0 = params.m, params.M, params.R, params.k, params.p0
    if abs(M * R * R - 1.0) < 1e-12:
        raise SingularBoundError("published p0 bound is singular at M R^2 = 1")

    bound = (m * (m + M) ** 2 * R * R - R) / (2.0 * M * (M * R * R - 1.0))
    window_ok = R < p0 < 4.0 * R
    bound_ok = p0 > bound
    h1_closed = (k * k * p0 * (m + M * R) / (m * (m + M) ** 2 * R * R)) * (
        1.0 + M * (2.0 * (1.0 - M * R * R) * p0 - R) / (m * (m + M) ** 2 * R**3)
    )

    J = jacobian_fd_at(params, SystemState(0.0, 0.0, 0.0, 0.0), 0.0)
    A, B, G, D = extract_ABGD(J)
    h1_fd, _ = characteristic_invariants(A, B, G, D)

    return DesignReport(
        p0_window_ok=window_ok,
        p0_bound=bound,
        p0_bound_ok=bound_ok,
        h1_at_origin=h1_closed,
        h1_fd_origin=h1_fd,
        feasible=window_ok and bound_ok and h1_closed < 0.0,
    )
