"""Linearization and saddle classification of latched rest states.

The latched closed-loop field (contact force substituted as a function of
the state) linearized at a zero-velocity point has the sparsity

    J = [[0, 1, 0, 0],
         [A, 0, B, 0],
         [0, 0, 0, 1],
         [G, 0, D, 0]]

i.e. rows 1 and 3 are trivial and the velocity columns of rows 2 and 4
vanish because the contact force is even in the velocities.  The
characteristic polynomial is therefore biquadratic,

    lam^4 - h2 lam^2 + h1 = 0,   h1 = A*D - B*G,  h2 = A + D,

and saddle-ness depends only on (h1, h2): h1 < 0, or h1 >= 0 with
h2 > 0.

At a rest state (p, 0, l, 0) the contact force is tau = N/W with
N = (R - p) F_s/m - l F_L/d and W = (R - p)^2/m + l^2/M (d = m printed,
d = M derived), so the entries follow in closed form:

    A = (-k + tau - (R - p) tau_p)/m,   B = -(R - p) tau_l/m,
    G = l tau_p/M,                      D = (tau + l tau_l)/M,

with tau_p, tau_l the partials of N/W by the quotient rule.
``_latched_abgd`` evaluates them with plain arithmetic, for floats or for
whole broadcast arrays of rest states; ``stability_report`` and the
bifurcation module's raster and path use it.  Central finite
differences of the field (``_fd_abgd``, ``jacobian_fd_at``) remain as
its oracle and for the published design check.  The published
closed-form entries are kept verbatim in ``closed_form_ABGD`` purely as a
cross-check (they carry transcription artifacts and are not trusted).

A structural note that matters for tests: h1 vanishes identically at
every equilibrium of either variant (the determinant of the position
block factors through the equilibrium balance), so classification on the
branch always goes through the h1 ~ 0, h2 > 0 case with a spectrum
{+sqrt(h2), -sqrt(h2), 0, 0}.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .errors import StructureViolationError
from .model import ModelVariant, SystemParams, SystemState, _field_arr
from .equilibria import FixedPoint

__all__ = [
    "Classification",
    "StabilityReport",
    "jacobian_fd",
    "jacobian_fd_at",
    "extract_ABGD",
    "characteristic_invariants",
    "eigenvalues_biquadratic",
    "classify",
    "real_pair_exists",
    "closed_form_ABGD",
    "stability_report",
]

_FD_BASE = float(np.finfo(float).eps) ** (1.0 / 3.0)
_STRUCTURE_TOL = 1e-6
_SADDLE_RTOL = 1e-9


class Classification(Enum):
    SADDLE = "Saddle"
    NON_SADDLE = "NonSaddle"
    MARGINAL = "Marginal"


@dataclass(frozen=True)
class StabilityReport:
    A: float
    B: float
    Gamma: float
    Delta: float
    h1: float
    h2: float
    eigenvalues: tuple[complex, complex, complex, complex]
    classification: Classification


def _latched_abgd(params: SystemParams, p, l, F_L, var: ModelVariant):
    """(A, B, Gamma, Delta) of the latched closed-loop field at rest states (p, 0, l, 0).

    The closed form of the module docstring in plain arithmetic, so p, l
    and F_L may be floats or numpy arrays that broadcast together.  The
    contact-force denominator W must be positive, as on every on-circle
    state with p < R.
    """
    m, M, k = params.m, params.M, params.k
    d = m if var is ModelVariant.AS_PRINTED else M
    rp = params.R - p
    fs = -k * (p - params.p0)
    w = rp * rp / m + l * l / M
    tau = (rp * fs / m - l * F_L / d) / w
    tau_p = ((-fs - k * rp) / m + 2.0 * rp * tau / m) / w
    tau_l = (-F_L / d - 2.0 * l * tau / M) / w
    return (-k + tau - rp * tau_p) / m, -rp * tau_l / m, l * tau_p / M, (tau + l * tau_l) / M


def _fd_abgd(
    params: SystemParams,
    x: Sequence[float],
    F_L: float,
    var: ModelVariant,
    fd_step: float | None = None,
) -> tuple[float, float, float, float]:
    """(A, B, Gamma, Delta) of the latched closed-loop field at a rest state x.

    Central differences of the acceleration rows in all four coordinates,
    with step ``fd_step * max(1, |x_j|)`` (default eps^(1/3)).  Raises
    StructureViolationError when a velocity column of those rows does not
    vanish within ``extract_ABGD``'s default tolerance, as at a moving
    state.
    """
    base = _FD_BASE if fd_step is None else fd_step
    if not base > 0.0:
        raise ValueError("fd_step must be positive")
    p, v, l, w = x
    hp, hv, hl, hw = (base * max(1.0, abs(c)) for c in x)
    cols = []
    for h, xp, xm in (
        (hp, (p + hp, v, l, w), (p - hp, v, l, w)),
        (hv, (p, v + hv, l, w), (p, v - hv, l, w)),
        (hl, (p, v, l + hl, w), (p, v, l - hl, w)),
        (hw, (p, v, l, w + hw), (p, v, l, w - hw)),
    ):
        fp = _field_arr(params, xp, F_L, True, var)
        fm = _field_arr(params, xm, F_L, True, var)
        cols.append(((fp[1] - fm[1]) / (2.0 * h), (fp[3] - fm[3]) / (2.0 * h)))
    (a, g), vel_p, (b, d), vel_l = cols
    scale = max(1.0, abs(a), abs(b), abs(g), abs(d))
    if max(map(abs, (*vel_p, *vel_l))) > _STRUCTURE_TOL * scale:
        raise StructureViolationError(
            f"velocity columns (J[2,2], J[4,2]) = {vel_p}, (J[2,4], J[4,4]) = {vel_l} "
            "exceed tolerance"
        )
    return a, b, g, d


def jacobian_fd_at(
    params: SystemParams,
    state: SystemState,
    F_L: float,
    variant: ModelVariant | None = None,
    fd_step: float | None = None,
) -> np.ndarray:
    """Central-difference Jacobian of the latched closed-loop field at a rest state.

    Rows 1 and 3 are (0,1,0,0) and (0,0,0,1) by construction; the
    acceleration rows carry ``_fd_abgd``'s entries, and their velocity
    columns are zero (a state where they are not raises
    StructureViolationError).
    """
    A, B, G, D = _fd_abgd(params, state, F_L, params.variant_or(variant), fd_step)
    return np.array(
        [[0.0, 1.0, 0.0, 0.0], [A, 0.0, B, 0.0], [0.0, 0.0, 0.0, 1.0], [G, 0.0, D, 0.0]]
    )


def jacobian_fd(
    params: SystemParams,
    fp: FixedPoint,
    variant: ModelVariant | None = None,
    fd_step: float | None = None,
) -> np.ndarray:
    """Jacobian of the latched closed-loop field at a fixed point's rest state."""
    return jacobian_fd_at(params, fp.rest_state(), fp.F_L_star, variant, fd_step)


def extract_ABGD(J: np.ndarray, tol: float = _STRUCTURE_TOL) -> tuple[float, float, float, float]:
    """Read (A, B, Gamma, Delta) out of a latched-mode Jacobian.

    Raises StructureViolationError when the matrix does not have the
    expected sparsity within ``tol`` (relative to the position-column
    magnitudes): rows 1 and 3 must be the unit-velocity template and the
    velocity columns of rows 2 and 4 must vanish.
    """
    J = np.asarray(J, dtype=float)
    if J.shape != (4, 4):
        raise StructureViolationError(f"expected a 4x4 matrix, got shape {J.shape}")
    a, b = J[1, 0], J[1, 2]
    g, d = J[3, 0], J[3, 2]
    scale = max(1.0, abs(a), abs(b), abs(g), abs(d))
    template = np.zeros((4, 4))
    template[0, 1] = 1.0
    template[2, 3] = 1.0
    for i in (0, 2):
        if np.max(np.abs(J[i] - template[i])) > tol * scale:
            raise StructureViolationError(f"row {i + 1} deviates from the (0,1,0,0) template: {J[i]}")
    for (i, j) in ((1, 1), (1, 3), (3, 1), (3, 3)):
        if abs(J[i, j]) > tol * scale:
            raise StructureViolationError(
                f"velocity-column entry J[{i + 1},{j + 1}]={J[i, j]} exceeds tolerance"
            )
    return float(a), float(b), float(g), float(d)


def characteristic_invariants(
    A: float, B: float, Gamma: float, Delta: float
) -> tuple[float, float]:
    """(h1, h2) = (A*Delta - B*Gamma, A + Delta)."""
    return A * Delta - B * Gamma, A + Delta


def eigenvalues_biquadratic(h1: float, h2: float) -> tuple[complex, complex, complex, complex]:
    """All four roots of lam^4 - h2 lam^2 + h1 = 0.

    Solves mu^2 - h2 mu + h1 = 0 and takes lam = +/- sqrt(mu) for each
    root, so the spectrum is closed under negation and conjugation.  The
    larger-magnitude root comes first, mu1 = (h2 +/- disc)/2 with the sign
    that avoids cancellation, and mu2 = h1/mu1 (Vieta), so a tiny h1 keeps
    its small pair +/- sqrt(h1/h2) instead of rounding it to zero.
    """
    disc = cmath.sqrt(complex(h2 * h2 - 4.0 * h1))
    if h2 * disc.real < 0.0:
        disc = -disc
    mu1 = 0.5 * (h2 + disc)
    mu2 = h1 / mu1 if mu1 else 0j
    r1 = cmath.sqrt(mu1)
    r2 = cmath.sqrt(mu2)
    return (r1, -r1, r2, -r2)


def _saddle_eps(h1: float, h2: float) -> float:
    """Default tolerance band of the saddle test.

    It scales with the invariants (1e-9 of the larger, at least 1e-9) to
    absorb round-off.
    """
    return _SADDLE_RTOL * max(1.0, abs(h1), abs(h2))


def _is_saddle(h1, h2, eps=None):
    """The saddle set h1 < -eps or h2 > eps, for floats or arrays.

    Without ``eps`` the band is ``_saddle_eps``'s, tested one term of its
    max at a time: h1 < -eps iff h1 lies below each term's negative, and
    h2 > eps iff h2 lies above each term.  That is the same test, a NaN
    invariant included, and keeps numpy out of the scalar path.
    """
    if eps is not None:
        return (h1 < -eps) | (h2 > eps)
    below, above = h1 < -_SADDLE_RTOL, h2 > _SADDLE_RTOL
    for term in (_SADDLE_RTOL * abs(h1), _SADDLE_RTOL * abs(h2)):
        below = below & (h1 < -term)
        above = above & (h2 > term)
    return below | above


def classify(h1: float, h2: float, eps: float | None = None) -> Classification:
    """Saddle test on the characteristic invariants.

    Saddle iff h1 < -eps, or h1 >= -eps with h2 > eps; Marginal when both
    invariants sit inside the tolerance band (the boundary case is
    numerically undecidable); NonSaddle otherwise.  The default tolerance
    is ``_saddle_eps``.
    """
    if eps is not None and eps < 0.0:
        raise ValueError("eps must be non-negative")
    if _is_saddle(h1, h2, eps):
        return Classification.SADDLE
    if eps is None:
        # a NaN invariant fails the band test whatever eps is
        eps = _saddle_eps(h1, h2)
    if abs(h1) <= eps and abs(h2) <= eps:
        return Classification.MARGINAL
    return Classification.NON_SADDLE


def real_pair_exists(
    eigenvalues: tuple[complex, ...], rel_tol: float = 1e-9
) -> bool:
    """True when the spectrum contains a real pair +/-a with a > 0.

    This is the eigenvalue-level definition of a saddle; used to
    cross-check ``classify``.  An eigenvalue counts as real when its
    imaginary part is negligible against its magnitude.
    """
    for lam in eigenvalues:
        mag = abs(lam)
        if mag == 0.0:
            continue
        if abs(lam.imag) <= rel_tol * mag and lam.real > rel_tol * mag:
            return True
    return False


def closed_form_ABGD(
    params: SystemParams, fp: FixedPoint, F_L: float | None = None
) -> tuple[float, float, float, float]:
    """Published closed-form Jacobian entries, transcribed verbatim.

    Kept only for comparison output against ``jacobian_fd``: the printed
    expressions contain probable transcription artifacts (A's
    parenthesization is ambiguous, Delta's sign disagrees with finite
    differences at the origin), so agreement is never asserted.
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


def stability_report(
    params: SystemParams,
    fp: FixedPoint,
    variant: ModelVariant | None = None,
    eps: float | None = None,
) -> StabilityReport:
    """Full linearization record at a fixed point: closed-form entries,
    invariants, spectrum and classification."""
    p, _, l, _ = fp.rest_state()
    A, B, G, D = _latched_abgd(params, p, l, fp.F_L_star, params.variant_or(variant))
    h1, h2 = characteristic_invariants(A, B, G, D)
    eigs = eigenvalues_biquadratic(h1, h2)
    return StabilityReport(
        A=A,
        B=B,
        Gamma=G,
        Delta=D,
        h1=h1,
        h2=h2,
        eigenvalues=eigs,
        classification=classify(h1, h2, eps),
    )
