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
whole broadcast arrays of rest states; ``stability_report``, the
``classify`` command's sweep and the bifurcation module's raster and
path use it.  ``jacobian_fd_at``, the central-difference Jacobian of the
field, serves only the published design check.  The published
closed-form entries, which carry transcription artifacts, are in
``lamsa.published`` with the paper's other printed formulas.

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
import numpy as np

from .errors import StructureViolationError
from .model import _PRINTED, SystemParams, SystemState, _field_arr
from .equilibria import FixedPoint

__all__ = [
    "Classification",
    "StabilityReport",
    "jacobian_fd_at",
    "characteristic_invariants",
    "eigenvalues_biquadratic",
    "classify",
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


def _latched_abgd(params: SystemParams, p, l, F_L):
    """(A, B, Gamma, Delta) of the latched closed-loop field at rest states (p, 0, l, 0).

    The closed form of the module docstring in plain arithmetic, so p, l
    and F_L may be floats or numpy arrays that broadcast together.  The
    contact-force denominator W must be positive, as on every on-circle
    state with p < R.
    """
    m, M, k = params.m, params.M, params.k
    d = m if params.variant is _PRINTED else M
    rp = params.R - p
    fs = -k * (p - params.p0)
    w = rp * rp / m + l * l / M
    tau = (rp * fs / m - l * F_L / d) / w
    tau_p = ((-fs - k * rp) / m + 2.0 * rp * tau / m) / w
    tau_l = (-F_L / d - 2.0 * l * tau / M) / w
    return (-k + tau - rp * tau_p) / m, -rp * tau_l / m, l * tau_p / M, (tau + l * tau_l) / M


def jacobian_fd_at(params: SystemParams, state: SystemState, F_L: float) -> np.ndarray:
    """Central-difference Jacobian of the latched closed-loop field at a rest state.

    The acceleration rows are differenced in every coordinate x_j with step
    eps^(1/3) max(1, |x_j|); rows 1 and 3 are (0,1,0,0) and (0,0,0,1).  The
    velocity columns of the acceleration rows are returned as exact zeros;
    where their differences exceed 1e-6 of the largest position entry, as
    at a moving state, StructureViolationError is raised.
    """
    J = np.zeros((4, 4))
    J[0, 1] = J[2, 3] = 1.0
    for j, c in enumerate(state):
        h = _FD_BASE * max(1.0, abs(c))
        xp, xm = list(state), list(state)
        xp[j], xm[j] = c + h, c - h
        fp, fm = _field_arr(params, xp, F_L), _field_arr(params, xm, F_L)
        J[1, j], J[3, j] = (fp[1] - fm[1]) / (2.0 * h), (fp[3] - fm[3]) / (2.0 * h)
    velocity = J[1::2, 1::2]  # (J[2,2], J[2,4]; J[4,2], J[4,4]), a view
    if np.abs(velocity).max() > _STRUCTURE_TOL * max(1.0, np.abs(J[1::2, ::2]).max()):
        raise StructureViolationError(f"velocity columns {velocity.tolist()} exceed tolerance")
    velocity[:] = 0.0
    return J


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


def _saddle_test(h1, h2, eps=None):
    """(saddle, marginal) masks of the saddle test, for floats or arrays.

    Saddle iff h1 < -eps or h2 > eps; marginal iff both invariants lie
    in [-eps, eps].  The default band, 1e-9 max(1, |h1|, |h2|), scales
    with the invariants to absorb round-off; a NaN invariant makes it NaN,
    which every test fails.
    """
    if eps is None:
        eps = _SADDLE_RTOL * np.maximum(1.0, np.maximum(abs(h1), abs(h2)))
    return (h1 < -eps) | (h2 > eps), (abs(h1) <= eps) & (abs(h2) <= eps)


def classify(h1: float, h2: float, eps: float | None = None) -> Classification:
    """Saddle test on the characteristic invariants.

    Saddle iff h1 < -eps, or h1 >= -eps with h2 > eps; Marginal when both
    invariants sit inside the tolerance band (the boundary case is
    numerically undecidable); NonSaddle otherwise.  The default tolerance
    is ``_saddle_test``'s.
    """
    if eps is not None and eps < 0.0:
        raise ValueError("eps must be non-negative")
    saddle, marginal = _saddle_test(h1, h2, eps)
    if saddle:
        return Classification.SADDLE
    return Classification.MARGINAL if marginal else Classification.NON_SADDLE


def _class_labels(h1: np.ndarray, h2: np.ndarray) -> list[str]:
    """``classify(a, b).value`` for each pair of the invariant arrays, with the default band."""
    saddle, marginal = _saddle_test(h1, h2)
    labels = np.where(marginal, Classification.MARGINAL.value, Classification.NON_SADDLE.value)
    return np.where(saddle, Classification.SADDLE.value, labels).tolist()


def stability_report(params: SystemParams, fp: FixedPoint) -> StabilityReport:
    """Full linearization record at a fixed point: closed-form entries,
    invariants, spectrum and classification."""
    p, _, l, _ = fp.rest_state()
    A, B, G, D = _latched_abgd(params, p, l, fp.F_L_star)
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
        classification=classify(h1, h2),
    )
