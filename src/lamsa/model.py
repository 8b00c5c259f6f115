"""Physical model of a contact-latch spring actuator.

A projectile of mass ``m`` is pushed by a linear spring (stiffness ``k``,
natural length ``p0``) against a rounded latch of mass ``M`` and radius
``R``.  While projectile and latch touch, their positions are tied by the
circle constraint

    h(p, l) = l^2 + (R - p)^2 - R^2 = 0,

and a contact force ``tau`` acts along the constraint.  The system is a
two-mode switched system: latched (``tau`` substituted, 1 effective DoF)
and unlatched (``tau = 0``, two decoupled oscillators).

All quantities are plain dimensionless numbers ("model units"); no unit
conversion is performed anywhere in the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple, Sequence

from .errors import ContactWindowError, SingularConfigurationError

__all__ = [
    "ModelVariant",
    "Mode",
    "SystemParams",
    "SystemState",
    "spring_force",
    "holonomic_h",
    "latch_from_projectile",
    "contact_force",
    "mode_of",
    "mechanical_energy",
]


class ModelVariant(Enum):
    """Which denominator the latch-force term of the contact force uses.

    The published contact-force expression divides the latch-force term by
    the projectile mass ``m``; re-deriving the force from the
    twice-differentiated constraint gives the latch mass ``M`` instead.
    ``AS_PRINTED`` reproduces the published numbers; only
    ``CONSTRAINT_CONSISTENT`` keeps the flow exactly on the constraint
    circle (and therefore conserves energy in the latched mode).
    """

    AS_PRINTED = "printed"
    CONSTRAINT_CONSISTENT = "derived"


class Mode(Enum):
    """Latched: in contact with positive contact force.  Unlatched: free."""

    LATCHED = "L"
    UNLATCHED = "U"


@dataclass(frozen=True)
class SystemParams:
    """Physical identity of one actuator instance (model units).

    ``m``: projectile mass, ``M``: latch mass, ``R``: latch radius,
    ``k``: spring stiffness, ``p0``: spring natural length (must exceed
    the latch radius).  ``variant`` selects the contact-force flavour; it
    must be a ModelVariant member, not its text ("printed").
    It is resolved here and only here, into the one number it changes:
    ``_d``, the mass that divides the latch force in the contact force
    (m printed, M derived).  Every formula of the package reads ``_d``.
    It is derived, not a constructor argument, and ``==``, ``hash`` and
    ``repr`` leave it out; ``dataclasses.replace(params, variant=...)``
    recomputes it, giving the same actuator under the other variant.
    """

    m: float = 1.0
    M: float = 5.0
    R: float = 5.0
    k: float = 1.0
    p0: float = 10.0
    variant: ModelVariant = ModelVariant.AS_PRINTED
    _d: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not isinstance(self.variant, ModelVariant):
            raise ValueError(f"variant must be a ModelVariant, got {self.variant!r}")
        for name in ("m", "M", "R", "k"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {getattr(self, name)}")
        if not self.R < self.p0 < math.inf:
            raise ValueError(f"p0 must be finite and exceed the latch radius R={self.R}, got {self.p0}")
        object.__setattr__(self, "_d", self.m if self.variant is ModelVariant.AS_PRINTED else self.M)

    @property
    def h_tol(self) -> float:
        """Default absolute tolerance for constraint membership (scales with R^2)."""
        return 1e-9 * self.R * self.R


class SystemState(NamedTuple):
    """One point (p, p_dot, l, l_dot) of the 4-dimensional state space.

    A state is the 4-tuple itself: it unpacks, indexes and converts to an
    array directly (``np.array(state)``).
    """

    p: float
    p_dot: float
    l: float
    l_dot: float

    def is_finite(self) -> bool:
        return all(math.isfinite(v) for v in self)


def spring_force(params: SystemParams, p: float) -> float:
    """Hookean spring force -k (p - p0) acting on the projectile."""
    return -params.k * (p - params.p0)


def holonomic_h(params: SystemParams, p: float, l: float) -> float:
    """Contact constraint h = l^2 + (R - p)^2 - R^2 (zero while touching)."""
    rp = params.R - p
    return l * l + rp * rp - params.R * params.R


def latch_from_projectile(params: SystemParams, p: float) -> float:
    """Non-negative latch position on the constraint circle for a given p.

    Solves h(p, l) = 0 for l >= 0 as l = sqrt(p (2R - p)), which, unlike
    sqrt(R^2 - (R - p)^2), carries no cancellation and keeps its digits
    as p -> 0.  Defined for p in [0, 2R]; raises ContactWindowError
    outside that window.
    """
    if not 0.0 <= p <= 2.0 * params.R:  # nan fails too
        raise ContactWindowError(f"p={p} outside the contact window [0, {2.0 * params.R}]")
    return math.sqrt(p * (2.0 * params.R - p))


def contact_force(params: SystemParams, state: Sequence[float], F_L: float) -> float:
    """Constraint (contact) force between latch and projectile.

    tau = W^-1 [ -(p_dot^2 + l_dot^2) + (R - p) F_s / m - l F_L / d ]

    with W = (R - p)^2/m + l^2/M and d = m (AS_PRINTED) or d = M
    (CONSTRAINT_CONSISTENT).  The expression is even in the velocities and
    independent of F_L wherever l = 0.  Meaningful as a physical force
    only near the constraint circle, but defined for any state (any
    4-sequence) with W > 0; ``_field_arr`` holds the formula.
    """
    return _field_arr(params, state, F_L)[4]


def mode_of(params: SystemParams, state: SystemState, F_L: float) -> Mode:
    """Classify a state: latched iff on the constraint circle with tau > 0.

    On the circle means |h| <= ``params.h_tol``.  ``tau == 0`` counts as
    unlatched (contact requires a strictly pushing force).  A nan or
    infinite state coordinate or ``F_L`` raises ValueError.
    """
    if not (state.is_finite() and math.isfinite(F_L)):
        raise ValueError(f"state {state} and F_L={F_L} must be finite")
    if abs(holonomic_h(params, state.p, state.l)) > params.h_tol:
        return Mode.UNLATCHED
    if contact_force(params, state, F_L) > 0.0:
        return Mode.LATCHED
    return Mode.UNLATCHED


def _field_arr(params: SystemParams, x: Sequence[float], F_L: float) -> tuple[float, float, float, float, float]:
    """Latched field of any 4-sequence and its contact force: (p_dot, p_ddot, l_dot, l_ddot, tau).

    The package's one implementation of tau (``contact_force`` reads it
    here), acting along the constraint gradient: m p_ddot = F_s + (p - R)
    tau and M l_ddot = F_L + l tau.  The integrator's hot path.  The
    unlatched flow is never integrated (the flight has a closed form), so
    it has no field here.
    """
    p, p_dot, l, l_dot = x
    m, M, R = params.m, params.M, params.R
    fs = -params.k * (p - params.p0)
    w = (R - p) ** 2 / m + l * l / M
    if w <= 0.0:
        raise SingularConfigurationError(
            f"contact-force denominator W={w} is not positive at p={p}, l={l}"
        )
    lam = (-(p_dot * p_dot + l_dot * l_dot) + (R - p) * fs / m - l * F_L / params._d) / w
    return (p_dot, (fs + (p - R) * lam) / m, l_dot, (F_L + l * lam) / M, lam)


def mechanical_energy(params: SystemParams, state: SystemState, F_L: float) -> float:
    """Kinetic + spring potential + latch-force potential (-F_L l).

    Conserved along the unlatched flow, and along the latched flow under
    the CONSTRAINT_CONSISTENT variant (an ideal constraint does no work).
    """
    return (
        0.5 * params.m * state.p_dot**2
        + 0.5 * params.M * state.l_dot**2
        + 0.5 * params.k * (state.p - params.p0) ** 2
        - F_L * state.l
    )
