"""Exception hierarchy for the lamsa package.

``ConfigError`` marks bad user input (CLI exit status 1); everything under
``NumericalError`` marks a failure of a numerical procedure (exit status 2).
"""

from __future__ import annotations


class LamsaError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(LamsaError):
    """Malformed or invalid run configuration."""


class NumericalError(LamsaError):
    """A numerical routine could not complete."""


class SingularConfigurationError(NumericalError):
    """Contact-force denominator W = (R-p)^2/m + l^2/M is not positive."""


class ContactWindowError(NumericalError):
    """A projectile position lies outside the contact window [0, 2R], where no latch position touches it."""


class StepSizeUnderflowError(NumericalError):
    """Adaptive step shrank below the minimum without meeting tolerance (only while latched)."""


class SingularDenominatorError(NumericalError):
    """Denominator of the saddle-path slope equation is numerically zero."""


class InvalidStartError(NumericalError):
    """Continuation start point does not satisfy the equilibrium balance."""


class SingularBoundError(NumericalError):
    """Design-feasibility bound is singular (M * R^2 == 1)."""


class EquilibriumBalanceError(NumericalError):
    """A solved equilibrium does not satisfy the force balance."""
