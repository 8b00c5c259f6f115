"""Event-detecting integration of the two-mode switched dynamics.

The latched flow is the only flow integrated: the full 4-state field
with the contact force substituted, each step projected back onto the
constraint circle (the latched flow of the AS_PRINTED variant drifts off
it; the CONSTRAINT_CONSISTENT one stays on it up to integration error).

Release is one rule, the predicate ``release`` inside ``simulate``: the
projectile reaches the latch radius p >= R on a step that began below it
(tangency: no contact force can act on the projectile there), or else
the contact force stops pushing, tau <= 0.  The start's check, each
latched step's two end readings and the bisection for the first state
where the rule fires all call it.  The release switches the system to
the unlatched flow, and there is no re-latching.  The unlatched flow has
a closed form (a harmonic oscillator for the projectile, constant
acceleration for the latch), so the flight is evaluated, not integrated.
It ends at ``t_end`` or when the projectile crosses the spring's natural
length moving outward, where the model stops describing the physics.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import ConfigError, StepSizeUnderflowError
from .model import (
    Mode,
    SystemParams,
    SystemState,
    _field_arr,
    contact_force,
    mode_of,
)

__all__ = [
    "IntegratorConfig",
    "EventKind",
    "Event",
    "TrajectorySample",
    "Trajectory",
    "simulate",
]

# most sweep values, raster nodes, trajectory or trace samples one run may ask for
_MAX_ITEMS = 10**6
# Python 3.11 fetches Enum members through a Python-level descriptor
_LATCHED, _UNLATCHED = Mode.LATCHED, Mode.UNLATCHED
# SystemState._make without its Python-level classmethod frame
_new_state = functools.partial(tuple.__new__, SystemState)


@dataclass(frozen=True)
class IntegratorConfig:
    """Tolerances of the adaptive Dormand-Prince 5(4) integration.

    ``simulate`` alone reads these fields, and each helper it calls gets
    only the numbers it uses.  The unlatched flight has a closed form, so
    ``rel_tol`` and ``abs_tol`` govern the latched phase and the release
    alone.  Each accepted step's local error estimate (the norm of the
    fifth- minus fourth-order update) is at most max(rel_tol * |y|,
    abs_tol), |y| the norm of the step's start state.  ``max_step`` bounds
    every latched step and spaces the flight's samples.  The release is
    bisected on the step's Hermite cubic to a bracket of rel_tol *
    max_step (1e-10 at the defaults, a smaller product narrower, a larger
    one wider; rel_tol < 1 keeps it below max_step), or to the float
    resolution of t, where the midpoint equals an end.  That bounds the bisection, not the error against the
    flow: on the benchmark's release design the derived release times are
    1.86e-9 off a DOP853 reference.  The start, each latched step and the
    release state are projected onto the constraint circle exactly.  With
    ``abs_tol`` and every length scaled by a power of two, a run scales
    bit for bit.  The floors and the bracket follow the run's times: the
    error control may not shrink a step below 1e-12 ``max_step``, and an
    end within 1e-14 ``t_end`` takes no further sample.
    """

    rel_tol: float = 1e-8
    abs_tol: float = 1e-10
    max_step: float = 1e-2

    def __post_init__(self) -> None:
        for name in ("rel_tol", "abs_tol", "max_step"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {getattr(self, name)}")
        if not self.rel_tol < 1.0:
            raise ValueError(f"rel_tol must be smaller than 1, got {self.rel_tol}")


class EventKind(Enum):
    UNLATCH_TAU_ZERO = "UnlatchTauZero"
    TAKEOFF_TANGENCY = "TakeoffTangency"


_UNLATCH, _TAKEOFF = EventKind.UNLATCH_TAU_ZERO, EventKind.TAKEOFF_TANGENCY


class Event(NamedTuple):
    """The release: its time, the state there (projected onto the constraint circle) and its kind."""

    t: float
    state: SystemState
    kind: EventKind


class TrajectorySample(NamedTuple):
    t: float
    state: SystemState
    mode: Mode
    tau: float


class Trajectory:
    """Time-ordered samples, stored as columns, plus the mode-switch events.

    ``t``, ``x`` (the states), ``mode`` and ``tau`` are parallel lists with
    one entry per sample: read a sample's fields at one index of each.
    ``final`` gathers the last one into a TrajectorySample.  The contact
    force is the sample's tau while latched and 0 once unlatched; the
    sample recorded at a switch event is already unlatched.
    """

    __slots__ = ("t", "x", "mode", "tau", "events")

    def __init__(self) -> None:
        self.t: list[float] = []
        self.x: list[SystemState] = []
        self.mode: list[Mode] = []
        self.tau: list[float] = []
        self.events: list[Event] = []

    def __len__(self) -> int:
        return len(self.t)

    def append(self, t: float, state: SystemState, mode: Mode, tau: float) -> None:
        self.t.append(t)
        self.x.append(state)
        self.mode.append(mode)
        self.tau.append(tau)

    @property
    def final(self) -> TrajectorySample:
        return TrajectorySample(self.t[-1], self.x[-1], self.mode[-1], self.tau[-1])


def _step_raw(
    params: SystemParams,
    F_L: float,
    y: Sequence[float],
    f_y: Sequence[float],
    dt: float,
) -> tuple[SystemState, tuple[float, float, float, float, float], float]:
    """One Dormand-Prince 5(4) trial step from ``y``: returns (y_new, f_new, error_norm).

    The tableau is unrolled over the four state components in float
    arithmetic; ``kSC`` is stage S's derivative of component C.  The fields
    are autonomous, so the stage nodes are not needed.  The first stage is
    the caller's field ``f_y`` at ``y``.  The fifth-order solution is
    propagated; it is also where the seventh stage, ``f_new``, is
    evaluated (b equals the last row of A), and the b5 - b4 weights give
    the local error estimate.
    """
    f = _field_arr
    h = dt
    y0, y1, y2, y3 = y
    k10, k11, k12, k13, _ = f_y
    k20, k21, k22, k23, _ = f(
        params,
        (
            y0 + h * (1 / 5 * k10),
            y1 + h * (1 / 5 * k11),
            y2 + h * (1 / 5 * k12),
            y3 + h * (1 / 5 * k13),
        ),
        F_L,
    )
    k30, k31, k32, k33, _ = f(
        params,
        (
            y0 + h * (3 / 40 * k10 + 9 / 40 * k20),
            y1 + h * (3 / 40 * k11 + 9 / 40 * k21),
            y2 + h * (3 / 40 * k12 + 9 / 40 * k22),
            y3 + h * (3 / 40 * k13 + 9 / 40 * k23),
        ),
        F_L,
    )
    k40, k41, k42, k43, _ = f(
        params,
        (
            y0 + h * (44 / 45 * k10 - 56 / 15 * k20 + 32 / 9 * k30),
            y1 + h * (44 / 45 * k11 - 56 / 15 * k21 + 32 / 9 * k31),
            y2 + h * (44 / 45 * k12 - 56 / 15 * k22 + 32 / 9 * k32),
            y3 + h * (44 / 45 * k13 - 56 / 15 * k23 + 32 / 9 * k33),
        ),
        F_L,
    )
    k50, k51, k52, k53, _ = f(
        params,
        (
            y0 + h * (19372 / 6561 * k10 - 25360 / 2187 * k20
                      + 64448 / 6561 * k30 - 212 / 729 * k40),
            y1 + h * (19372 / 6561 * k11 - 25360 / 2187 * k21
                      + 64448 / 6561 * k31 - 212 / 729 * k41),
            y2 + h * (19372 / 6561 * k12 - 25360 / 2187 * k22
                      + 64448 / 6561 * k32 - 212 / 729 * k42),
            y3 + h * (19372 / 6561 * k13 - 25360 / 2187 * k23
                      + 64448 / 6561 * k33 - 212 / 729 * k43),
        ),
        F_L,
    )
    k60, k61, k62, k63, _ = f(
        params,
        (
            y0 + h * (9017 / 3168 * k10 - 355 / 33 * k20 + 46732 / 5247 * k30
                      + 49 / 176 * k40 - 5103 / 18656 * k50),
            y1 + h * (9017 / 3168 * k11 - 355 / 33 * k21 + 46732 / 5247 * k31
                      + 49 / 176 * k41 - 5103 / 18656 * k51),
            y2 + h * (9017 / 3168 * k12 - 355 / 33 * k22 + 46732 / 5247 * k32
                      + 49 / 176 * k42 - 5103 / 18656 * k52),
            y3 + h * (9017 / 3168 * k13 - 355 / 33 * k23 + 46732 / 5247 * k33
                      + 49 / 176 * k43 - 5103 / 18656 * k53),
        ),
        F_L,
    )
    y_new = _new_state((
        y0 + h * (35 / 384 * k10 + 500 / 1113 * k30 + 125 / 192 * k40
                  - 2187 / 6784 * k50 + 11 / 84 * k60),
        y1 + h * (35 / 384 * k11 + 500 / 1113 * k31 + 125 / 192 * k41
                  - 2187 / 6784 * k51 + 11 / 84 * k61),
        y2 + h * (35 / 384 * k12 + 500 / 1113 * k32 + 125 / 192 * k42
                  - 2187 / 6784 * k52 + 11 / 84 * k62),
        y3 + h * (35 / 384 * k13 + 500 / 1113 * k33 + 125 / 192 * k43
                  - 2187 / 6784 * k53 + 11 / 84 * k63),
    ))
    f_new = f(params, y_new, F_L)
    k70, k71, k72, k73, _ = f_new
    e0 = h * (71 / 57600 * k10 - 71 / 16695 * k30 + 71 / 1920 * k40
              - 17253 / 339200 * k50 + 22 / 525 * k60 - 1 / 40 * k70)
    e1 = h * (71 / 57600 * k11 - 71 / 16695 * k31 + 71 / 1920 * k41
              - 17253 / 339200 * k51 + 22 / 525 * k61 - 1 / 40 * k71)
    e2 = h * (71 / 57600 * k12 - 71 / 16695 * k32 + 71 / 1920 * k42
              - 17253 / 339200 * k52 + 22 / 525 * k62 - 1 / 40 * k72)
    e3 = h * (71 / 57600 * k13 - 71 / 16695 * k33 + 71 / 1920 * k43
              - 17253 / 339200 * k53 + 22 / 525 * k63 - 1 / 40 * k73)
    return y_new, f_new, math.sqrt(e0 * e0 + e1 * e1 + e2 * e2 + e3 * e3)


def integrate_step(
    params: SystemParams,
    state: SystemState,
    f_state: Sequence[float],
    F_L: float,
    dt: float,
    tol: float,
    min_step: float,
) -> tuple[SystemState, tuple[float, float, float, float, float], float, float]:
    """Take one accepted adaptive step of the latched field, not projected.

    ``f_state`` is ``_field_arr`` at ``state``, every trial's first stage,
    ``dt`` the first trial's step, ``tol`` > 0 the error bound at
    ``state`` and ``min_step`` the step floor.  Shrinks the step until the
    embedded error estimate is at most ``tol``; raises
    StepSizeUnderflowError when it would shrink the step below the floor
    (a first trial below it, as a last step clipped to t_end, is tried).
    Returns (new_state, field_at_new_state, dt_used, error_estimate).
    """
    while True:
        y_new, f_new, err = _step_raw(params, F_L, state, f_state, dt)
        if err <= tol:
            return y_new, f_new, dt, err
        dt *= max(0.2, 0.9 * (tol / err) ** 0.2)
        if dt < min_step:
            raise StepSizeUnderflowError(
                f"step size {dt:.3e} below floor {min_step:.3e} without meeting tolerance"
            )


def _locate_zero(
    t_lo: float,
    y_lo: SystemState,
    f_lo: Sequence[float],
    t_hi: float,
    y_hi: SystemState,
    f_hi: Sequence[float],
    guard: Callable[..., EventKind | None],
    bracket: float,
) -> tuple[float, SystemState, EventKind]:
    """(t, state, kind) where the release rule first fires inside one latched step.

    The step from (t_lo, y_lo) to (t_hi, y_hi), with fields f_lo and f_hi
    there, is reconstructed with cubic Hermite interpolation.  ``guard(s,
    tau=None)``, the release rule, fires at y_hi (tau f_hi[4]) and not at
    y_lo.  Bisection narrows it to ``bracket`` (rel_tol * max_step), or
    until its midpoint is one of its ends; the state is the interpolant's
    at the last midpoint, the kind the guard's at the bracket's end.
    """
    h = t_hi - t_lo

    def interp(t: float) -> SystemState:
        s = (t - t_lo) / h
        s2, s3 = s * s, s * s * s
        c0, c1 = 1 - 3 * s2 + 2 * s3, 3 * s2 - 2 * s3
        d0, d1 = s - 2 * s2 + s3, s3 - s2
        return _new_state((
            c0 * y_lo[0] + c1 * y_hi[0] + h * (d0 * f_lo[0] + d1 * f_hi[0]),
            c0 * y_lo[1] + c1 * y_hi[1] + h * (d0 * f_lo[1] + d1 * f_hi[1]),
            c0 * y_lo[2] + c1 * y_hi[2] + h * (d0 * f_lo[2] + d1 * f_hi[2]),
            c0 * y_lo[3] + c1 * y_hi[3] + h * (d0 * f_lo[3] + d1 * f_hi[3]),
        ))

    a, b, kind = t_lo, t_hi, guard(y_hi, f_hi[4])
    mid = 0.5 * (a + b)
    while b - a > bracket and a < mid < b:
        fired = guard(interp(mid))
        if fired is None:
            a = mid
        else:
            b, kind = mid, fired
        mid = 0.5 * (a + b)
    return mid, interp(mid), kind


def project_to_constraint(params: SystemParams, state: SystemState) -> SystemState:
    """Return the nearest state on the constraint circle with tangent velocity.

    The position is the radial projection from the centre (R, 0), in
    closed form: R - p and l are scaled by s = R / |(R-p, l)|.  The
    velocity is then made tangent by re-solving the differentiated
    constraint (p-R) p_dot + l l_dot = 0 for whichever component carries
    the larger gradient weight (at least R / sqrt(2) on the circle), so the
    generic latched configuration keeps p_dot and slaves
    l_dot = (R-p) p_dot / l.
    """
    R = params.R
    p, p_dot, l, l_dot = state
    s = R / math.hypot(R - p, l)
    rp, l = (R - p) * s, l * s
    if abs(l) >= abs(rp):
        l_dot = rp * p_dot / l
    else:
        p_dot = l * l_dot / rp
    return _new_state((R - rp, p_dot, l, l_dot))


def _append_flight(
    params: SystemParams, traj: Trajectory, t: float, y: SystemState, F_L: float, t_end: float, max_step: float,
    margin: float,
) -> None:
    """Append the unlatched flight from (t, y) to ``traj``, in closed form.

    A time s later, p = p0 + a cos(omega s) + b sin(omega s) with
    omega = sqrt(k/m), a = p - p0 and b = p_dot / omega, and
    l = l + l_dot s + F_L s^2 / (2M).  The flight ends at the outward
    natural-length crossing s* = ((atan2(b, a) - pi/2) mod 2 pi) / omega or
    at ``t_end``, whichever comes first; a start at p >= p0 moving outward
    ends at once, as does one of at most ``margin`` (the latched loop's end
    margin).  Samples sit at t + n * max_step, plus one at the end.
    """
    p0, M = params.p0, params.M
    p, p_dot, l, l_dot = y
    if p >= p0 and p_dot > 0.0:
        return
    omega = math.sqrt(params.k / params.m)
    a, b = p - p0, p_dot / omega
    s_stop, t_stop = t_end - t, t_end
    if a or b:
        s_star = ((math.atan2(b, a) - 0.5 * math.pi) % (2.0 * math.pi)) / omega
        if s_star < s_stop:
            s_stop, t_stop = s_star, t + s_star
    if s_stop <= margin:
        return
    s = np.arange(1, math.ceil((s_stop - margin) / max_step) + 1) * max_step
    s[-1] = s_stop
    cos_ws, sin_ws = np.cos(omega * s), np.sin(omega * s)
    ts = (t + s).tolist()
    ts[-1] = t_stop
    x = np.array((
        p0 + a * cos_ws + b * sin_ws,
        p_dot * cos_ws - (omega * a) * sin_ws,
        l + (l_dot + (0.5 * F_L / M) * s) * s,
        l_dot + (F_L / M) * s,
    ))
    if not np.isfinite(x).all():  # as from a latch force near 1e308
        raise OverflowError("the unlatched flight overflowed to a non-finite state")
    traj.t.extend(ts)
    traj.x.extend(map(_new_state, zip(*x.tolist())))
    traj.mode.extend([_UNLATCHED] * len(ts))
    traj.tau.extend([0.0] * len(ts))


def simulate(
    params: SystemParams,
    x0: SystemState,
    F_L: float,
    t_end: float,
    config: IntegratorConfig | None = None,
) -> Trajectory:
    """Run the switched system from ``x0`` for at most ``t_end`` time units.

    The starting mode is inferred from the state (on the circle with
    positive contact force -> latched).  At most one latched->unlatched
    switch can occur.  The release rule ``release`` is read on the
    projected start and, while latched, on each step's integrated end
    state and then on its projection onto the constraint, the state the
    next step starts from; the first end where it fires closes the
    bracket of one bisection for the first state where it fires.  The
    event records that state, projected onto the constraint circle.  The
    latched field is evaluated once at the projected start and once at
    each projected step end, and that one value is the sample's tau, the
    rule's tau there, the next step's first stage and the event
    interpolant's slope; the integrated end's tau is its step's last
    stage, and the bisection's is ``contact_force``'s.  The flight is
    appended in closed form.  ``F_L`` and ``t_end`` are taken as floats,
    so every sample holds plain floats; a non-finite ``x0`` (through
    ``mode_of``), ``F_L`` or ``t_end`` raises ValueError, and a sample
    that overflows to a non-finite value, or a latched field that
    overflows in a step, raises OverflowError naming what overflowed (the
    field's message gives the last accepted t).  A run that
    could take more than ``_MAX_ITEMS`` samples raises ConfigError first.
    """
    cfg = config or IntegratorConfig()
    F_L, t_end = float(F_L), float(t_end)
    if not (math.isfinite(F_L) and 0.0 <= t_end < math.inf):
        raise ValueError(f"F_L must be finite and t_end finite and non-negative, got {F_L}, {t_end}")
    if t_end / cfg.max_step > _MAX_ITEMS - 1:  # a trajectory holds up to ceil(t_end / max_step) + 1 samples
        raise ConfigError(f"t_end / max_step = {t_end / cfg.max_step:.6g} gives more than {_MAX_ITEMS} samples")

    traj = Trajectory()
    mode = mode_of(params, x0, F_L)
    t = 0.0
    margin = 1e-14 * t_end  # an end within it takes no further sample
    t_last = t_end - margin
    y = SystemState(*map(float, x0))
    rel_tol, abs_tol, max_step = cfg.rel_tol, cfg.abs_tol, cfg.max_step
    min_step = 1e-12 * max_step  # the step floor
    R, sqrt = params.R, math.sqrt
    armed = False  # tangency fires only on a step that began below R

    def release(s: SystemState, tau: float | None = None) -> EventKind | None:
        """The kind of release that fires at ``s``, or None; tau, if not given, from ``contact_force``."""
        if armed and s[0] - R >= 0.0:
            return _TAKEOFF
        if tau is None:
            tau = contact_force(params, s, F_L)
        return _UNLATCH if tau <= 0.0 else None

    if mode is _LATCHED:
        y = project_to_constraint(params, y)
        f = _field_arr(params, y, F_L)
        if release(y, f[4]) is not None:
            mode = _UNLATCHED  # projection nudged a borderline tau past 0
    traj.append(t, y, mode, f[4] if mode is _LATCHED else 0.0)

    # The loop tries min(dt, t_end - t) (dt never exceeds max_step) against
    # tol = max(rel_tol |y|, abs_tol) at the step's start, then scales dt by
    # 0.9 (tol / err)^(1/5), kept in [0.2, 5], with tol taken at the new
    # state; min and max are written out as the builtins resolve them.
    dt = 0.01 * max_step

    # --- latched phase -------------------------------------------------
    if mode is _LATCHED:
        p, p_dot, l, l_dot = y
        tol = max(rel_tol * sqrt(p * p + p_dot * p_dot + l * l + l_dot * l_dot), abs_tol)
        try:
            while t < t_last:
                h = t_end - t
                y_end, f_end, dt_used, err = integrate_step(params, y, f, F_L, h if h < dt else dt, tol, min_step)
                t_new = t + dt_used
                y_new = project_to_constraint(params, y_end)
                f_new = _field_arr(params, y_new, F_L)

                # the rule fires on the integrated end, bracketed by the step
                # itself, or else on the projected end, the next step's start
                armed = y[0] - R < 0.0
                y_hi, f_hi = y_end, f_end
                if release(y_end, f_end[4]) is None:
                    y_hi, f_hi = y_new, f_new
                if release(y_hi, f_hi[4]) is not None:
                    t, y, kind = _locate_zero(t, y, f, t_new, y_hi, f_hi, release, rel_tol * max_step)
                    y, mode = project_to_constraint(params, y), _UNLATCHED
                    traj.events.append(Event(t, y, kind))
                    traj.append(t, y, mode, 0.0)
                    break

                t, y, f = t_new, y_new, f_new
                traj.append(t, y, _LATCHED, f[4])
                p, p_dot, l, l_dot = y
                tol = rel_tol * sqrt(p * p + p_dot * p_dot + l * l + l_dot * l_dot)
                tol = abs_tol if abs_tol > tol else tol
                g = 0.9 * (tol / err) ** 0.2 if err else 5.0
                dt = dt_used * ((g if g < 5.0 else 5.0) if g > 0.2 else 0.2)
                dt = dt if dt < max_step else max_step
        except OverflowError as exc:  # as from (R - p) ** 2 in the field, past 1e154
            raise OverflowError(f"the latched field overflowed after the last accepted t={t!r}") from exc
        if not math.isfinite(f[4]):  # the last latched sample's; a step from it would have failed
            raise OverflowError("the contact force overflowed to a non-finite value")

    # --- unlatched flight (permanent: no re-latching) --------------------
    if mode is _UNLATCHED:
        _append_flight(params, traj, t, y, F_L, t_end, max_step, margin)
    return traj
