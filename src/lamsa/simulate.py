"""Event-detecting integration of the two-mode switched dynamics.

The latched flow is the only flow integrated: the full 4-state field
with the contact force substituted, each step projected back onto the
constraint circle (the latched flow of the AS_PRINTED variant drifts off
it; the CONSTRAINT_CONSISTENT one stays on it up to integration error).

Release is detected by two guards watched in the latched phase:

* contact force crossing zero from above (the latch stops pushing), and
* projectile reaching the latch radius p = R (tangency: no contact force
  can act on the projectile there).

Whichever happens first switches the system to the unlatched flow; there
is no re-latching.  The unlatched flow has a closed form (a harmonic
oscillator for the projectile, constant acceleration for the latch), so
the flight is evaluated, not integrated.  It ends at ``t_end`` or when
the projectile crosses the spring's natural length moving outward, where
the model stops describing the physics.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import (
    NoSignChangeError,
    ProjectionFailureError,
    StepSizeUnderflowError,
)
from .model import (
    Mode,
    SystemParams,
    SystemState,
    _field_arr,
    contact_force,
    holonomic_h,
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

_MIN_STEP = 1e-14
# Python 3.11 fetches Enum members through a Python-level descriptor
_LATCHED, _UNLATCHED = Mode.LATCHED, Mode.UNLATCHED
# SystemState._make without its Python-level classmethod frame
_new_state = functools.partial(tuple.__new__, SystemState)


@dataclass(frozen=True)
class IntegratorConfig:
    """Tolerances of the adaptive Dormand-Prince 5(4) integration.

    The unlatched flight has a closed form, so ``rel_tol``, ``abs_tol`` and
    ``event_time_tol`` govern the latched phase and the release alone.
    Each accepted step's local error estimate (the norm of the fifth- minus
    fourth-order update) is at most max(rel_tol * |y|, abs_tol), |y| the
    norm of the step's start state.  ``max_step`` bounds every latched step
    and spaces the flight's samples.  ``event_time_tol`` bounds the
    bisection bracket of the release on the step's third-order Hermite
    interpolant, not the error against the flow: on the benchmark's release
    design the derived release times are 1.86e-9 off a DOP853 reference.
    The start, each latched step and the release state are projected onto
    the constraint circle to |h| <= 1e-12 max(1, R^2), a bound no field
    here sets.
    """

    rel_tol: float = 1e-8
    abs_tol: float = 1e-10
    max_step: float = 1e-2
    event_time_tol: float = 1e-10

    def __post_init__(self) -> None:
        for name in ("rel_tol", "abs_tol", "max_step", "event_time_tol"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {getattr(self, name)}")
        if not self.event_time_tol < self.max_step:
            raise ValueError("event_time_tol must be smaller than max_step")


class EventKind(Enum):
    UNLATCH_TAU_ZERO = "UnlatchTauZero"
    TAKEOFF_TANGENCY = "TakeoffTangency"


@dataclass(frozen=True)
class Event:
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
    dt_suggestion: float,
    config: IntegratorConfig | None = None,
) -> tuple[SystemState, tuple[float, float, float, float, float], float, float]:
    """Take one accepted adaptive step of the latched field, not projected.

    ``f_state`` is ``_field_arr`` at ``state``, every trial's first stage.
    Shrinks the step until the embedded error estimate satisfies
    ``err <= max(rel_tol * |state|, abs_tol)``; raises
    StepSizeUnderflowError if that requires a step below the floor.
    Returns (new_state, field_at_new_state, dt_used, error_estimate).
    """
    cfg = config or IntegratorConfig()
    p, p_dot, l, l_dot = state
    tol = max(cfg.rel_tol * math.sqrt(p * p + p_dot * p_dot + l * l + l_dot * l_dot), cfg.abs_tol)
    dt = cfg.max_step if cfg.max_step < dt_suggestion else dt_suggestion
    while True:
        if dt < _MIN_STEP:
            raise StepSizeUnderflowError(
                f"step size {dt:.3e} below floor {_MIN_STEP:.0e} without meeting tolerance"
            )
        y_new, f_new, err = _step_raw(params, F_L, state, f_state, dt)
        if err <= tol:
            return y_new, f_new, dt, err
        dt *= max(0.2, 0.9 * (tol / max(err, 1e-300)) ** 0.2)


def _locate_zero(
    t_lo: float,
    y_lo: SystemState,
    f_lo: Sequence[float],
    t_hi: float,
    y_hi: SystemState,
    f_hi: Sequence[float],
    g: Callable[[SystemState], float],
    cfg: IntegratorConfig,
) -> tuple[float, SystemState]:
    """(t, state) at a zero of the guard ``g`` inside one integration step.

    The latched step from (t_lo, y_lo) to (t_hi, y_hi), with fields f_lo
    and f_hi there, is reconstructed with cubic Hermite interpolation;
    bisection narrows the crossing time to ``cfg.event_time_tol``.  ``g``
    must change sign across the step (else NoSignChangeError); a zero at
    either end is returned as is.
    """
    g_lo = g(y_lo)
    g_hi = g(y_hi)
    if g_lo == 0.0:
        return t_lo, y_lo
    if g_hi == 0.0:
        return t_hi, y_hi
    if g_lo * g_hi > 0.0:
        raise NoSignChangeError(
            f"guard has the same sign at both bracket ends: g({t_lo})={g_lo}, g({t_hi})={g_hi}"
        )

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

    a, b, ga = t_lo, t_hi, g_lo
    while b - a > cfg.event_time_tol:
        mid = 0.5 * (a + b)
        gm = g(interp(mid))
        if gm == 0.0:
            return mid, interp(mid)
        if ga * gm < 0.0:
            b = mid
        else:
            a, ga = mid, gm
    t_ev = 0.5 * (a + b)
    return t_ev, interp(t_ev)


def project_to_constraint(params: SystemParams, state: SystemState) -> SystemState:
    """Return the nearest state on the constraint circle with tangent velocity.

    Positions (p, l) are pulled radially onto the circle by Newton steps
    along the constraint gradient (the exact nearest-point projection for
    a circle).  The velocity is then made tangent by re-solving the
    differentiated constraint (p-R) p_dot + l l_dot = 0 for whichever
    component carries the larger gradient weight, so the generic latched
    configuration keeps p_dot and slaves l_dot = (R-p) p_dot / l.
    """
    R = params.R
    p, p_dot, l, l_dot = state
    tol = 1e-12 * max(1.0, R * R)
    for _ in range(25):
        h = holonomic_h(params, p, l)
        if abs(h) <= tol:
            break
        gp = 2.0 * (p - R)
        gl = 2.0 * l
        n2 = gp * gp + gl * gl
        if n2 == 0.0:
            raise ProjectionFailureError("constraint gradient vanished (p=R, l=0)")
        p -= h * gp / n2
        l -= h * gl / n2
    else:
        h = holonomic_h(params, p, l)
        if abs(h) > tol:
            raise ProjectionFailureError(f"projection did not converge in 25 iterations (|h|={abs(h)})")

    if abs(l) >= abs(R - p):
        l_dot = (R - p) * p_dot / l if l != 0.0 else 0.0
    else:
        p_dot = l * l_dot / (R - p) if p != R else 0.0
    return _new_state((p, p_dot, l, l_dot))


def _release_event(
    params: SystemParams,
    F_L: float,
    bracket: tuple[float, SystemState, Sequence[float], float, SystemState, Sequence[float]],
    unlatch: bool,
    takeoff: bool,
    cfg: IntegratorConfig,
) -> Event:
    """Locate the release inside a latched step whose end fired a guard.

    ``bracket`` is (t, state, field) at the step's start and at the end
    that fired.  When both guards fire the earlier wins, and a tie within
    the event tolerance means tangency: at p = R no contact force can hold
    the projectile regardless of tau.
    """
    R = params.R
    events = []
    if unlatch:
        t, y = _locate_zero(*bracket, lambda s: contact_force(params, s, F_L), cfg)
        events.append(Event(t, y, EventKind.UNLATCH_TAU_ZERO))
    if takeoff:
        t, y = _locate_zero(*bracket, lambda s: s[0] - R, cfg)
        events.append(Event(t, y, EventKind.TAKEOFF_TANGENCY))
    if len(events) == 2:
        tau_ev, take_ev = events
        return take_ev if take_ev.t <= tau_ev.t + cfg.event_time_tol else tau_ev
    return events[0]


def _append_flight(
    params: SystemParams, traj: Trajectory, t: float, y: SystemState, F_L: float, t_end: float, max_step: float
) -> None:
    """Append the unlatched flight from (t, y) to ``traj``, in closed form.

    A time s later, p = p0 + a cos(omega s) + b sin(omega s) with
    omega = sqrt(k/m), a = p - p0 and b = p_dot / omega, and
    l = l + l_dot s + F_L s^2 / (2M).  The flight ends at the outward
    natural-length crossing s* = ((atan2(b, a) - pi/2) mod 2 pi) / omega or
    at ``t_end``, whichever comes first; a start at p >= p0 moving outward
    ends at once.  Samples sit at t + n * max_step, plus one at the end.
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
    # as in the latched loop, an end within this margin takes no further sample
    margin = 1e-14 * max(1.0, t_end)
    if s_stop <= margin:
        return
    s = np.arange(1, math.ceil((s_stop - margin) / max_step) + 1) * max_step
    s[-1] = s_stop
    cos_ws, sin_ws = np.cos(omega * s), np.sin(omega * s)
    ts = (t + s).tolist()
    ts[-1] = t_stop
    traj.t.extend(ts)
    traj.x.extend(map(_new_state, zip(
        (p0 + a * cos_ws + b * sin_ws).tolist(),
        (p_dot * cos_ws - (omega * a) * sin_ws).tolist(),
        (l + (l_dot + (0.5 * F_L / M) * s) * s).tolist(),
        (l_dot + (F_L / M) * s).tolist(),
    )))
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
    switch can occur; its event is recorded with the interpolated state,
    projected onto the constraint circle.  While latched, the release
    guards are read on each step's integrated end state and then on its
    projection onto the constraint, the state the next step starts from;
    the first end that fires a guard closes the event's bracket.  The
    latched field is evaluated once at the projected start and once at
    each projected step end, and that one value is the sample's tau, the
    guard's tau there, the next step's first stage and the event
    interpolant's slope; the integrated end's tau is its step's last
    stage.  When both guards fire inside one step the earlier one wins and
    a tie within the event tolerance resolves to tangency takeoff.  The
    unlatched flight is appended in closed form.  ``F_L`` and ``t_end`` are
    taken as floats, so every sample holds plain floats; a non-finite
    ``x0``, ``F_L`` or ``t_end`` raises ValueError.
    """
    cfg = config or IntegratorConfig()
    F_L, t_end = float(F_L), float(t_end)
    if not x0.is_finite():
        raise ValueError(f"initial state has non-finite components: {x0}")
    if not (math.isfinite(F_L) and 0.0 <= t_end < math.inf):
        raise ValueError(f"F_L must be finite and t_end finite and non-negative, got {F_L}, {t_end}")

    traj = Trajectory()
    add_t, add_x, add_mode, add_tau = traj.t.append, traj.x.append, traj.mode.append, traj.tau.append
    mode = mode_of(params, x0, F_L)
    t = 0.0
    t_last = t_end - 1e-14 * max(1.0, t_end)
    y = SystemState(*map(float, x0))
    rel_tol, abs_tol, max_step = cfg.rel_tol, cfg.abs_tol, cfg.max_step
    R, sqrt = params.R, math.sqrt

    if mode is _LATCHED:
        y = project_to_constraint(params, y)
        f = _field_arr(params, y, F_L)
        if f[4] <= 0.0:
            mode = _UNLATCHED  # projection nudged a borderline tau past 0
    traj.append(t, y, mode, f[4] if mode is _LATCHED else 0.0)

    # The loop tries min(dt, t_end - t) (dt never exceeds max_step), then
    # scales dt by 0.9 (tol / err)^(1/5), kept in [0.2, 5], with tol taken at
    # the new state; min and max are written out as the builtins resolve them.
    dt = 0.01 * max_step

    # --- latched phase -------------------------------------------------
    if mode is _LATCHED:
        while t < t_last:
            h = t_end - t
            y_end, f_end, dt_used, err = integrate_step(params, y, f, F_L, h if h < dt else dt, cfg)
            t_new = t + dt_used
            y_new = project_to_constraint(params, y_end)
            f_new = _field_arr(params, y_new, F_L)

            # a guard fires on the integrated end state, bracketed by the
            # step itself, or else on the projected end state, the state the
            # next step would start from
            y_hi, f_hi = y_end, f_end
            unlatch = f_end[4] <= 0.0
            takeoff = y_end[0] - R >= 0.0 and y[0] - R < 0.0
            if not (unlatch or takeoff):
                y_hi, f_hi = y_new, f_new
                unlatch = f_new[4] <= 0.0
                takeoff = y_new[0] - R >= 0.0 and y[0] - R < 0.0
            if unlatch or takeoff:
                event = _release_event(
                    params, F_L, (t, y, f, t_new, y_hi, f_hi), unlatch, takeoff, cfg
                )
                event = Event(event.t, project_to_constraint(params, event.state), event.kind)
                traj.events.append(event)
                t, y, mode = event.t, event.state, _UNLATCHED
                traj.append(t, y, mode, 0.0)
                break

            t, y, f = t_new, y_new, f_new
            add_t(t)
            add_x(y)
            add_mode(_LATCHED)
            add_tau(f[4])
            p, p_dot, l, l_dot = y
            tol = rel_tol * sqrt(p * p + p_dot * p_dot + l * l + l_dot * l_dot)
            g = 0.9 * ((abs_tol if abs_tol > tol else tol) / err) ** 0.2 if err else 5.0
            dt = dt_used * ((g if g < 5.0 else 5.0) if g > 0.2 else 0.2)
            dt = dt if dt < max_step else max_step

    # --- unlatched flight (permanent: no re-latching) --------------------
    if mode is _UNLATCHED:
        _append_flight(params, traj, t, y, F_L, t_end, max_step)
    return traj
