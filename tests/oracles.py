"""Independent reference implementations used only to check the package.

Everything here deliberately avoids the code paths under test: the root
oracle is a brute-force numpy grid scan, the trajectory oracle is a
fixed-stride classical RK4 loop, the step oracle is the Dormand-Prince
pair in tableau (matrix) form, the Jacobian oracle differences the field
on numpy arrays, the projection oracle uses the closed-form radial
projection onto the circle, the continuation oracle rebuilds the
quartic for each use, the band oracle (``band_rule``) writes the saddle
test out with numpy, the simulation oracle integrates both phases in
plain form, one helper per concern (its latched phase shares the
Dormand-Prince kernel, the field and the constraint projection with the
package, not the loop bookkeeping, the step-size control or the event
interpolation; it integrates the unlatched flight, which ``simulate``
evaluates in closed form, with ``dopri5_step`` on the field written out
here), and
the flight oracle writes that closed form with ``harmonic_position``,
the theta oracle is the equilibrium Newton loop in plain floats, and
the field oracle (``vector_field`` with ``latched_contact_force``) writes
both modes' fields and the contact force out from the model's formulas.
``jacobian_fd`` and ``real_pair_exists`` are test helpers: the package's
finite-difference Jacobian at a fixed point, and the eigenvalue-level
saddle test.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np


def fine_grid_roots(
    coeffs: tuple[float, float, float, float, float],
    lo: float,
    hi: float,
    n: int = 1_000_000,
    refine_tol: float = 1e-12,
) -> list[float]:
    """All sign-change roots of the quartic on (lo, hi) via a dense scan.

    The scan guarantees no pair of roots closer than the grid spacing is
    missed; each bracket is then narrowed by plain bisection.
    """
    e, z, h, th, i = coeffs
    xs = np.linspace(lo, hi, n + 1)
    ys = (((e * xs + z) * xs + h) * xs + th) * xs + i

    def f(x: float) -> float:
        return (((e * x + z) * x + h) * x + th) * x + i

    roots: list[float] = []
    sign_change = np.flatnonzero(ys[:-1] * ys[1:] < 0.0)
    for j in sign_change:
        a, b = float(xs[j]), float(xs[j + 1])
        fa = f(a)
        while b - a > refine_tol:
            mid = 0.5 * (a + b)
            fm = f(mid)
            if fa * fm <= 0.0:
                b = mid
            else:
                a, fa = mid, fm
        roots.append(0.5 * (a + b))
    for j in np.flatnonzero(ys == 0.0):
        x = float(xs[j])
        if lo < x < hi:
            roots.append(x)
    return sorted(roots)


def harmonic_position(p_rest: float, p_init: float, v_init: float, omega: float, t: float) -> float:
    """Closed-form solution of m p'' = -k (p - p_rest)."""
    return p_rest + (p_init - p_rest) * math.cos(omega * t) + (v_init / omega) * math.sin(omega * t)


def flight_reference(params, y_r, F_L: float, s: float) -> tuple[float, float, float, float]:
    """The unlatched state a time ``s`` after the state ``y_r`` = (p, p_dot, l, l_dot).

    Free of the latch, p oscillates harmonically about p0 and its velocity
    oscillates about 0, starting at p_dot with acceleration
    -omega^2 (p - p0); the latch moves under the constant force F_L.
    """
    p, p_dot, l, l_dot = (float(c) for c in y_r)
    omega = math.sqrt(params.k / params.m)
    acc = F_L / params.M
    return (
        harmonic_position(params.p0, p, p_dot, omega, s),
        harmonic_position(0.0, p_dot, -omega * omega * (p - params.p0), omega, s),
        l + l_dot * s + 0.5 * acc * s * s,
        l_dot + acc * s,
    )


def rk4_fixed(
    f: Callable[[np.ndarray], np.ndarray], y0: np.ndarray, t_total: float, n_steps: int
) -> np.ndarray:
    """Classical fixed-stride RK4; reference for the adaptive integrator."""
    y = np.array(y0, dtype=float)
    h = t_total / n_steps
    for _ in range(n_steps):
        k1 = f(y)
        k2 = f(y + 0.5 * h * k1)
        k3 = f(y + 0.5 * h * k2)
        k4 = f(y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return y


# Dormand-Prince 5(4) embedded pair in tableau form (Hairer, Norsett &
# Wanner, Solving ODEs I, table II.5.2); E is b5 - b4.
DOPRI5_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
DOPRI5_B = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
DOPRI5_E = np.array(
    [71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40]
)


def dopri5_step(
    f: Callable[[np.ndarray], np.ndarray], y: np.ndarray, dt: float
) -> tuple[np.ndarray, float, float]:
    """One DOPRI5 trial step by matrix products over the stage matrix.

    Returns (y_new, error_norm, error_scale).  The error estimate is a sum
    of terms that nearly cancel; ``error_scale`` is the norm of the summed
    terms' magnitudes, the scale its rounding error is relative to.
    """
    y = np.asarray(y, dtype=float)
    k = np.empty((7, y.size))
    k[0] = f(y)
    for i in range(1, 7):
        k[i] = f(y + dt * (DOPRI5_A[i] @ k[:i]))
    err = dt * (DOPRI5_E @ k)
    scale = dt * (np.abs(DOPRI5_E) @ np.abs(k))
    return y + dt * (DOPRI5_B @ k), float(np.linalg.norm(err)), float(np.linalg.norm(scale))


def radial_projection(R: float, p: float, l: float) -> tuple[float, float]:
    """Nearest point on the circle of radius R centred at (R, 0)."""
    vx, vy = p - R, l
    norm = math.hypot(vx, vy)
    return R + R * vx / norm, R * vy / norm


def jacobian_central_fd(
    f: Callable[[np.ndarray], tuple[float, ...]], x: np.ndarray, base: float
) -> np.ndarray:
    """Central-difference Jacobian of a latched 4-state field, on numpy arrays.

    Rows 1 and 3 are the unit-velocity template; the acceleration rows are
    differenced in every coordinate with step ``base * max(1, |x_j|)``.
    """
    x = np.asarray(x, dtype=float)
    J = np.zeros((4, 4))
    J[0, 1] = 1.0
    J[2, 3] = 1.0
    for j in range(4):
        h = base * max(1.0, abs(x[j]))
        xp = x.copy()
        xm = x.copy()
        xp[j] += h
        xm[j] -= h
        fp = f(xp)
        fm = f(xm)
        J[1, j] = (fp[1] - fm[1]) / (2.0 * h)
        J[3, j] = (fp[3] - fm[3]) / (2.0 * h)
    return J


def latched_contact_force(params, state, F_L: float) -> float:
    """The contact force tau of the model's docstring, for any 4-sequence.

    tau = W^-1 [-(p_dot^2 + l_dot^2) + (R - p) F_s / m - l F_L / d], with
    W = (R - p)^2/m + l^2/M, F_s = -k (p - p0), and d = m for the printed
    variant and M for the derived one.
    """
    from lamsa.model import ModelVariant

    p, p_dot, l, l_dot = state
    m, M, R = params.m, params.M, params.R
    W = (R - p) * (R - p) / m + l * l / M
    F_s = -params.k * (p - params.p0)
    d = m if params.variant is ModelVariant.AS_PRINTED else M
    return (-(p_dot * p_dot + l_dot * l_dot) + (R - p) * F_s / m - l * F_L / d) / W


def vector_field(params, state, F_L: float, mode) -> np.ndarray:
    """Time derivative of the 4-sequence (p, p_dot, l, l_dot) in the given mode, as a numpy array.

    Both modes are written out here.  Latched, the contact force tau of
    ``latched_contact_force`` acts along the constraint gradient:
    m p_ddot = F_s + (p - R) tau and M l_ddot = F_L + l tau.  Unlatched
    (tau = 0), the projectile is a harmonic oscillator about p0 and the
    latch moves under the constant force F_L.
    """
    from lamsa.model import Mode

    p, p_dot, l, l_dot = state
    F_s = -params.k * (p - params.p0)
    if mode is not Mode.LATCHED:
        return np.array([p_dot, F_s / params.m, l_dot, F_L / params.M])
    tau = latched_contact_force(params, state, F_L)
    return np.array([p_dot, (F_s + (p - params.R) * tau) / params.m, l_dot, (F_L + l * tau) / params.M])


def jacobian_fd(params, fp) -> np.ndarray:
    """``jacobian_fd_at``, the package's central-difference Jacobian, at a fixed point's rest state."""
    from lamsa.stability import jacobian_fd_at

    return jacobian_fd_at(params, fp.rest_state(), fp.F_L_star)


def real_pair_exists(eigenvalues: tuple[complex, ...], rel_tol: float = 1e-9) -> bool:
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


def band_rule(h1: float, h2: float):
    """The saddle test written out, with the default band computed by numpy over both invariants."""
    from lamsa.stability import Classification

    eps = 1e-9 * np.maximum(1.0, np.maximum(abs(h1), abs(h2)))
    if h1 < -eps or h2 > eps:
        return Classification.SADDLE
    if abs(h1) <= eps and abs(h2) <= eps:
        return Classification.MARGINAL
    return Classification.NON_SADDLE


def theta_newton_reference(params, ck: float, F_L: float, sigma: float, u: float, stop: float) -> tuple[float, float]:
    """(p, l) of the theta balance's root on one monotone piece of an arc, one force in plain floats.

    The scalar loop that ``equilibria._newton_correct`` runs per element
    over numpy arrays, with ``math.hypot`` and ``s**3``, whose last bit can
    differ from numpy's ``hypot`` and ``s * s * s``.
    """
    R, sa = params.R, sigma * (params.p0 - params.R)
    up = stop > u
    for _ in range(100):
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
    l = R * (u / s)
    return (l * u / (1.0 + s) if sigma > 0.0 else R + R / s), l


QUARTIC_FOLD = "DenominatorSingular"  # the oracle's terminal where dD/dp is numerically zero


def trace_path_three_quartics(params, start: tuple[float, float], forces, step_tol: float = 1e-10):
    """The saddle continuation on the squared balance at given forces, with a fresh quartic at every use.

    From a valid near-arc start, an Euler predictor in F_L and a Newton
    corrector on the quartic D(p) visit each of ``forces`` (ascending, all
    above the start's) in turn.  Each step builds the quartic at the same
    F_L three times: for the predictor slope -(dD/dF_L)/(dD/dp), in the
    corrector, and for the fold check, which ends the path with terminal
    ``QUARTIC_FOLD``.  Saddle membership goes through ``classify``, at
    l = latch_from_projectile(p).
    """
    from lamsa.bifurcation import ContinuationPath, PathSample, PathTerminal
    from lamsa.published import _dD_dFL, _dp_singular, eval_quartic, eval_quartic_derivative, quartic_coefficients
    from lamsa.model import latch_from_projectile
    from lamsa.stability import Classification, _latched_abgd, characteristic_invariants, classify

    def in_s_at(p, fl):
        A, B, G, D = _latched_abgd(params, p, latch_from_projectile(params, p), fl)
        h1, h2 = characteristic_invariants(A, B, G, D)
        return h2, classify(h1, h2) is Classification.SADDLE

    def newton(p, fl):
        q = quartic_coefficients(params, fl)
        for _ in range(50):
            df = eval_quartic_derivative(q, p)
            if df == 0.0:
                break
            step = eval_quartic(q, p) / df
            p -= step
            if abs(step) <= step_tol * max(1.0, abs(p)):
                return p
        raise RuntimeError(f"corrector failed at F_L={fl}")

    p, fl = float(start[0]), float(start[1])
    h2, in_s = in_s_at(p, fl)
    samples = [PathSample(fl, p, in_s, h2)]
    for fl_new in forces:
        q = quartic_coefficients(params, fl)
        den = eval_quartic_derivative(q, p)
        if _dp_singular(q, p, den):
            return ContinuationPath(tuple(samples), QUARTIC_FOLD)
        corrected = newton(p + (fl_new - fl) * (-_dD_dFL(params, p, fl) / den), fl_new)
        p_new = 0.0 if abs(corrected) < 1e-12 else corrected
        if not 0.0 <= p_new < params.R:
            return ContinuationPath(tuple(samples), PathTerminal.LEFT_DOMAIN)
        q = quartic_coefficients(params, fl_new)
        h2, in_s = in_s_at(p_new, fl_new)
        samples.append(PathSample(fl_new, p_new, in_s, h2))
        if _dp_singular(q, p_new, eval_quartic_derivative(q, p_new)):
            return ContinuationPath(tuple(samples), QUARTIC_FOLD)
        p, fl = p_new, fl_new
    return ContinuationPath(tuple(samples), PathTerminal.REACHED_ZERO_FORCE)


def simulate_reference(params, x0, F_L: float, t_end: float, config=None):
    """``simulate`` written with one helper per concern, with the flight integrated.

    It equals ``simulate`` sample for sample up to and including the
    release sample; after it, the unlatched loop integrates the flight
    that ``simulate`` evaluates in closed form, with ``dopri5_step`` on
    the unlatched ``vector_field``.

    Each accepted step goes through a plain copy of the adaptive-step
    wrapper, each trial evaluates its own first stage, every tau comes
    from ``contact_force`` and every Hermite slope from a fresh field
    evaluation, the next step size comes from ``suggest`` with the
    tolerance of the state the step ends in, every sample goes through
    ``Trajectory.append``, the latched guards are read in a loop over the
    (integrated, projected) step ends, and events are bisected on a
    generator-built cubic Hermite interpolant.  The float arithmetic of the
    latched phase is the package's, in the same order, so up to the
    release the result must match exactly; that ``simulate`` reuses each
    field value it has changes no bit.
    """
    from lamsa.errors import StepSizeUnderflowError
    from lamsa.model import Mode, SystemState, _field_arr, contact_force, mode_of
    from lamsa.simulate import (
        Event, EventKind, IntegratorConfig, Trajectory, _step_raw, project_to_constraint,
    )

    cfg = config or IntegratorConfig()
    F_L, t_end = float(F_L), float(t_end)

    def latched_field(y):
        return _field_arr(params, y, F_L)

    def flight_field(y):
        return vector_field(params, y, F_L, Mode.UNLATCHED)

    def latched_trial(y, dt):
        y_new, _, err = _step_raw(params, F_L, y, latched_field(y), dt)
        return y_new, err

    def flight_trial(y, dt):
        y_new, err, _ = dopri5_step(flight_field, np.array(y), dt)
        return SystemState(*y_new.tolist()), err

    def norm(y):
        p, p_dot, l, l_dot = y
        return math.sqrt(p * p + p_dot * p_dot + l * l + l_dot * l_dot)

    def tolerance(s):
        return max(cfg.rel_tol * norm(s), cfg.abs_tol)

    def step(trial, y, dt_suggestion):
        tol = tolerance(y)
        dt = min(dt_suggestion, cfg.max_step)
        while True:
            y_new, err = trial(y, dt)
            if err <= tol:
                return y_new, dt, err
            # the floor bounds the shrinking, not a first trial (a last step clipped to t_end)
            dt *= max(0.2, 0.9 * (tol / max(err, 1e-300)) ** 0.2)
            if dt / cfg.max_step < 1e-12:
                raise StepSizeUnderflowError(f"step size {dt:.3e} below floor")

    def suggest(dt_used, err, tol):
        factor = 5.0 if err == 0.0 else min(5.0, max(0.2, 0.9 * (tol / err) ** 0.2))
        return min(cfg.max_step, dt_used * factor)

    def locate(field, t_lo, y_lo, t_hi, y_hi, g):
        return locate_zero_reference(field, cfg.rel_tol * cfg.max_step, t_lo, y_lo, t_hi, y_hi, g)

    def tau_of(s):
        return contact_force(params, s, F_L)

    def release(t_lo, y_lo, t_hi, y_hi, unlatch, takeoff):
        events = []
        if unlatch:
            t_ev, y_ev = locate(latched_field, t_lo, y_lo, t_hi, y_hi, tau_of)
            events.append(Event(t_ev, y_ev, EventKind.UNLATCH_TAU_ZERO))
        if takeoff:
            t_ev, y_ev = locate(latched_field, t_lo, y_lo, t_hi, y_hi, lambda s: s[0] - params.R)
            events.append(Event(t_ev, y_ev, EventKind.TAKEOFF_TANGENCY))
        if len(events) == 2:
            tau_ev, take_ev = events
            return take_ev if take_ev.t <= tau_ev.t + cfg.rel_tol * cfg.max_step else tau_ev
        return events[0]

    if not x0.is_finite():
        raise ValueError(f"initial state has non-finite components: {x0}")
    if t_end < 0.0:
        raise ValueError("t_end must be non-negative")
    traj = Trajectory()
    mode = mode_of(params, x0, F_L)
    t = 0.0
    t_last = t_end * (1.0 - 1e-14)  # the end margin is relative to t_end
    y = SystemState(*map(float, x0))
    if mode is Mode.LATCHED:
        y = project_to_constraint(params, y)
        if tau_of(y) <= 0.0:
            mode = Mode.UNLATCHED
    traj.append(t, y, mode, tau_of(y) if mode is Mode.LATCHED else 0.0)
    dt = 0.01 * cfg.max_step

    if mode is Mode.LATCHED:
        while t < t_last:
            y_end, dt_used, err = step(latched_trial, y, min(dt, t_end - t, cfg.max_step))
            t_new = t + dt_used
            y_new = project_to_constraint(params, y_end)
            tau_new = tau_of(y_new)
            event = None
            for y_hi, tau_hi in ((y_end, tau_of(y_end)), (y_new, tau_new)):
                unlatch = tau_hi <= 0.0
                takeoff = y_hi[0] - params.R >= 0.0 and y[0] - params.R < 0.0
                if unlatch or takeoff:
                    event = release(t, y, t_new, y_hi, unlatch, takeoff)
                    break
            if event is not None:
                event = Event(event.t, project_to_constraint(params, event.state), event.kind)
                traj.events.append(event)
                t, y, mode = event.t, event.state, Mode.UNLATCHED
                traj.append(t, y, mode, 0.0)
                break
            t, y = t_new, y_new
            traj.append(t, y, Mode.LATCHED, tau_new)
            dt = suggest(dt_used, err, tolerance(y))

    if mode is Mode.UNLATCHED:
        p0 = params.p0
        if y[0] >= p0 and y[1] > 0.0:
            return traj
        while t < t_last:
            y_new, dt_used, err = step(flight_trial, y, min(dt, t_end - t, cfg.max_step))
            t_new = t + dt_used
            if y_new[0] >= p0 and y[0] < p0:
                t_stop, y_stop = locate(flight_field, t, y, t_new, y_new, lambda s: s[0] - p0)
                if y_stop[1] > 0.0:
                    traj.append(t_stop, y_stop, Mode.UNLATCHED, 0.0)
                    return traj
            t, y = t_new, y_new
            traj.append(t, y, Mode.UNLATCHED, 0.0)
            dt = suggest(dt_used, err, tolerance(y))
    return traj


class NoSignChange(Exception):
    """``locate_zero_reference`` got a bracket whose guard values share a sign."""


def locate_zero_reference(field, bracket: float, t_lo, y_lo, t_hi, y_hi, g):
    """Bisect a guard zero on the cubic Hermite interpolant of one step of ``field``.

    ``field`` maps a state to its time derivative.  The interpolant builds
    each state from a generator over the four components; returns
    (t, state) and raises NoSignChange for a bracket whose guard values
    share a sign.  A guard value of zero counts as the far side, the
    side of g(y_hi), as the release rule fires on it.  The bisection
    stops once the bracket is at most ``bracket`` wide, or once the
    bracket holds no float strictly between its ends, so the midpoint
    rounds onto one of them.
    """
    from lamsa.model import SystemState

    f_lo = field(y_lo)
    f_hi = field(y_hi)

    def interp(t):
        h = t_hi - t_lo
        s = (t - t_lo) / h
        s2, s3 = s * s, s * s * s
        a = 1 - 3 * s2 + 2 * s3
        b = 3 * s2 - 2 * s3
        c = s - 2 * s2 + s3
        d = s3 - s2
        return SystemState(*(
            a * y_lo[i] + b * y_hi[i] + h * (c * f_lo[i] + d * f_hi[i]) for i in range(4)
        ))

    g_lo, g_hi = g(y_lo), g(y_hi)
    if g_lo == 0.0:
        return t_lo, y_lo
    if g_lo * g_hi > 0.0:
        raise NoSignChange(f"no sign change: g({t_lo})={g_lo}, g({t_hi})={g_hi}")
    a, b, ga = t_lo, t_hi, g_lo
    while b - a > bracket:
        mid = 0.5 * (a + b)
        if mid in (a, b):  # no float lies strictly inside: t is resolved
            break
        if ga * g(interp(mid)) <= 0.0:
            b = mid
        else:
            a = mid
    t_ev = 0.5 * (a + b)
    return t_ev, interp(t_ev)
