"""Independent reference implementations used only to check the package.

Everything here deliberately avoids the code paths under test: the root
oracle is a brute-force numpy grid scan, the trajectory oracle is a
fixed-stride classical RK4 loop, the step oracle is the Dormand-Prince
pair in tableau (matrix) form, the Jacobian oracle differences the field
on numpy arrays, the projection oracle uses the closed-form radial
projection onto the circle, and the continuation oracle rebuilds the
quartic for each use and bands the saddle test with numpy.
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


def trace_path_three_quartics(params, start: tuple[float, float], F_L_end: float = 0.0, step_tol: float = 1e-10):
    """The saddle continuation with a fresh quartic at every use, for a valid start.

    Each accepted step builds the quartic at the same F_L three times: for
    the predictor slope -(dD/dF_L)/(dD/dp), in the corrector, and for the
    fold check.  Saddle membership goes through ``classify`` with the band
    1e-9 * max(1, |h1|, |h2|) computed by numpy.
    """
    from lamsa.bifurcation import ContinuationPath, PathSample, PathTerminal, _dD_dFL, _dp_singular
    from lamsa.equilibria import eval_quartic, eval_quartic_derivative, quartic_coefficients
    from lamsa.model import latch_from_projectile
    from lamsa.stability import Classification, _latched_abgd, characteristic_invariants, classify

    var = params.variant

    def in_s_at(p, fl):
        A, B, G, D = _latched_abgd(params, p, latch_from_projectile(params, p), fl, var)
        h1, h2 = characteristic_invariants(A, B, G, D)
        eps = 1e-9 * np.maximum(1.0, np.maximum(abs(h1), abs(h2)))
        return h2, classify(h1, h2, eps) is Classification.SADDLE

    def newton(p, fl):
        q = quartic_coefficients(params, fl, var)
        for it in range(1, 13):
            df = eval_quartic_derivative(q, p)
            if df == 0.0:
                return None, it
            step = eval_quartic(q, p) / df
            p -= step
            if abs(step) <= step_tol * max(1.0, abs(p)):
                return p, it
        return None, 12

    p, fl = float(start[0]), float(start[1])
    h2, in_s = in_s_at(p, fl)
    samples = [PathSample(fl, p, in_s, h2)]
    dfl = 0.05
    while fl < F_L_end - 1e-14:
        dfl = min(dfl, F_L_end - fl)
        q = quartic_coefficients(params, fl, var)
        den = eval_quartic_derivative(q, p)
        if _dp_singular(q, p, den):
            return ContinuationPath(tuple(samples), PathTerminal.DENOMINATOR_SINGULAR)
        slope = -_dD_dFL(params, p, fl, var) / den
        while True:
            fl_new = fl + dfl
            if F_L_end - fl_new < 1e-14:
                fl_new = F_L_end
            corrected, iters = newton(p + dfl * slope, fl_new)
            if corrected is not None:
                break
            dfl *= 0.5
            if dfl < 1e-9:
                raise RuntimeError(f"corrector kept failing near F_L={fl}")
        p_new = 0.0 if abs(corrected) < 1e-12 else corrected
        if not 0.0 <= p_new < params.R:
            return ContinuationPath(tuple(samples), PathTerminal.LEFT_DOMAIN)
        q = quartic_coefficients(params, fl_new, var)
        h2, in_s = in_s_at(p_new, fl_new)
        samples.append(PathSample(fl_new, p_new, in_s, h2))
        if _dp_singular(q, p_new, eval_quartic_derivative(q, p_new)):
            return ContinuationPath(tuple(samples), PathTerminal.DENOMINATOR_SINGULAR)
        p, fl = p_new, fl_new
        if iters <= 3:
            dfl = min(0.05, dfl * 1.5)
    return ContinuationPath(tuple(samples), PathTerminal.REACHED_ZERO_FORCE)
