"""Independent reference implementations used only to check the package.

Everything here deliberately avoids the code paths under test: the root
oracle is a brute-force numpy grid scan, the trajectory oracle is a
fixed-stride classical RK4 loop, the step oracle is the Dormand-Prince
pair in tableau (matrix) form, the Jacobian oracle differences the field
on numpy arrays, and the projection oracle uses the closed-form radial
projection onto the circle.
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
