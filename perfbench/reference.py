"""Independent release-time reference for the derived model variant.

The latched field is written out here from the model equations rather
than taken from lamsa, and integrated with scipy's DOP853 at rtol 1e-12
with the same two release guards lamsa watches: the contact force falling
through zero, and the projectile reaching the latch radius.  scipy is
used only by the benchmark.  The printed variant has no reference: its
latched flow leaves the constraint circle, and lamsa's per-step
projection makes its answer depend on the step grid.
"""

from __future__ import annotations

from scipy.integrate import solve_ivp

UNLATCH, TAKEOFF = "UnlatchTauZero", "TakeoffTangency"


def _tau(y, F_L: float, m: float, M: float, R: float, k: float, p0: float) -> float:
    p, p_dot, l, l_dot = y
    w = (R - p) ** 2 / m + l * l / M
    return (-(p_dot * p_dot + l_dot * l_dot) - (R - p) * k * (p - p0) / m - l * F_L / M) / w


def release(x0, F_L: float, t_end: float, m: float, M: float, R: float, k: float, p0: float):
    """(kind, t) of the first release before ``t_end``, or (None, None)."""
    args = (F_L, m, M, R, k, p0)

    def field(t, y, *a):
        p, p_dot, l, l_dot = y
        lam = _tau(y, *a)
        return [p_dot, (-k * (p - p0) + (p - R) * lam) / m, l_dot, (F_L + l * lam) / M]

    def unlatch(t, y, *a):
        return _tau(y, *a)

    def takeoff(t, y, *a):
        return y[0] - R

    unlatch.terminal = takeoff.terminal = True
    unlatch.direction, takeoff.direction = -1, 1
    sol = solve_ivp(field, (0.0, t_end), list(x0), method="DOP853", rtol=1e-12, atol=1e-12,
                    events=(unlatch, takeoff), args=args)
    if sol.status == -1:
        raise RuntimeError(f"reference integration failed: {sol.message}")
    hits = [(float(ts[0]), kind) for ts, kind in zip(sol.t_events, (UNLATCH, TAKEOFF)) if len(ts)]
    if not hits:
        return None, None
    t, kind = min(hits)
    return kind, t
