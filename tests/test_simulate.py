from __future__ import annotations

import dataclasses
import importlib
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lamsa import (
    EventKind,
    IntegratorConfig,
    Mode,
    ModelVariant,
    SystemParams,
    SystemState,
    fixed_points,
    holonomic_h,
    latch_from_projectile,
    mechanical_energy,
    simulate,
)
from lamsa.cli import _portrait_initial_states
from lamsa.config import RunConfig
from lamsa.errors import LamsaError, NoSignChangeError, StepSizeUnderflowError
from lamsa.model import _field_arr, mode_of
from lamsa.simulate import _locate_zero, _step_raw, integrate_step, project_to_constraint

from oracles import (
    dopri5_step,
    flight_reference,
    locate_zero_reference,
    radial_projection,
    rk4_fixed,
    simulate_reference,
)


def _latched_start(params: SystemParams, p: float, p_dot: float = 0.0) -> SystemState:
    l = latch_from_projectile(params, p)
    l_dot = (params.R - p) * p_dot / l if l > 0 else 0.0
    return SystemState(p, p_dot, l, l_dot)


def _tol(st, cfg=IntegratorConfig()):
    """The error bound ``simulate`` gives ``integrate_step`` at ``st``: max(rel_tol |st|, abs_tol)."""
    return max(cfg.rel_tol * math.sqrt(sum(v * v for v in st)), cfg.abs_tol)


def _step(params, st, F_L, dt, cfg=IntegratorConfig()):
    """(new_state, dt_used, err) of ``integrate_step`` from ``st``, its field evaluated here."""
    new, _, dt, err = integrate_step(params, st, _field_arr(params, st, F_L), F_L, dt, _tol(st, cfg))
    return new, dt, err


def test_integrator_config_invariants():
    with pytest.raises(ValueError):
        IntegratorConfig(rel_tol=0.0)
    with pytest.raises(ValueError):
        IntegratorConfig(event_time_tol=1e-2, max_step=1e-2)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("name", ["rel_tol", "abs_tol", "max_step", "event_time_tol"])
def test_integrator_config_rejects_non_finite_values(name, bad):
    with pytest.raises(ValueError, match=rf"^{name} must be positive and finite"):
        IntegratorConfig(**{name: bad})


# --- integrate_step ---------------------------------------------------------


def test_step_at_fixed_point_is_stationary(params):
    st = SystemState(0.0, 0.0, 0.0, 0.0)
    f = _field_arr(params, st, 0.0)
    new, f_new, dt, err = integrate_step(params, st, f, 0.0, 1e-3, _tol(st))
    assert new == st and f_new == f
    assert err == 0.0
    assert dt == 1e-3


def test_step_preserves_latched_energy_within_local_tolerance(cc_params):
    # one unprojected step of the derived variant's latched flow, which an
    # ideal constraint keeps conservative, moves the energy by no more than
    # the step's error allowance
    cfg = IntegratorConfig()
    st, F_L = _latched_start(cc_params, 2.0, 1.5), -5.0
    new, dt, err = _step(cc_params, st, F_L, 1e-2, cfg)
    assert dt > 0.0 and new != st
    tol = max(cfg.rel_tol * np.linalg.norm(st), cfg.abs_tol)
    assert err <= tol
    e0 = mechanical_energy(cc_params, st, F_L)
    assert abs(mechanical_energy(cc_params, new, F_L) - e0) <= 10.0 * tol * max(1.0, abs(e0))


def test_step_error_estimate_meets_contract(params):
    cfg = IntegratorConfig(rel_tol=1e-10, abs_tol=1e-12)
    st = _latched_start(params, 1.0, 1.5)
    new, dt, err = _step(params, st, -5.0, 1e-2, cfg)
    assert err <= max(cfg.rel_tol * np.linalg.norm(st), cfg.abs_tol)
    assert 0 < dt <= cfg.max_step


@pytest.mark.parametrize("variant", list(ModelVariant))
@pytest.mark.parametrize("start", [(2.0, 1.5, -5.0), (4.9, -2.0, -15.0)], ids=["inner", "near-tangency"])
def test_step_raw_matches_tableau_oracle(variant, start):
    params = SystemParams(variant=variant)
    p, p_dot, F_L = start
    st = _latched_start(params, p, p_dot)
    dt = 0.05
    y_new, f_new, err = _step_raw(params, F_L, st, _field_arr(params, st, F_L), dt)
    assert f_new == _field_arr(params, y_new, F_L)

    def f(y: np.ndarray) -> np.ndarray:
        return np.array(_field_arr(params, y, F_L)[:4])

    ref_y, ref_err, err_scale = dopri5_step(f, np.array(st), dt)
    assert err > 0.0
    assert np.max(np.abs(np.array(y_new) - ref_y)) <= 1e-13 * np.linalg.norm(ref_y)
    # the estimate is a cancelling sum: compare relative to its terms' size
    assert abs(err - ref_err) <= 1e-13 * err_scale


def test_step_size_underflow_reported(params):
    # an unreachable tolerance forces the step below the floor
    cfg = IntegratorConfig(rel_tol=1e-300, abs_tol=1e-300)
    st = _latched_start(params, 1.0, 1.5)
    with pytest.raises(StepSizeUnderflowError):
        _step(params, st, -5.0, 1e-2, cfg)


# --- event location (_locate_zero) ------------------------------------------


def _tau_fn(params, F_L):
    from lamsa import contact_force

    return lambda s: contact_force(params, s, F_L)


def test_locate_event_tau_crossing(cc_params):
    # march the latched flow into the tau sign change, then bisect it
    cfg = IntegratorConfig()
    F_L = -5.0
    st = _latched_start(cc_params, 3.4, 3.6)
    t = 0.0
    f = _field_arr(cc_params, st, F_L)
    for _ in range(2000):
        new, f_new, dt, _ = integrate_step(cc_params, st, f, F_L, 5e-3, _tol(st, cfg))
        if _tau_fn(cc_params, F_L)(new) < 0:
            t_ev, y_ev = _locate_zero(t, st, f, t + dt, new, f_new, _tau_fn(cc_params, F_L), cfg.event_time_tol)
            tau_lo = _tau_fn(cc_params, F_L)(st)
            tau_hi = _tau_fn(cc_params, F_L)(new)
            derived_tol = 4.0 * abs(tau_hi - tau_lo) / dt * cfg.event_time_tol + 1e-12
            assert t < t_ev <= t + dt
            assert abs(_tau_fn(cc_params, F_L)(y_ev)) <= derived_tol
            return
        st, f, t = new, f_new, t + dt
    pytest.fail("tau never crossed zero")


def test_locate_event_position_crossing(params):
    # a latched step through the tangency p = R with monotone p
    cfg = IntegratorConfig()
    st = _latched_start(params, 4.99, 2.0)
    f = _field_arr(params, st, -5.0)
    new, f_new, dt, _ = integrate_step(params, st, f, -5.0, 1e-2, _tol(st, cfg))
    assert new.p > params.R
    _, y_ev = _locate_zero(0.0, st, f, dt, new, f_new, lambda s: s.p - params.R, cfg.event_time_tol)
    assert abs(y_ev.p - params.R) <= 2.0 * abs(new.p_dot) * cfg.event_time_tol + 1e-12


def test_locate_event_requires_sign_change(params):
    st = SystemState(1.0, 0.0, 3.0, 0.0)
    f = _field_arr(params, st, 0.0)
    with pytest.raises(NoSignChangeError):
        _locate_zero(0.0, st, f, 0.1, st, f, lambda s: 1.0, IntegratorConfig().event_time_tol)


# --- project_to_constraint --------------------------------------------------


def test_projection_fixes_on_manifold_state(params):
    st = _latched_start(params, 2.0, 0.0)
    assert project_to_constraint(params, st) == st


def test_projection_moves_to_nearest_circle_point(params):
    st = SystemState(2.0, 0.0, 4.001, 0.0)
    proj = project_to_constraint(params, st)
    assert abs(holonomic_h(params, proj.p, proj.l)) <= 1e-12 * params.R**2
    assert proj.l == pytest.approx(4.0, abs=1e-3)
    p_ref, l_ref = radial_projection(params.R, st.p, st.l)
    assert proj.p == pytest.approx(p_ref, abs=1e-10)
    assert proj.l == pytest.approx(l_ref, abs=1e-10)


def test_projection_retangents_velocity(params):
    proj = project_to_constraint(params, SystemState(2.0, 1.0, 4.0, 0.0))
    assert proj.p_dot == 1.0
    assert proj.l_dot == pytest.approx(0.75, rel=1e-12)  # (R - p) p_dot / l


# --- simulate ---------------------------------------------------------------


def test_simulate_constant_at_unlatched_equilibrium():
    # spring at its natural length, latch at rest anywhere off the circle
    # and no latch force: every sample is the start
    for variant in ModelVariant:
        params = SystemParams(variant=variant)
        for l in (3.0, 1.23, -2.0):
            x0 = SystemState(params.p0, 0.0, l, 0.0)
            traj = simulate(params, x0, 0.0, 1.0)
            assert not traj.events
            assert traj.final.t == pytest.approx(1.0)
            assert len(traj) > 2 and set(traj.x) == {x0}
            assert set(traj.mode) == {Mode.UNLATCHED}


def test_simulate_constant_at_latched_origin(params):
    traj = simulate(params, SystemState(0, 0, 0, 0), 0.0, 1.0)
    assert not traj.events
    assert set(traj.mode) == {Mode.LATCHED}
    assert np.max(np.abs(traj.x[-1])) <= 1e-12


def test_simulate_pulling_force_unlatches_and_launches(params):
    # no latched equilibrium exists for a pulling force, so the flow must
    # exit through the guard and the projectile accelerates outward
    x0 = _latched_start(params, 1.0, 0.1)
    traj = simulate(params, x0, 1.0, 10.0)
    assert len(traj.events) == 1
    assert traj.events[0].kind is EventKind.UNLATCH_TAU_ZERO
    assert traj.final.state.p >= params.p0 - 1e-6
    assert traj.final.state.p_dot > 0
    assert all(type(x) is SystemState for x in [*traj.x, traj.events[0].state])


@pytest.mark.parametrize("variant", list(ModelVariant))
def test_simulate_latched_segment_matches_fixed_stride_oracle(variant):
    # the raw flow of the latched field, stepped by integrate_step and never
    # projected: the derived variant's stays on the circle, the printed
    # variant's drifts off it (simulate's projection hides that)
    params = SystemParams(variant=variant)
    x0 = _latched_start(params, 1.0, 0.0)
    t_probe, max_step = 1.5, IntegratorConfig().max_step
    t, states = 0.0, [x0]
    while t_probe - t > 1e-12:
        y, dt, _ = _step(params, states[-1], -5.0, min(max_step, t_probe - t))
        t += dt
        states.append(y)
    assert t == pytest.approx(t_probe, abs=1e-12)

    def f(y: np.ndarray) -> np.ndarray:
        return np.array(_field_arr(params, y, -5.0)[:4])

    ref = rk4_fixed(f, np.array(x0), t_probe, 60000)
    assert np.max(np.abs(np.array(states[-1]) - ref)) <= 1e-7
    drift = max(abs(holonomic_h(params, y.p, y.l)) for y in states)
    if variant is ModelVariant.AS_PRINTED:
        assert drift > 0.1 * params.R**2
    else:
        assert drift <= 1e-12 * params.R**2


def test_simulate_event_state_and_mode_monotonicity(cc_params):
    traj = simulate(cc_params, SystemState(1, 0, 3, 0), -5.0, 10.0)
    assert [e.kind for e in traj.events] == [EventKind.UNLATCH_TAU_ZERO]
    t_ev = traj.events[0].t
    assert t_ev == pytest.approx(2.934182, abs=1e-4)

    # strictly increasing times, exactly one L->U switch, no U->L
    assert np.all(np.diff(traj.t) > 0)
    modes = traj.mode
    switches = [(a, b) for a, b in zip(modes, modes[1:]) if a is not b]
    assert switches == [(Mode.LATCHED, Mode.UNLATCHED)]
    i_switch = modes.index(Mode.UNLATCHED)
    assert traj.t[i_switch] == t_ev

    # tau bookkeeping per sample
    for mode, tau in zip(traj.mode, traj.tau):
        if mode is Mode.LATCHED:
            assert tau > 0
        else:
            assert tau == 0.0


# the default steps are all accepted; long, loose steps get rejected
_NO_REJECTION, _REJECTIONS = IntegratorConfig(), IntegratorConfig(rel_tol=1e-6, max_step=0.5)


@pytest.mark.parametrize("cfg", [_NO_REJECTION, _REJECTIONS], ids=["accepted", "rejected"])
@pytest.mark.parametrize("variant", list(ModelVariant))
def test_simulate_evaluates_each_latched_state_once(monkeypatch, variant, cfg):
    # every trial evaluates six stages (its first is the field at its start
    # state, its last the field at its end state), and the projected start
    # and each projected step end one field more, which serves as their
    # tau, guard, next first stage and event slope; the event bisection
    # evaluates no field (its tau guard is contact_force's)
    sim = importlib.import_module("lamsa.simulate")
    calls = dict.fromkeys(("_field_arr", "_step_raw", "integrate_step"), 0)
    fields_in_locate = []
    locate_zero = sim._locate_zero

    def counting(name, fn):
        def counted(*args):
            calls[name] += 1
            return fn(*args)
        return counted

    def locate(*args):
        before = calls["_field_arr"]
        out = locate_zero(*args)
        fields_in_locate.append(calls["_field_arr"] - before)
        return out

    for name in calls:
        monkeypatch.setattr(sim, name, counting(name, getattr(sim, name)))
    monkeypatch.setattr(sim, "_locate_zero", locate)
    params = SystemParams(variant=variant)
    traj = simulate(params, _latched_start(params, 3.0), -5.0, 10.0, cfg)
    assert [e.kind for e in traj.events] == [EventKind.UNLATCH_TAU_ZERO]
    assert fields_in_locate == [0]
    trials, steps = calls["_step_raw"], calls["integrate_step"]
    assert (trials > steps) is (cfg is _REJECTIONS)
    assert calls["_field_arr"] == 6 * trials + steps + 1


def test_simulate_takeoff_by_tangency(cc_params):
    # enough kinetic energy to reach p = R with the contact force still
    # positive: release happens through the tangency guard instead
    x0 = SystemState(2.0, 2.0, 4.0, 1.5)
    traj = simulate(cc_params, x0, -20.0, 10.0)
    assert [e.kind for e in traj.events] == [EventKind.TAKEOFF_TANGENCY]
    ev = traj.events[0]
    assert ev.state.p == pytest.approx(cc_params.R, abs=1e-6)
    assert ev.state.l == pytest.approx(cc_params.R, abs=1e-6)
    assert traj.final.state.p == pytest.approx(cc_params.p0, abs=1e-6)


def test_simulate_printed_guard_reads_projected_state(params):
    # row 42 of the unjittered 20x20 portrait at F_L = -15: the projection
    # moves tau from +0.066 to -0.040 near t = 0.173, so guards read on the
    # unprojected state missed the release there and the next step's
    # bracket (0.1731, 0.1831) had no sign change
    x0 = SystemState(2.8571428571428568, -7.894736842105264, 4.5175395145262565, -3.74480249230466)
    traj = simulate(params, x0, -15.0, 10.0)
    assert [e.kind for e in traj.events] == [EventKind.UNLATCH_TAU_ZERO]
    assert traj.events[0].t < 0.1731
    assert all(tau > 0.0 for mode, tau in zip(traj.mode, traj.tau) if mode is Mode.LATCHED)


def test_trajectory_columns_and_views(params):
    traj = simulate(params, SystemState(1, 0, 3, 0), -5.0, 3.0)
    n = len(traj)
    assert n > 2 and len(traj.t) == len(traj.x) == len(traj.mode) == len(traj.tau) == n
    assert traj.final == (traj.t[-1], traj.x[-1], traj.mode[-1], traj.tau[-1])
    assert np.array(traj.x).shape == (n, 4)
    # integer inputs come out as plain floats in every column
    assert all(type(v) is float for v in traj.t + traj.tau)
    assert all(type(c) is float for s in traj.x for c in s)
    # states are built without SystemState._make, but stay SystemStates
    assert all(type(x) is SystemState for x in traj.x)


@pytest.mark.parametrize("variant", list(ModelVariant))
def test_simulate_conserves_energy_and_constraint(variant):
    # every latched sample and every event state is projected onto the
    # circle; only the derived variant's flow conserves energy as well
    params = SystemParams(variant=variant)
    h_tol = 1e-12 * max(1.0, params.R**2)
    events = 0
    F_L = -5.0
    for x0 in (SystemState(1, 0, 3, 0), _saddle_starts(params, F_L, (-0.5,))[0]):
        traj = simulate(params, x0, F_L, 10.0)
        e0 = mechanical_energy(params, traj.x[0], F_L)
        for x, mode in zip(traj.x, traj.mode):
            if variant is ModelVariant.CONSTRAINT_CONSISTENT:
                assert abs(mechanical_energy(params, x, F_L) - e0) <= 1e-6 * abs(e0)
            if mode is Mode.LATCHED:
                assert abs(holonomic_h(params, x.p, x.l)) <= h_tol
        for ev in traj.events:
            assert abs(holonomic_h(params, ev.state.p, ev.state.l)) <= h_tol
        events += len(traj.events)
    assert events


def test_simulate_unlatched_energies_decouple(params):
    traj = simulate(params, SystemState(9.0, 0.5, 2.0, 0.3), -2.0, 5.0)
    assert not traj.events
    s0 = traj.x[0]
    ep0 = 0.5 * params.m * s0.p_dot**2 + 0.5 * params.k * (s0.p - params.p0) ** 2
    el0 = 0.5 * params.M * s0.l_dot**2 - (-2.0) * s0.l
    for s in traj.x:
        ep = 0.5 * params.m * s.p_dot**2 + 0.5 * params.k * (s.p - params.p0) ** 2
        el = 0.5 * params.M * s.l_dot**2 - (-2.0) * s.l
        assert abs(ep - ep0) <= 1e-6 * max(1.0, abs(ep0))
        assert abs(el - el0) <= 1e-6 * max(1.0, abs(el0))


def test_simulate_stops_at_natural_length_moving_outward(params):
    traj = simulate(params, SystemState(9.0, 0.5, 2.0, 0.3), -2.0, 5.0)
    assert traj.final.state.p == pytest.approx(params.p0, abs=1e-6)
    assert traj.final.state.p_dot > 0
    assert traj.final.t == pytest.approx(math.atan2(2.0, 1.0), abs=1e-6)  # tan t = 2


def test_simulate_tolerance_halving_convergence(cc_params):
    x0 = _latched_start(cc_params, 0.5, 0.0)
    coarse = IntegratorConfig(rel_tol=1e-8, abs_tol=1e-10)
    fine = IntegratorConfig(rel_tol=5e-9, abs_tol=5e-11)
    a = np.array(simulate(cc_params, x0, -5.0, 2.0, coarse).final.state)
    b = np.array(simulate(cc_params, x0, -5.0, 2.0, fine).final.state)
    bound = max(coarse.rel_tol * float(np.linalg.norm(a)), coarse.abs_tol)
    assert float(np.linalg.norm(a - b)) < bound


def test_simulate_time_reversal_returns_start(params):
    cfg = IntegratorConfig()
    x0 = SystemState(9.0, 0.5, 2.0, 0.3)
    fwd = simulate(params, x0, -2.0, 0.8, cfg).final.state
    back_start = SystemState(fwd.p, -fwd.p_dot, fwd.l, -fwd.l_dot)
    back = simulate(params, back_start, -2.0, 0.8, cfg).final.state
    recovered = np.array([back.p, -back.p_dot, back.l, -back.l_dot])
    bound = 10.0 * max(cfg.rel_tol * float(np.linalg.norm(x0)), cfg.abs_tol)
    assert float(np.linalg.norm(recovered - np.array(x0))) <= bound


def test_simulate_rejects_invalid_initial_state(params):
    with pytest.raises(ValueError):
        simulate(params, SystemState(math.nan, 0, 0, 0), 0.0, 1.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("arg", ["F_L", "t_end"])
@pytest.mark.parametrize("variant", list(ModelVariant))
def test_simulate_rejects_non_finite_force_and_horizon(variant, arg, bad):
    # a nan force would write nan samples and an infinite horizon with no
    # stop an unbounded sample count; both are bad input, not a numerical
    # failure
    params = SystemParams(variant=variant)
    args = {"F_L": -2.0, "t_end": 1.0, arg: bad}
    for x0 in (SystemState(9.0, 0.5, 2.0, 0.3), _latched_start(params, 1.0)):
        with pytest.raises(ValueError, match="must be finite"):
            simulate(params, x0, args["F_L"], args["t_end"])


# --- the closed-form unlatched flight ----------------------------------------


def _dop853_flight(params, x0, F_L, times):
    """The unlatched field integrated by scipy's DOP853 (rtol = atol = 1e-12)."""
    from scipy.integrate import solve_ivp

    m, M, k, p0 = params.m, params.M, params.k, params.p0

    def field(_t, y):
        return [y[1], -k * (y[0] - p0) / m, y[3], F_L / M]

    sol = solve_ivp(field, (0.0, times[-1]), list(x0), method="DOP853",
                    t_eval=times, rtol=1e-12, atol=1e-12)
    assert sol.success
    return sol.y.T


def _mp_outward_stop(params, x0):
    """The first outward natural-length crossing s*, to 50 digits with mpmath.

    s* = ((atan2(b, a) - pi/2) mod 2 pi) / omega; the value is checked to be
    a zero of p - p0 with p_dot > 0 in [0, 2 pi / omega), where there is
    only one outward crossing.  None when the projectile rests at p0.
    """
    import mpmath

    with mpmath.workdps(50):
        omega = mpmath.sqrt(mpmath.mpf(params.k) / mpmath.mpf(params.m))
        a = mpmath.mpf(x0.p) - mpmath.mpf(params.p0)
        b = mpmath.mpf(x0.p_dot) / omega
        if a == 0 and b == 0:
            return None
        s = mpmath.fmod(mpmath.atan2(b, a) - mpmath.pi / 2 + 4 * mpmath.pi, 2 * mpmath.pi) / omega
        assert 0 <= s < 2 * mpmath.pi / omega
        assert abs(a * mpmath.cos(omega * s) + b * mpmath.sin(omega * s)) <= mpmath.mpf(10) ** -40
        assert b * mpmath.cos(omega * s) - a * mpmath.sin(omega * s) > 0
        return float(s)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    R=st.floats(1.0, 8.0),
    m=st.floats(0.2, 5.0),
    M=st.floats(0.2, 8.0),
    k=st.floats(0.2, 4.0),
    p0_ratio=st.floats(1.05, 3.95),
    var=st.sampled_from(list(ModelVariant)),
    F_L=st.one_of(st.just(0.0), st.floats(-20.0, -0.05), st.floats(0.05, 20.0)),
    p_share=st.floats(0.0, 2.0),
    p_dot=st.floats(-5.0, 5.0),
    l=st.floats(-10.0, 10.0),
    l_dot=st.floats(-5.0, 5.0),
    t_end=st.floats(0.0, 12.0),
    max_step=st.sampled_from([1e-2, 0.05, 0.2]),
)
def test_flight_matches_dop853_and_stops_at_the_outward_crossing(
    R, m, M, k, p0_ratio, var, F_L, p_share, p_dot, l, l_dot, t_end, max_step
):
    params = SystemParams(m=m, M=M, R=R, k=k, p0=p0_ratio * R, variant=var)
    assume(math.sqrt(k / m) != 1.0)
    x0 = SystemState(p_share * params.p0, p_dot, l, l_dot)
    assume(mode_of(params, x0, F_L) is Mode.UNLATCHED)
    cfg = IntegratorConfig(max_step=max_step)
    traj = simulate(params, x0, F_L, t_end, cfg)
    assert traj.x[0] == x0 and not traj.events
    _assert_flight(params, traj, F_L, 0, max_step)
    if len(traj) > 1:
        ref = _dop853_flight(params, x0, F_L, np.array(traj.t))
        for x, y in zip(traj.x, ref):
            assert _rel_err(x, y) <= 1e-9
    s_star = _mp_outward_stop(params, x0)
    if x0.p >= params.p0 and x0.p_dot > 0.0:
        assert len(traj) == 1  # already past the natural length, moving out
    elif s_star is not None and s_star < t_end:
        assert abs(traj.t[-1] - s_star) <= 1e-12 * max(1.0, s_star)
        assert traj.x[-1].p_dot > 0.0
    else:
        # as in the latched phase, a horizon within 1e-14 takes no sample
        assert traj.t[-1] == (t_end if t_end > 1e-14 else 0.0)
        assert s_star is None or s_star >= t_end - 1e-12 * max(1.0, t_end)


def test_flight_keeps_both_decoupled_energies_to_round_off(params):
    # criterion 9's start: the projectile's and the latch's energies are
    # each constant along the flight
    x0, F_L = SystemState(9.0, 0.5, 2.0, 0.3), -2.0
    traj = simulate(params, x0, F_L, 5.0)
    assert len(traj) > 100

    def energies(s):
        return (0.5 * params.m * s.p_dot**2 + 0.5 * params.k * (s.p - params.p0) ** 2,
                0.5 * params.M * s.l_dot**2 - F_L * s.l)

    ep0, el0 = energies(x0)
    for s in traj.x:
        ep, el = energies(s)
        assert abs(ep - ep0) <= 1e-12 * abs(ep0)
        assert abs(el - el0) <= 1e-12 * abs(el0)


def test_flight_edges(params):
    omega = math.sqrt(params.k / params.m)
    # at the natural length moving outward: the run ends at once
    assert len(simulate(params, SystemState(params.p0, 0.5, 2.0, 0.3), -2.0, 5.0)) == 1
    # beyond it moving inward: in, through the rest length and back out
    traj = simulate(params, SystemState(params.p0 + 0.5, -0.5, 2.0, 0.3), -2.0, 10.0)
    assert math.pi / omega < traj.t[-1] < 2.0 * math.pi / omega
    assert traj.x[-1].p == pytest.approx(params.p0, abs=1e-12) and traj.x[-1].p_dot > 0.0
    # a horizon of five sample spacings: five samples after the start, the
    # last at t_end
    cfg = IntegratorConfig()
    t_end = 5 * cfg.max_step
    traj = simulate(params, SystemState(9.0, 0.5, 2.0, 0.3), -2.0, t_end, cfg)
    assert len(traj) == 6 and traj.t[-1] == t_end
    assert all(a < b for a, b in zip(traj.t, traj.t[1:]))
    # no horizon: the start alone
    assert len(simulate(params, SystemState(9.0, 0.5, 2.0, 0.3), -2.0, 0.0)) == 1
    # a flight after a release, cut by a t_end at which t_r + (t_end - t_r)
    # rounds away from t_end, still ends on t_end itself
    x0 = SystemState(2.8571428571428568, -7.894736842105264, 4.5175395145262565, -3.74480249230466)
    t_r = simulate(params, x0, -15.0, 10.0).events[0].t
    t_end = next(t for t in np.linspace(0.5, 2.0, 400).tolist() if t_r + (t - t_r) != t)
    traj = simulate(params, x0, -15.0, t_end)
    assert traj.events[0].t == t_r and traj.t[-1] == t_end


# --- simulate against its helper-per-concern form ---------------------------

# the defaults, and tighter tolerances, which reach the release on other
# step boundaries
_CONFIGS = [IntegratorConfig(), IntegratorConfig(rel_tol=1e-10, abs_tol=1e-12, event_time_tol=1e-12)]

# on the circle up to a 2e-9 radial offset, with the speed at which the
# contact force vanishes there: tau > 0 at the start, tau <= 0 once projected
_PROJECTION_FLIP_STARTS = {
    ModelVariant.AS_PRINTED: SystemState(1.9999999988, 5.306599665847047, 4.0000000016, 3.9799497493852853),
    ModelVariant.CONSTRAINT_CONSISTENT: SystemState(
        1.9999999988, 4.233202098822119, 4.0000000016, 3.174901574116589
    ),
}


def _outcome(fn, params, x0, F_L, t_end, cfg):
    try:
        return fn(params, x0, F_L, t_end, cfg)
    except LamsaError as exc:
        return type(exc)


def _rel_err(x, ref) -> float:
    return math.dist(x, ref) / max(1.0, math.hypot(*ref))


def _assert_flight(params, traj, F_L, i, max_step):
    """Samples after index ``i`` are the closed-form flight from sample ``i``.

    They sit at t_i + n * max_step, each within 1e-12 relative of
    ``flight_reference``, plus a last one at the natural-length stop
    (p = p0 moving outward) or at the run's end.
    """
    t_r, y_r = traj.t[i], traj.x[i]
    assert traj.mode[i:] == [Mode.UNLATCHED] * (len(traj) - i)
    assert traj.tau[i:] == [0.0] * (len(traj) - i)
    assert traj.t[i + 1:-1] == [t_r + n * max_step for n in range(1, len(traj) - i - 1)]
    assert all(a < b for a, b in zip(traj.t[i:], traj.t[i + 1:]))
    if len(traj) > i + 1:
        assert traj.t[-1] - traj.t[-2] <= max_step * (1.0 + 1e-9)
    for t, x in zip(traj.t[i + 1:], traj.x[i + 1:]):
        assert _rel_err(x, flight_reference(params, y_r, F_L, t - t_r)) <= 1e-12, (t, x)


def _assert_same_as_reference(params, x0, F_L, t_end, cfg):
    """``simulate`` against the frozen loop that integrates the flight.

    Up to and including the release sample (the first unlatched one) and
    in the events the two are equal.  After it ``simulate`` gives the
    closed-form flight, and the reference's integrated flight agrees with
    that closed form to 1e-9 relative and in its final time to 1e-10.
    """
    got = _outcome(simulate, params, x0, F_L, t_end, cfg)
    ref = _outcome(simulate_reference, params, x0, F_L, t_end, cfg)
    if isinstance(ref, type):
        assert got is ref, (x0, F_L)
        return ref
    assert not isinstance(got, type), (x0, F_L, got)
    i = ref.mode.index(Mode.UNLATCHED) if Mode.UNLATCHED in ref.mode else len(ref) - 1
    assert got.t[:i + 1] == ref.t[:i + 1], (x0, F_L)
    assert got.x[:i + 1] == ref.x[:i + 1], (x0, F_L)
    assert got.mode[:i + 1] == ref.mode[:i + 1], (x0, F_L)
    assert got.tau[:i + 1] == ref.tau[:i + 1], (x0, F_L)
    assert got.events == ref.events, (x0, F_L)
    if ref.mode[i] is Mode.LATCHED:
        assert len(got) == len(ref), (x0, F_L)
        return got
    _assert_flight(params, got, F_L, i, cfg.max_step)
    t_r, y_r = ref.t[i], ref.x[i]
    for t, x in zip(ref.t[i + 1:], ref.x[i + 1:]):
        assert _rel_err(x, flight_reference(params, y_r, F_L, t - t_r)) <= 1e-9, (x0, F_L, t)
    assert abs(got.t[-1] - ref.t[-1]) <= 1e-10, (x0, F_L)
    return got


def _saddle_starts(params, F_L, deltas):
    p_star = next(fp.p_star for fp in fixed_points(params, F_L) if not fp.origin_flag)
    return [_latched_start(params, p_star + d) for d in deltas]


@pytest.mark.parametrize("cfg", _CONFIGS, ids=["default", "tight"])
@pytest.mark.parametrize("variant", list(ModelVariant))
def test_simulate_equals_reference_on_jittered_portrait_grid(variant, cfg):
    params = SystemParams(variant=variant)
    run = RunConfig(params=params, grid=(6, 6), jitter=True, seed=11)
    kinds = set()
    for x0 in _portrait_initial_states(run):
        traj = _assert_same_as_reference(params, x0, -15.0, 10.0, cfg)
        if not isinstance(traj, type):
            kinds.update(e.kind for e in traj.events)
    assert kinds  # the grid exercises the latched phase and its release


@pytest.mark.parametrize("cfg", _CONFIGS, ids=["default", "tight"])
@pytest.mark.parametrize("variant", list(ModelVariant))
def test_simulate_equals_reference_on_saddle_releases(variant, cfg):
    params = SystemParams(variant=variant)
    kinds = []
    for F_L in (-15.0, -5.0):
        for x0 in _saddle_starts(params, F_L, (1e-3, -1e-3, 0.5, -0.5)):
            traj = _assert_same_as_reference(params, x0, F_L, 10.0, cfg)
            kinds.extend(e.kind for e in traj.events)
    assert set(kinds) == set(EventKind)


@pytest.mark.parametrize("cfg", _CONFIGS, ids=["default", "tight"])
@pytest.mark.parametrize("variant", list(ModelVariant))
def test_simulate_equals_reference_at_the_edges(variant, cfg):
    params = SystemParams(variant=variant)
    # a t_end that clips the last step, latched and unlatched
    for x0 in (_latched_start(params, 1.0, 0.3), SystemState(9.0, 0.5, 2.0, 0.3)):
        traj = _assert_same_as_reference(params, x0, -2.0, 0.123456789, cfg)
        assert traj.t[-1] == pytest.approx(0.123456789, abs=1e-12)
    # steps set by the error control, with the absolute tolerance binding
    tight = dataclasses.replace(cfg, rel_tol=1e-14, abs_tol=1e-11)
    _assert_same_as_reference(params, _saddle_starts(params, -5.0, (0.5,))[0], -5.0, 10.0, tight)
    # the outward stop at the spring's natural length
    traj = _assert_same_as_reference(params, SystemState(9.0, 0.5, 2.0, 0.3), -2.0, 5.0, cfg)
    assert traj.t[-1] < 5.0 and traj.x[-1].p == pytest.approx(params.p0, abs=1e-6)
    # a borderline start that the projection turns unlatched
    x0 = _PROJECTION_FLIP_STARTS[variant]
    assert mode_of(params, x0, -5.0) is Mode.LATCHED
    traj = _assert_same_as_reference(params, x0, -5.0, 10.0, cfg)
    assert traj.mode[0] is Mode.UNLATCHED


@pytest.mark.parametrize("variant", list(ModelVariant))
def test_simulate_raises_where_reference_raises(variant):
    params = SystemParams(variant=variant)
    cfg = IntegratorConfig(rel_tol=1e-300, abs_tol=1e-300)
    x0 = _latched_start(params, 1.0, 1.5)
    assert _assert_same_as_reference(params, x0, -5.0, 1.0, cfg) is StepSizeUnderflowError
    # the reference integrates the flight and fails its tolerance; the
    # closed form has no tolerance to fail
    x0 = SystemState(9.0, 0.5, 2.0, 0.3)
    assert _outcome(simulate_reference, params, x0, -5.0, 1.0, cfg) is StepSizeUnderflowError
    traj = simulate(params, x0, -5.0, 1.0, cfg)
    assert traj.x[0] == x0 and traj.t[-1] == 1.0
    _assert_flight(params, traj, -5.0, 0, cfg.max_step)


@pytest.mark.parametrize("variant", list(ModelVariant))
def test_locate_zero_equals_reference(variant):
    params = SystemParams(variant=variant)
    cfg = IntegratorConfig()
    F_L = -5.0
    y_lo = _latched_start(params, 4.99, 2.0)
    f_lo = _field_arr(params, y_lo, F_L)
    y_hi, f_hi, dt, _ = integrate_step(params, y_lo, f_lo, F_L, 1e-2, _tol(y_lo, cfg))
    assert y_hi.p > params.R

    def g(s):
        return s[0] - params.R

    def field(y):
        return _field_arr(params, y, F_L)

    got = _locate_zero(0.0, y_lo, f_lo, dt, y_hi, f_hi, g, cfg.event_time_tol)
    assert got == locate_zero_reference(field, cfg.event_time_tol, 0.0, y_lo, dt, y_hi, g)
    with pytest.raises(NoSignChangeError):
        _locate_zero(0.0, y_hi, f_hi, dt, y_hi, f_hi, g, cfg.event_time_tol)
    with pytest.raises(NoSignChangeError):
        locate_zero_reference(field, cfg.event_time_tol, 0.0, y_hi, dt, y_hi, g)
