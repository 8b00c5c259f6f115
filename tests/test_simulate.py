from __future__ import annotations

import math

import numpy as np
import pytest

from lamsa import (
    EventKind,
    IntegratorConfig,
    Mode,
    ModelVariant,
    SystemParams,
    SystemState,
    holonomic_h,
    integrate_step,
    latch_from_projectile,
    locate_event,
    mechanical_energy,
    project_to_constraint,
    simulate,
)
from lamsa.errors import NoSignChangeError, StepSizeUnderflowError
from lamsa.model import _field_arr
from lamsa.simulate import _step_raw

from oracles import dopri5_step, harmonic_position, radial_projection, rk4_fixed


def _latched_start(params: SystemParams, p: float, p_dot: float = 0.0) -> SystemState:
    l = latch_from_projectile(params, p)
    l_dot = (params.R - p) * p_dot / l if l > 0 else 0.0
    return SystemState(p, p_dot, l, l_dot)


def test_integrator_config_invariants():
    with pytest.raises(ValueError):
        IntegratorConfig(rel_tol=0.0)
    with pytest.raises(ValueError):
        IntegratorConfig(event_time_tol=1e-2, max_step=1e-2)


# --- integrate_step ---------------------------------------------------------


def test_step_at_fixed_point_is_stationary(params):
    st = SystemState(0.0, 0.0, 0.0, 0.0)
    new, dt, err = integrate_step(params, st, 0.0, Mode.LATCHED, 1e-3)
    assert new == st
    assert err == 0.0
    assert dt == 1e-3


def test_step_at_unlatched_equilibrium(params):
    st = SystemState(10.0, 0.0, 3.0, 0.0)
    new, _, _ = integrate_step(params, st, 0.0, Mode.UNLATCHED, 1e-2)
    assert new == st


def test_step_preserves_oscillator_energy_within_local_tolerance(params):
    cfg = IntegratorConfig()
    st = SystemState(11.0, 0.0, 3.0, 0.0)
    new, dt, err = integrate_step(params, st, 0.0, Mode.UNLATCHED, 1e-2, cfg)
    e0 = 0.5 * params.m * st.p_dot**2 + 0.5 * params.k * (st.p - params.p0) ** 2
    e1 = 0.5 * params.m * new.p_dot**2 + 0.5 * params.k * (new.p - params.p0) ** 2
    tol = max(cfg.rel_tol * np.linalg.norm(st.as_array()), cfg.abs_tol)
    assert abs(e1 - e0) <= 10.0 * tol
    # and the step agrees with the closed-form solution
    expected = harmonic_position(params.p0, st.p, st.p_dot, 1.0, dt)
    assert new.p == pytest.approx(expected, abs=1e-10)


def test_step_error_estimate_meets_contract(params):
    cfg = IntegratorConfig(rel_tol=1e-10, abs_tol=1e-12)
    st = _latched_start(params, 1.0, 1.5)
    new, dt, err = integrate_step(params, st, -5.0, Mode.LATCHED, 1e-2, cfg)
    assert err <= max(cfg.rel_tol * np.linalg.norm(st.as_array()), cfg.abs_tol)
    assert 0 < dt <= cfg.max_step


@pytest.mark.parametrize("variant", list(ModelVariant))
@pytest.mark.parametrize("latched", [True, False])
def test_step_raw_matches_tableau_oracle(variant, latched):
    params = SystemParams(variant=variant)
    if latched:
        st, F_L = _latched_start(params, 2.0, 1.5), -5.0
    else:
        st, F_L = SystemState(9.0, 0.5, 2.0, 0.3), -2.0
    dt = 0.05
    y_new, err = _step_raw(params, F_L, latched, variant, st, dt)

    def f(y: np.ndarray) -> np.ndarray:
        return np.array(_field_arr(params, y, F_L, latched, variant))

    ref_y, ref_err, err_scale = dopri5_step(f, st.as_array(), dt)
    assert err > 0.0
    assert np.max(np.abs(np.array(y_new) - ref_y)) <= 1e-13 * np.linalg.norm(ref_y)
    # the estimate is a cancelling sum: compare relative to its terms' size
    assert abs(err - ref_err) <= 1e-13 * err_scale


def test_step_size_underflow_reported(params):
    # an unreachable tolerance forces the step below the floor
    cfg = IntegratorConfig(rel_tol=1e-300, abs_tol=1e-300)
    st = _latched_start(params, 1.0, 1.5)
    with pytest.raises(StepSizeUnderflowError):
        integrate_step(params, st, -5.0, Mode.LATCHED, 1e-2, cfg)


# --- locate_event -----------------------------------------------------------


def _tau_fn(params, F_L):
    from lamsa import contact_force

    return lambda s: contact_force(params, s, F_L)


def test_locate_event_tau_crossing(cc_params):
    # march the latched flow into the tau sign change, then bisect it
    cfg = IntegratorConfig()
    F_L = -5.0
    st = _latched_start(cc_params, 3.4, 3.6)
    t = 0.0
    for _ in range(2000):
        new, dt, _ = integrate_step(cc_params, st, F_L, Mode.LATCHED, 5e-3, cfg)
        if _tau_fn(cc_params, F_L)(new) < 0:
            ev = locate_event(
                cc_params, F_L, (t, st, t + dt, new), _tau_fn(cc_params, F_L), cfg,
                Mode.LATCHED, EventKind.UNLATCH_TAU_ZERO,
            )
            tau_lo = _tau_fn(cc_params, F_L)(st)
            tau_hi = _tau_fn(cc_params, F_L)(new)
            derived_tol = 4.0 * abs(tau_hi - tau_lo) / dt * cfg.event_time_tol + 1e-12
            assert t < ev.t <= t + dt
            assert abs(_tau_fn(cc_params, F_L)(ev.state)) <= derived_tol
            return
        st, t = new, t + dt
    pytest.fail("tau never crossed zero")


def test_locate_event_position_crossing(params):
    # unlatched flight through p = R with monotone p
    cfg = IntegratorConfig(max_step=0.2)
    st = SystemState(4.9, 2.0, 1.0, 0.0)
    new, dt, _ = integrate_step(params, st, 0.0, Mode.UNLATCHED, 1e-1, cfg)
    assert new.p > params.R
    ev = locate_event(
        params, 0.0, (0.0, st, dt, new), lambda s: s.p - params.R, cfg,
        Mode.UNLATCHED, EventKind.TAKEOFF_TANGENCY,
    )
    assert abs(ev.state.p - params.R) <= 2.0 * abs(new.p_dot) * cfg.event_time_tol + 1e-12


def test_locate_event_requires_sign_change(params):
    st = SystemState(1.0, 0.0, 3.0, 0.0)
    with pytest.raises(NoSignChangeError):
        locate_event(
            params, 0.0, (0.0, st, 0.1, st), lambda s: 1.0, None,
            Mode.UNLATCHED, EventKind.TAKEOFF_TANGENCY,
        )


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


def test_simulate_constant_at_unlatched_equilibrium(params):
    traj = simulate(params, SystemState(10, 0, 3, 0), 0.0, 1.0)
    assert not traj.events
    assert traj.final.t == pytest.approx(1.0)
    final = traj.final.state
    assert final == SystemState(10, 0, 3, 0)
    assert all(s.mode is Mode.UNLATCHED for s in traj.samples)


def test_simulate_constant_at_latched_origin(params):
    traj = simulate(params, SystemState(0, 0, 0, 0), 0.0, 1.0)
    assert not traj.events
    assert all(s.mode is Mode.LATCHED for s in traj.samples)
    assert np.max(np.abs(traj.final.state.as_array())) <= 1e-12


def test_simulate_pulling_force_unlatches_and_launches(params):
    # no latched equilibrium exists for a pulling force, so the flow must
    # exit through the guard and the projectile accelerates outward
    x0 = _latched_start(params, 1.0, 0.1)
    traj = simulate(params, x0, 1.0, 10.0)
    assert len(traj.events) == 1
    assert traj.events[0].kind is EventKind.UNLATCH_TAU_ZERO
    assert traj.final.state.p >= params.p0 - 1e-6
    assert traj.final.state.p_dot > 0


def test_simulate_latched_segment_matches_fixed_stride_oracle(cc_params):
    # projection off so the trajectory is the raw flow of the latched field
    cfg = IntegratorConfig(constraint_projection=False)
    x0 = _latched_start(cc_params, 1.0, 0.0)
    t_probe = 1.5
    traj = simulate(cc_params, x0, -5.0, t_probe, cfg)
    assert not traj.events

    def f(y: np.ndarray) -> np.ndarray:
        return np.array(_field_arr(cc_params, y, -5.0, True, ModelVariant.CONSTRAINT_CONSISTENT))

    ref = rk4_fixed(f, x0.as_array(), t_probe, 60000)
    assert np.max(np.abs(traj.final.state.as_array() - ref)) <= 1e-7


def test_simulate_event_state_and_mode_monotonicity(cc_params):
    traj = simulate(cc_params, SystemState(1, 0, 3, 0), -5.0, 10.0)
    assert [e.kind for e in traj.events] == [EventKind.UNLATCH_TAU_ZERO]
    t_ev = traj.events[0].t
    assert t_ev == pytest.approx(2.934182, abs=1e-4)

    # strictly increasing times, exactly one L->U switch, no U->L
    times = traj.times()
    assert np.all(np.diff(times) > 0)
    modes = [s.mode for s in traj.samples]
    switches = [(a, b) for a, b in zip(modes, modes[1:]) if a is not b]
    assert switches == [(Mode.LATCHED, Mode.UNLATCHED)]
    i_switch = modes.index(Mode.UNLATCHED)
    assert traj.samples[i_switch].t == t_ev

    # tau bookkeeping per sample
    for s in traj.samples:
        if s.mode is Mode.LATCHED:
            assert s.tau > 0
        else:
            assert s.tau == 0.0


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
    samples = traj.samples
    assert len(samples) == n
    assert [s.t for s in samples] == traj.t
    assert [s.state for s in samples] == traj.x
    assert traj.final == samples[-1]
    assert traj.times().shape == (n,)
    assert traj.states().shape == (n, 4)
    assert np.array_equal(traj.states()[-1], traj.final.state.as_array())
    # integer inputs come out as plain floats in every column
    assert all(type(v) is float for v in traj.t + traj.tau)
    assert all(type(c) is float for s in traj.x for c in s)


def test_simulate_conserves_energy_and_constraint(cc_params):
    traj = simulate(cc_params, SystemState(1, 0, 3, 0), -5.0, 10.0)
    e0 = mechanical_energy(cc_params, traj.samples[0].state, -5.0)
    for s in traj.samples:
        e = mechanical_energy(cc_params, s.state, -5.0)
        assert abs(e - e0) <= 1e-6 * abs(e0)
        if s.mode is Mode.LATCHED:
            assert abs(holonomic_h(cc_params, s.state.p, s.state.l)) <= 1e-8 * cc_params.R**2


def test_simulate_unlatched_energies_decouple(params):
    traj = simulate(params, SystemState(9.0, 0.5, 2.0, 0.3), -2.0, 5.0)
    assert not traj.events
    s0 = traj.samples[0].state
    ep0 = 0.5 * params.m * s0.p_dot**2 + 0.5 * params.k * (s0.p - params.p0) ** 2
    el0 = 0.5 * params.M * s0.l_dot**2 - (-2.0) * s0.l
    for s in traj.samples:
        ep = 0.5 * params.m * s.state.p_dot**2 + 0.5 * params.k * (s.state.p - params.p0) ** 2
        el = 0.5 * params.M * s.state.l_dot**2 - (-2.0) * s.state.l
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
    a = simulate(cc_params, x0, -5.0, 2.0, coarse).final.state.as_array()
    b = simulate(cc_params, x0, -5.0, 2.0, fine).final.state.as_array()
    bound = max(coarse.rel_tol * float(np.linalg.norm(a)), coarse.abs_tol)
    assert float(np.linalg.norm(a - b)) < bound


def test_simulate_time_reversal_returns_start(params):
    cfg = IntegratorConfig()
    x0 = SystemState(9.0, 0.5, 2.0, 0.3)
    fwd = simulate(params, x0, -2.0, 0.8, cfg).final.state
    back_start = SystemState(fwd.p, -fwd.p_dot, fwd.l, -fwd.l_dot)
    back = simulate(params, back_start, -2.0, 0.8, cfg).final.state
    recovered = np.array([back.p, -back.p_dot, back.l, -back.l_dot])
    bound = 10.0 * max(cfg.rel_tol * float(np.linalg.norm(x0.as_array())), cfg.abs_tol)
    assert float(np.linalg.norm(recovered - x0.as_array())) <= bound


def test_simulate_rejects_invalid_initial_state(params):
    with pytest.raises(ValueError):
        simulate(params, SystemState(math.nan, 0, 0, 0), 0.0, 1.0)
