from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lamsa import (
    Mode,
    ModelVariant,
    SystemParams,
    SystemState,
    balance_residual,
    fixed_point_sweep,
    fixed_points,
    latch_from_projectile,
    simulate,
    unlatched_fixed_point,
)
from lamsa.equilibria import _VANISH_TOL, FixedPoint, _far_fold
from lamsa.errors import ContactWindowError, EquilibriumBalanceError, NumericalError
from lamsa.model import _field_arr
from lamsa.published import eval_quartic, eval_quartic_derivative, quartic_coefficients, roots_in_interval

from conftest import REF_SADDLE_FL, REF_SADDLE_P
from oracles import fine_grid_roots, theta_newton_reference, vector_field


def test_quartic_coefficients_reference_values(params):
    q = quartic_coefficients(params, -15.0)
    assert q.E == pytest.approx(-0.04, rel=1e-14)
    assert q.Z == pytest.approx(1.2, rel=1e-14)
    assert q.H == pytest.approx(-237.0, rel=1e-14)
    assert q.Theta == pytest.approx(2290.0, rel=1e-14)
    assert q.I == pytest.approx(-5625.0, rel=1e-14)


def test_quartic_coefficients_zero_force(params):
    q = quartic_coefficients(params, 0.0)
    assert q.I == 0.0
    base = quartic_coefficients(params, 0.0)
    # H and Theta lose their F_L^2 contributions
    assert base.H == pytest.approx(-(params.k**2) * (params.p0**2 + 4 * params.R * params.p0) / params.M**2)
    assert base.Theta == pytest.approx(2 * params.R * params.k**2 * params.p0**2 / params.M**2)


def test_quartic_leading_coefficient_always_negative(params):
    for fl in (-15.0, -1.0, 0.0):
        for var in ModelVariant:
            assert quartic_coefficients(replace(params, variant=var), fl).E < 0.0


def test_quartic_value_at_twice_radius(params):
    # D(2R) = -F_L^2 R^2 / m^2 regardless of the other parameters
    for fl in (-15.0, -3.7, -0.2):
        q = quartic_coefficients(params, fl)
        assert eval_quartic(q, 2 * params.R) == pytest.approx(-(fl**2) * params.R**2 / params.m**2, rel=1e-9)


def test_eval_quartic_examples(params):
    q = quartic_coefficients(params, -15.0)
    assert eval_quartic(q, 0.0) == pytest.approx(-5625.0)
    assert eval_quartic(q, 5.0) == pytest.approx(25.0, abs=1e-9)
    assert eval_quartic(q, 10.0) == pytest.approx(-5625.0, abs=1e-9)


def test_eval_quartic_derivative_matches_grad(params):
    q = quartic_coefficients(params, -7.0)
    for p in (0.3, 2.1, 4.9, 7.7):
        d = 1e-6
        fd = (eval_quartic(q, p + d) - eval_quartic(q, p - d)) / (2 * d)
        assert eval_quartic_derivative(q, p) == pytest.approx(fd, rel=1e-7)


def test_roots_in_interval_finds_saddle(params):
    q = quartic_coefficients(params, -15.0)
    roots = roots_in_interval(q, 0.0, 5.0, tol=1e-9)
    assert len(roots) == 1
    assert roots[0] == pytest.approx(REF_SADDLE_P, abs=1e-3)


def test_roots_in_interval_spurious_branch(params):
    q = quartic_coefficients(params, -15.0)
    roots = roots_in_interval(q, 5.0, 10.0, tol=1e-9)
    assert len(roots) == 1
    ref = fine_grid_roots(q.as_tuple(), 5.0, 10.0, n=100_000)
    assert roots[0] == pytest.approx(ref[0], abs=1e-7)


def test_roots_in_interval_excludes_boundary_root(params):
    # at F_L = 0 the quartic is k^2 (p0-p)^2 p (2R-p) / M^2 >= 0 on (0, R)
    # with its only nonnegative root at the excluded endpoint p = 0
    q = quartic_coefficients(params, 0.0)
    assert roots_in_interval(q, 0.0, 5.0, tol=1e-9) == []


def test_roots_in_interval_validates_arguments(params):
    q = quartic_coefficients(params, -1.0)
    with pytest.raises(ValueError):
        roots_in_interval(q, 5.0, 5.0)
    with pytest.raises(ValueError):
        roots_in_interval(q, 0.0, 5.0, tol=0.0)


def test_fixed_points_reference_case(params):
    pts = fixed_points(params, REF_SADDLE_FL)
    assert len(pts) == 2
    origin, interior = pts
    assert origin.origin_flag and origin.p_star == 0.0
    assert not interior.origin_flag
    assert interior.p_star == pytest.approx(REF_SADDLE_P, abs=1e-3)
    assert interior.l_star == pytest.approx(4.98730, abs=1e-3)
    assert interior.mode is Mode.LATCHED


def test_fixed_points_zero_force_only_origin(params):
    pts = fixed_points(params, 0.0)
    assert len(pts) == 1
    assert pts[0].origin_flag
    assert abs(pts[0].p_star) < 1e-12
    # a true rest point of the full field: all four rows vanish
    assert pts[0].vanishing_rows == (0, 1, 2, 3)


def test_fixed_points_positive_force_empty(params):
    for fl in np.linspace(0.5, 15.0, 10):
        assert fixed_points(params, float(fl)) == []


def test_fixed_points_small_negative_force(params):
    pts = fixed_points(params, -1.0)
    interior = [p for p in pts if not p.origin_flag]
    assert len(interior) == 1
    assert interior[0].p_star == pytest.approx(0.58398, abs=1e-4)


def test_fixed_points_origin_annotation(params):
    # for F_L < 0 the origin zeroes everything except the latch row,
    # whose acceleration is F_L / M
    origin = fixed_points(params, -15.0)[0]
    assert origin.vanishing_rows == (0, 1, 2)
    res = vector_field(params, origin.rest_state(), origin.F_L_star, origin.mode)
    assert res[3] == pytest.approx(-15.0 / params.M, rel=1e-12)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    R=st.floats(1.0, 8.0),
    m=st.floats(0.2, 5.0),
    M=st.floats(0.2, 8.0),
    k=st.floats(0.2, 4.0),
    p0_ratio=st.floats(1.05, 3.95),
    var=st.sampled_from(list(ModelVariant)),
    data=st.data(),
)
def test_origin_record_equals_the_field_evaluated_one(R, m, M, k, p0_ratio, var, data):
    # the origin's vanishing rows come from a closed form; the field
    # evaluated at (0, 0, 0, 0) must give the same record, including at
    # F_L = -0.0 and around the edge |F_L/M| = tol of the latch row
    params = SystemParams(m=m, M=M, R=R, k=k, p0=p0_ratio * R, variant=var)
    edge = M * _VANISH_TOL * max(1.0, k * params.p0)
    near_edge = [-edge, -math.nextafter(edge, 0.0), -math.nextafter(edge, math.inf)]
    F_L = data.draw(st.one_of(
        st.sampled_from([0.0, -0.0, *near_edge]),
        st.floats(0.999, 1.001).map(lambda s: -s * edge),
        st.floats(-12.0, math.log10(20.0)).map(lambda e: -(10.0**e)),
    ))
    res = _field_arr(params, (0.0, 0.0, 0.0, 0.0), F_L)[:4]
    tol = _VANISH_TOL * max(1.0, abs(F_L), params.k * params.p0)
    rows = tuple(i for i, r in enumerate(res) if abs(r) <= tol)
    origin = fixed_points(params, F_L)[0]
    assert origin == FixedPoint(0.0, 0.0, F_L, Mode.LATCHED, True, rows)
    assert math.copysign(1.0, origin.F_L_star) == math.copysign(1.0, F_L)


def test_fixed_points_projectile_row_vanishes(params):
    # the quartic-root + sign-check pipeline guarantees the projectile
    # acceleration is zero under the same variant used to build D
    for var in ModelVariant:
        p = SystemParams(variant=var)
        interior = [f for f in fixed_points(p, -15.0) if not f.origin_flag][0]
        res = vector_field(p, interior.rest_state(), interior.F_L_star, interior.mode)
        assert np.max(np.abs(res[:3])) <= 1e-8


def test_constraint_consistent_interior_is_true_equilibrium(cc_params):
    for fl in (-15.0, -5.0, -0.5):
        interior = [f for f in fixed_points(cc_params, fl) if not f.origin_flag][0]
        assert interior.vanishing_rows == (0, 1, 2, 3)
        f = vector_field(
            cc_params,
            SystemState(interior.p_star, 0, interior.l_star, 0),
            fl,
            Mode.LATCHED,
        )
        assert np.max(np.abs(f)) <= 1e-8


def test_unique_interior_point_and_balance_over_sweep(params):
    for fl in -np.logspace(np.log10(15.0), np.log10(1e-12), 80):
        pts = fixed_points(params, float(fl))
        interior = [p for p in pts if not p.origin_flag]
        assert len(interior) == 1
        p_star = interior[0].p_star
        assert 0.0 < p_star < params.R
        res = balance_residual(params, p_star, float(fl))
        lhs = params.k * (params.p0 - p_star) * interior[0].l_star / params.M
        assert abs(res) <= 1e-9 * max(1.0, abs(lhs))


def test_balance_residual_is_defined_on_the_contact_window(params):
    assert balance_residual(params, 0.0, 0.0) == 0.0
    # outside [0, 2R] no latch position touches the projectile: a numerical
    # failure (CLI exit 2), as for latch_from_projectile
    for p in (-0.01, 10.01):
        with pytest.raises(ContactWindowError, match="outside the contact window"):
            balance_residual(params, p, -1.0)
    assert issubclass(ContactWindowError, NumericalError) and not issubclass(ContactWindowError, ValueError)


def test_spurious_root_rejected_by_sign_check(params):
    for fl in (-15.0, -4.0, -0.3):
        q = quartic_coefficients(params, fl)
        spurious = roots_in_interval(q, params.R, 2 * params.R, tol=1e-10)
        assert len(spurious) == 1
        assert abs(balance_residual(params, spurious[0], fl)) > 1e-3


def test_interior_point_decreases_monotonically(params):
    fls = np.linspace(-15.0, -0.01, 60)
    stars = [
        [p for p in fixed_points(params, float(fl)) if not p.origin_flag][0].p_star
        for fl in fls
    ]
    assert all(a > b for a, b in zip(stars, stars[1:]))
    assert stars[-1] < 1e-3  # the moving point collapses into the origin


def test_quartic_roots_match_fine_grid_oracle():
    rng = np.random.default_rng(42)
    for _ in range(50):
        R = float(rng.uniform(1.0, 8.0))
        params = SystemParams(
            m=float(rng.uniform(0.2, 5.0)),
            M=float(rng.uniform(0.2, 8.0)),
            R=R,
            k=float(rng.uniform(0.2, 4.0)),
            p0=float(R * rng.uniform(1.05, 3.95)),
        )
        fl = float(-rng.uniform(0.05, 20.0))
        q = quartic_coefficients(params, fl)
        mine = roots_in_interval(q, 0.0, 2 * R, tol=1e-12)
        ref = fine_grid_roots(q.as_tuple(), 0.0, 2 * R, n=200_000)
        assert len(mine) == len(ref)
        for a, b in zip(mine, ref):
            assert a == pytest.approx(b, abs=1e-7)


def test_quartic_roots_match_companion_matrix(params):
    # second independent route: eigenvalues of the companion matrix
    for fl in (-15.0, -6.5, -0.8):
        q = quartic_coefficients(params, fl)
        mine = roots_in_interval(q, 0.0, 2 * params.R, tol=1e-12)
        cand = np.roots(q.as_tuple())
        real = sorted(
            float(r.real)
            for r in cand
            if abs(r.imag) < 1e-9 and 0.0 < r.real < 2 * params.R
        )
        assert len(mine) == len(real)
        for a, b in zip(mine, real):
            assert a == pytest.approx(b, abs=1e-8)


def test_fixed_point_record_api():
    # an immutable named tuple: keyword construction with defaults,
    # attribute access, rest_state(), tuple equality and _replace
    fp = FixedPoint(p_star=3.0, l_star=4.0, F_L_star=-2.0, mode=Mode.LATCHED)
    assert (fp.origin_flag, fp.vanishing_rows) == (False, (0, 1, 2, 3))
    assert fp == FixedPoint(3.0, 4.0, -2.0, Mode.LATCHED, False, (0, 1, 2, 3))
    assert fp.rest_state() == SystemState(3.0, 0.0, 4.0, 0.0)
    assert fp._replace(l_star=None).rest_state() == SystemState(3.0, 0.0, 0.0, 0.0)
    assert fp.l_star == 4.0  # _replace made a copy
    with pytest.raises(AttributeError):
        fp.p_star = 1.0
    origin, interior = fixed_points(SystemParams(), REF_SADDLE_FL)
    assert type(origin) is type(interior) is FixedPoint
    assert origin == (0.0, 0.0, REF_SADDLE_FL, Mode.LATCHED, True, (0, 1, 2))


def test_unlatched_fixed_point(params):
    fp = unlatched_fixed_point(params)
    assert fp.p_star == params.p0
    assert fp.F_L_star == 0.0
    assert fp.l_star is None  # latch position is unconstrained
    assert fp.mode is Mode.UNLATCHED
    rest = SystemState(fp.p_star, 0.0, 1.23, 0.0)
    assert set(simulate(params, rest, fp.F_L_star, 1.0).x) == {rest}
    from lamsa import spring_force

    assert spring_force(params, fp.p_star) == 0.0


# --- the balance solved in the circle's angle ----------------------------------


def _ck(params):
    c = params.m / params.M if params.variant is ModelVariant.AS_PRINTED else 1.0
    return c * params.k


def _theta_residual(params, fp):
    """Residual of F_L = -c k (p0 - R + R cos theta) tan theta at a point,
    relative to its larger side (the sides' own scale on the near arc)."""
    r_cos = params.R - fp.p_star
    tan = fp.l_star / r_cos
    a = params.p0 - params.R
    res = _ck(params) * (a + r_cos) * tan + fp.F_L_star
    return abs(res) / max(abs(fp.F_L_star), _ck(params) * abs(tan) * (a + abs(r_cos)))


def _validated_quartic_roots(params, fl, lo, hi):
    """Quartic roots in (lo, hi) that pass the unsquared balance to 1e-9,
    the quartic-based solver's acceptance rule."""
    printed = params.variant is ModelVariant.AS_PRINTED
    c1, c2 = (1.0 / params.M, 1.0 / params.m) if printed else (1.0, 1.0)
    out = []
    for root in roots_in_interval(quartic_coefficients(params, fl), lo, hi, tol=1e-12):
        lhs = params.k * (params.p0 - root) * latch_from_projectile(params, root) * c1
        rhs = (root - params.R) * fl * c2
        if abs(balance_residual(params, root, fl)) <= 1e-9 * max(1.0, abs(lhs), abs(rhs)):
            out.append(root)
    return out


def _check_near_arc(params, fl):
    near = [f for f in fixed_points(params, fl) if not f.origin_flag and f.p_star < params.R]
    assert len(near) == 1, (params, fl)
    fp = near[0]
    assert 0.0 < fp.p_star < params.R and 0.0 < fp.l_star
    assert _theta_residual(params, fp) <= 1e-12, (params, fl)
    for root in _validated_quartic_roots(params, fl, 0.0, params.R):
        assert abs(root - fp.p_star) <= 1e-10, (params, fl)
    return fp


def test_near_arc_point_survives_as_force_vanishes():
    # p* ~ F_L^2 as F_L -> 0-, where l(p) = sqrt(2Rp - p^2) has infinite
    # slope: a root in p accurate to 1e-12 fails the balance there (below
    # |F_L| ~ 0.02 derived, ~ 9e-4 printed), so a solve in p loses the point
    for var in ModelVariant:
        params = SystemParams(variant=var)
        for fl in -np.logspace(np.log10(15.0), -12.0, 150):
            _check_near_arc(params, float(fl))
        tiny = _check_near_arc(params, -1e-12)
        assert tiny.l_star == pytest.approx(1e-12 * params.R / (_ck(params) * params.p0), rel=1e-9)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    R=st.floats(1.0, 8.0),
    m=st.floats(0.2, 5.0),
    M=st.floats(0.2, 8.0),
    k=st.floats(0.2, 4.0),
    p0_ratio=st.floats(1.05, 3.95),
    log_fl=st.floats(-12.0, math.log10(20.0)),
    var=st.sampled_from(list(ModelVariant)),
)
def test_exactly_one_near_arc_point(R, m, M, k, p0_ratio, log_fl, var):
    params = SystemParams(m=m, M=M, R=R, k=k, p0=p0_ratio * R, variant=var)
    _check_near_arc(params, -(10.0**log_fl))


@pytest.mark.parametrize("p0", [6.0, 8.0])
@pytest.mark.parametrize("var", list(ModelVariant))
def test_far_pair_and_its_fold(p0, var):
    params = SystemParams(p0=p0, variant=var)
    R, a = params.R, p0 - params.R
    _, f_min = _far_fold(params, _ck(params))
    phi = np.linspace(0.0, math.acos(a / R), 1_000_001)
    assert f_min == pytest.approx(np.min(_ck(params) * (a - R * np.cos(phi)) * np.tan(phi)), rel=1e-10)

    both = 0
    for fl in f_min * np.linspace(0.999, 1e-6, 80):
        pts = fixed_points(params, float(fl))
        far = [f.p_star for f in pts if f.p_star > R]
        assert len(far) == 2 and p0 < far[0] < far[1] < 2.0 * R, fl
        assert [f.p_star for f in pts] == sorted(f.p_star for f in pts)
        for fp in pts[1:]:
            assert _theta_residual(params, fp) <= 1e-12, fl
        parent = _validated_quartic_roots(params, float(fl), R, 2.0 * R)
        if len(parent) == 2:
            both += 1
            assert far == pytest.approx(parent, abs=1e-10, rel=0.0)
    assert both >= 60

    fold = [f.p_star for f in fixed_points(params, f_min) if f.p_star > R]
    assert fold == pytest.approx([R * (1.0 + (a / R) ** (1.0 / 3.0))], rel=1e-12)
    for fl in (f_min * (1.0 + 1e-9), f_min * 2.0, -15.0):
        assert [f for f in fixed_points(params, fl) if f.p_star > R] == []


def test_no_far_pair_from_twice_the_radius(params):
    assert _far_fold(params, 1.0) is None
    assert _far_fold(SystemParams(p0=12.0), 1.0) is None
    for fl in (-15.0, -1.0, -1e-8):
        assert all(f.p_star < params.R for f in fixed_points(params, fl))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    R=st.floats(1.0, 8.0),
    m=st.floats(0.2, 5.0),
    M=st.floats(0.2, 8.0),
    k=st.floats(0.2, 4.0),
    p0_ratio=st.floats(1.05, 3.95),
    drawn=st.lists(st.floats(-20.0, 5.0), max_size=30),
    var=st.sampled_from(list(ModelVariant)),
)
def test_fixed_point_sweep_equals_fixed_points(R, m, M, k, p0_ratio, drawn, var):
    # criterion 11's parameter space: one batched solve gives, row for row,
    # the points that one fixed_points call per force gives
    params = SystemParams(m=m, M=M, R=R, k=k, p0=p0_ratio * R, variant=var)
    forces = [*drawn, 1.0, 0.0, -0.0, -1e-3, -1e-12, -1e-300]
    fold = _far_fold(params, _ck(params))
    if fold is not None:
        forces += [fold[1], 0.999 * fold[1], 1.001 * fold[1]]
    per_force = {}
    for f in forces:
        try:
            per_force[f] = [(f, fp.p_star, fp.l_star) for fp in fixed_points(params, f) if not fp.origin_flag]
        except EquilibriumBalanceError:  # a subnormal force: its point is not representable
            with pytest.raises(EquilibriumBalanceError):
                fixed_point_sweep(params, forces)
    forces = [f for f in forces if f in per_force]
    fl, p, l = fixed_point_sweep(params, forces)
    assert list(zip(fl.tolist(), p.tolist(), l.tolist())) == [row for f in forces for row in per_force[f]]


def test_fixed_point_sweep_of_no_force_is_empty(params):
    for forces in ([], [0.0, 2.0]):
        assert [a.size for a in fixed_point_sweep(params, forces)] == [0, 0, 0]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    R=st.floats(1.0, 8.0),
    m=st.floats(0.2, 5.0),
    M=st.floats(0.2, 8.0),
    k=st.floats(0.2, 4.0),
    p0_ratio=st.floats(1.05, 3.95),
    log_fl=st.lists(st.floats(-12.0, math.log10(20.0)), min_size=1, max_size=30),
    var=st.sampled_from(list(ModelVariant)),
)
def test_fixed_point_sweep_matches_the_scalar_loop_on_the_near_arc(R, m, M, k, p0_ratio, log_fl, var):
    # the batched solve against the per-force loop in plain floats: the
    # same iteration, so the same root up to numpy's last-bit differences
    # in hypot and the cube.  (The far pair is ill-conditioned as p0 -> 2R,
    # where the two differ by more; it is checked against the balance and
    # the quartic instead.)
    params = SystemParams(m=m, M=M, R=R, k=k, p0=p0_ratio * R, variant=var)
    ck, a = _ck(params), params.p0 - R
    forces = [-(10.0**e) for e in log_fl]
    fl, p, l = fixed_point_sweep(params, forces)
    near = p < R  # the far pair lies beyond p0 > R
    assert fl[near].tolist() == forces
    for f, got in zip(forces, zip(p[near].tolist(), l[near].tolist())):
        want = theta_newton_reference(params, ck, f, 1.0, -f / (ck * params.p0), -f / (ck * a))
        for x, y in zip(got, want):
            assert abs(x - y) <= 2e-15 * max(1.0, abs(y)), (f, x, y)
