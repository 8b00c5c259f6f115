from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lamsa import (
    Classification,
    ModelVariant,
    PathTerminal,
    SystemParams,
    design_feasibility,
    fixed_points,
    saddle_region_map,
    trace_path,
)
from lamsa.bifurcation import PathSample
from lamsa.equilibria import _far_fold
from lamsa.errors import InvalidStartError, SingularBoundError, SingularDenominatorError
from lamsa.model import latch_from_projectile
from lamsa.published import (
    _DENOM_TOL,
    _negligible,
    in_region_U,
    nominal_rhs,
    printed_slope,
    quartic_coefficients,
    roots_in_interval,
)
from lamsa.stability import _latched_abgd, characteristic_invariants, classify

from conftest import REF_SADDLE_FL, REF_SADDLE_P
from oracles import trace_path_three_quartics


def _interior_p(params, fl):
    return [f for f in fixed_points(params, fl) if not f.origin_flag][0].p_star


# --- nominal_rhs -------------------------------------------------------------


def test_nominal_rhs_zero_at_bifurcation_point(params):
    assert nominal_rhs(params, 0.0, 0.0) == 0.0
    # denominator there is Theta at zero force = 2 R k^2 p0^2 / M^2 = 40
    u = in_region_U(params, 0.0, 0.0)
    assert u.quartic_dp == pytest.approx(40.0)


def test_nominal_rhs_negative_at_saddle(params):
    slope = nominal_rhs(params, _interior_p(params, REF_SADDLE_FL), REF_SADDLE_FL)
    assert slope < 0.0
    assert slope == pytest.approx(-0.0253, abs=2e-3)


def test_nominal_rhs_zero_at_zero_force_any_p(params):
    # the soft spring's Sigma+Pi is ~4e-12, which only an absolute floor
    # would take for zero
    soft = SystemParams(m=1.0, M=1.0, R=1.0, k=1e-6, p0=2.0)
    for prm, ps in ((params, (0.5, 2.0, 4.0)), (soft, (0.25, 0.75))):
        for p in ps:
            assert nominal_rhs(prm, p, 0.0) == 0.0
            assert printed_slope(prm, p, 0.0) == 0.0
            # Lambda = -M^2 (p - R)^2 F_L is -0.0 at F_L = 0, over a nonzero Sigma+Pi
            assert math.copysign(1.0, printed_slope(prm, p, 0.0)) == -1.0


def test_slope_denominators_are_singular_within_their_terms_band():
    # one rule for dD/dp and Sigma+Pi, for floats and arrays alike:
    # |den| <= 1e-10 max |term|, so the band's edge is singular, the next
    # float out is not, and an all-zero denominator is
    terms = (3.0, -8.0, 0.5)
    edge = _DENOM_TOL * 8.0
    dens = [edge, -edge, math.nextafter(edge, 1.0), -math.nextafter(edge, 1.0), 0.0]
    want = [True, True, False, False, True]
    assert [bool(_negligible(d, terms)) for d in dens] == want
    assert _negligible(np.array(dens), tuple(np.full(len(dens), t) for t in terms)).tolist() == want
    assert _negligible(0.0, (0.0, -0.0))
    # dD/dp vanishes exactly at p = 2.5, F_L = 0; at p = 0, F_L = 0 with
    # p0 = 4R, Sigma+Pi and each of its terms do
    with pytest.raises(SingularDenominatorError, match="dD/dp"):
        nominal_rhs(SystemParams(), 2.5, 0.0)
    with pytest.raises(SingularDenominatorError, match="Sigma"):
        printed_slope(SystemParams(R=5.0, p0=20.0), 0.0, 0.0)


def test_nominal_rhs_matches_root_finite_difference(params):
    # oracle: differentiate the tracked quartic root with respect to the
    # latch force directly
    for fl in np.linspace(-15.0, -0.5, 20):
        fl = float(fl)
        p = _interior_p(params, fl)
        d = 1e-5 * max(1.0, abs(fl))
        q_hi = quartic_coefficients(params, fl + d)
        q_lo = quartic_coefficients(params, fl - d)
        hi = roots_in_interval(q_hi, 0.0, params.R, tol=1e-13)[0]
        lo = roots_in_interval(q_lo, 0.0, params.R, tol=1e-13)[0]
        fd = (hi - lo) / (2.0 * d)
        assert nominal_rhs(params, p, fl) == pytest.approx(fd, rel=1e-4)


# --- trace_path ---------------------------------------------------------------


def test_trace_path_reaches_bifurcation(params):
    start_p = _interior_p(params, REF_SADDLE_FL)
    path = trace_path(params, (start_p, REF_SADDLE_FL), F_L_end=0.0)
    assert path.terminal is PathTerminal.REACHED_ZERO_FORCE
    assert path.final.F_L == 0.0
    assert abs(path.final.p_star) < 1e-3
    fls = [s.F_L for s in path.samples]
    assert all(a < b for a, b in zip(fls, fls[1:]))  # strictly increasing


def test_trace_path_samples_are_equilibria(params):
    # every sample is the very point fixed_points gives at its F_L; at
    # F_L = 0 only the origin is left
    start_p = _interior_p(params, REF_SADDLE_FL)
    *inner, last = trace_path(params, (start_p, REF_SADDLE_FL), F_L_end=0.0).samples
    for s in inner:
        assert s.p_star == _interior_p(params, s.F_L)
    assert (last.F_L, last.p_star) == (0.0, fixed_points(params, 0.0)[0].p_star)


def test_trace_path_stays_in_saddle_region(params):
    start_p = _interior_p(params, REF_SADDLE_FL)
    path = trace_path(params, (start_p, REF_SADDLE_FL), F_L_end=0.0)
    assert all(s.in_S for s in path.samples)


def test_trace_path_sensitivity_minimal_near_zero_force(params):
    # the slope dp*/dF_L shrinks to zero with F_L: the least sensitive
    # samples cluster at the end of the path
    start_p = _interior_p(params, REF_SADDLE_FL)
    path = trace_path(params, (start_p, REF_SADDLE_FL), F_L_end=0.0)
    slopes = [abs(nominal_rhs(params, s.p_star, s.F_L)) for s in path.samples]
    i_min = int(np.argmin(slopes))
    assert path.samples[i_min].F_L > -0.5


def test_trace_path_single_sample_at_bifurcation(params):
    path = trace_path(params, (0.0, 0.0), F_L_end=0.0)
    assert path.terminal is PathTerminal.REACHED_ZERO_FORCE
    assert len(path.samples) == 1


@pytest.mark.parametrize("var", list(ModelVariant))
@pytest.mark.parametrize("fl_start", [REF_SADDLE_FL, -3.3])
def test_trace_path_equals_the_three_quartic_oracle(var, fl_start):
    # the theta solve and the predictor-corrector on the squared balance
    # meet the same branch at the same forces
    params = SystemParams(variant=var)
    start = (_interior_p(params, fl_start), fl_start)
    path = trace_path(params, start, F_L_end=0.0)
    want = trace_path_three_quartics(params, start, F_L_end=0.0)
    assert path.terminal is want.terminal is PathTerminal.REACHED_ZERO_FORCE
    assert len(path.samples) == len(want.samples) > 20
    assert [s.F_L for s in path.samples] == [s.F_L for s in want.samples]
    assert [s.in_S for s in path.samples] == [s.in_S for s in want.samples]
    for got, ref in zip(path.samples, want.samples):
        assert abs(got.p_star - ref.p_star) <= 1e-14 * max(1.0, abs(ref.p_star)), got.F_L


def test_trace_path_singular_start_at_the_end_is_one_sample():
    # a soft spring makes dD/dp tiny at (0, 0); a path that starts where
    # it ends takes no step, so it is one sample whatever the slope
    params = SystemParams(m=1.0, M=1.0, R=1.0, k=1e-6, p0=2.0)
    path = trace_path(params, (0.0, 0.0), F_L_end=0.0)
    assert path.terminal is PathTerminal.REACHED_ZERO_FORCE
    assert path.samples == trace_path_three_quartics(params, (0.0, 0.0)).samples
    assert len(path.samples) == 1


@pytest.mark.parametrize("fl_start, n_samples", [(-1e-5, 2), (-1e-7, 2), (-0.5, 11)])
def test_trace_path_soft_spring_reaches_zero_force(fl_start, n_samples):
    # the squared balance's coefficients scale with k^2, where a fold test
    # on it would fire; the near arc has no fold (G' = c k (a + R/s^3) > 0),
    # so each path reaches F_L = 0
    params = SystemParams(m=1.0, M=1.0, R=1.0, k=1e-6, p0=2.0)
    path = trace_path(params, (_interior_p(params, fl_start), fl_start), F_L_end=0.0)
    assert path.terminal is PathTerminal.REACHED_ZERO_FORCE
    assert path.final.F_L == 0.0 and path.final.p_star == 0.0
    assert len(path.samples) == n_samples


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    R=st.floats(1.0, 8.0),
    m=st.floats(0.2, 5.0),
    M=st.floats(0.2, 8.0),
    k=st.floats(0.2, 4.0),
    p0_ratio=st.floats(1.05, 3.95),
    fl_start=st.floats(-20.0, -0.05),
    end_share=st.sampled_from([0.0, 0.0, 0.3, 0.999]),
    var=st.sampled_from(list(ModelVariant)),
)
def test_trace_path_follows_the_near_arc_point(R, m, M, k, p0_ratio, fl_start, end_share, var):
    # criterion 11's parameter space: every sample is fixed_points' near-arc
    # point, F_L strictly increases and the path ends at F_L_end
    params = SystemParams(m=m, M=M, R=R, k=k, p0=p0_ratio * R, variant=var)
    F_L_end = end_share * fl_start
    path = trace_path(params, (_interior_p(params, fl_start), fl_start), F_L_end=F_L_end)
    assert path.terminal is PathTerminal.REACHED_ZERO_FORCE
    assert path.final.F_L == F_L_end
    fls = [s.F_L for s in path.samples]
    assert all(a < b for a, b in zip(fls, fls[1:]))
    for s in path.samples:
        near = [f.p_star for f in fixed_points(params, s.F_L) if f.p_star < R] if s.F_L < 0.0 else [0.0]
        assert s.p_star == near[-1], s.F_L


@pytest.mark.parametrize("var", list(ModelVariant))
@pytest.mark.parametrize("p0", [6.0, 8.0])
def test_trace_path_far_arc_start_leaves_the_domain(var, p0):
    # the far pair and its fold F_min lie on the far arc (p* > p0 > R),
    # which never reaches F_L = 0: the path is the start alone
    params = SystemParams(p0=p0, variant=var)
    _, f_min = _far_fold(params, params.k * (params.m / params.M if var is ModelVariant.AS_PRINTED else 1.0))
    starts = [(fp.p_star, fp.F_L_star) for fp in fixed_points(params, 0.5 * f_min) if fp.p_star > p0]
    fold = [fp for fp in fixed_points(params, f_min) if fp.p_star > p0]
    assert len(starts) == 2 and len(fold) == 1
    for start in [*starts, (fold[0].p_star, f_min)]:
        path = trace_path(params, start, F_L_end=0.0)
        assert path.terminal is PathTerminal.LEFT_DOMAIN
        assert [(s.p_star, s.F_L) for s in path.samples] == [start]


def test_path_sample_record_api(params):
    # an immutable named tuple, as FixedPoint is: keyword construction,
    # attribute access, tuple equality and _replace
    s = PathSample(F_L=-2.0, p_star=0.5, in_S=True, h2=0.25)
    assert s == PathSample(-2.0, 0.5, True, 0.25) == (-2.0, 0.5, True, 0.25)
    assert s._replace(in_S=False) == (-2.0, 0.5, False, 0.25)
    assert s.in_S is True  # _replace made a copy
    with pytest.raises(AttributeError):
        s.p_star = 1.0
    path = trace_path(params, (_interior_p(params, REF_SADDLE_FL), REF_SADDLE_FL))
    for sample in path.samples:
        assert type(sample) is PathSample
        assert tuple(map(type, sample)) == (float, float, bool, float)


def test_trace_path_rejects_bad_start(params):
    with pytest.raises(InvalidStartError):
        trace_path(params, (3.0, -15.0))  # not on the equilibrium balance
    with pytest.raises(InvalidStartError):
        trace_path(params, (REF_SADDLE_P, -15.0), F_L_end=1.0)  # past zero
    with pytest.raises(InvalidStartError):
        trace_path(params, (REF_SADDLE_P, -15.0), F_L_end=-16.0)  # backwards


def test_no_interior_point_for_positive_force(params):
    for fl in np.linspace(1.5, 15.0, 10):
        assert [f for f in fixed_points(params, float(fl)) if not f.origin_flag] == []


# --- region U and the saddle-region raster -----------------------------------


def test_region_u_printed_sign_conflicts_with_claim(params):
    # the printed denominator evaluates to +500 at the bifurcation point,
    # so printed-formula membership is false there even though the text
    # asserts the set contains it; the implicit-diff diagnostic is healthy
    u = in_region_U(params, 0.0, 0.0)
    assert u.sigma_plus_pi == pytest.approx(500.0)
    assert not u.in_u
    assert u.quartic_dp == pytest.approx(40.0)


def test_region_u_sigma_vanishes_at_radius(params):
    # Sigma carries the factor (p - R); at p = R only Pi survives
    for fl in (-15.0, -2.0):
        u = in_region_U(params, params.R, fl)
        u0 = in_region_U(params, params.R, 0.0)
        assert u.sigma_plus_pi == pytest.approx(u0.sigma_plus_pi)


def test_saddle_region_map_shape_and_members(params):
    p_grid = np.array([0.0, 1.0, REF_SADDLE_P, 4.9])
    fl_grid = np.array([-15.0, -5.0, 0.0])
    rmap = saddle_region_map(params, p_grid, fl_grid)
    assert rmap.h1.shape == (4, 3) and rmap.h2.shape == (4, 3) and rmap.in_S.shape == (4, 3)
    # the published saddle pair lies in S
    assert rmap.in_S[2, 0]
    # the bifurcation point lies in S (h1 = 0 there, h2 = tau/M > 0)
    assert rmap.in_S[0, 2]
    assert rmap.h2[0, 2] == pytest.approx(0.4, abs=1e-6)
    assert abs(rmap.h1[0, 2]) <= 1e-8


@pytest.mark.parametrize("var", list(ModelVariant))
def test_saddle_region_map_nodes_equal_the_scalar_closed_form(var):
    params = SystemParams(variant=var)
    p_grid = np.linspace(0.0, 4.95, 12)
    fl_grid = np.linspace(-15.0, 0.0, 16)
    rmap = saddle_region_map(params, p_grid, fl_grid)
    assert rmap.in_S.any() and not rmap.in_S.all()  # both labels occur
    for i, p in enumerate(p_grid.tolist()):
        for j, fl in enumerate(fl_grid.tolist()):
            abgd = _latched_abgd(params, p, latch_from_projectile(params, p), fl)
            h1, h2 = characteristic_invariants(*abgd)
            assert (rmap.h1[i, j], rmap.h2[i, j]) == (h1, h2), (p, fl)
            assert rmap.in_S[i, j] == (classify(h1, h2) is Classification.SADDLE), (p, fl)


def test_saddle_region_map_validates_grids(params):
    with pytest.raises(ValueError):
        saddle_region_map(params, np.array([5.0]), np.array([-1.0]))
    with pytest.raises(ValueError):
        saddle_region_map(params, np.array([1.0]), np.array([0.5]))
    with pytest.raises(ValueError):
        saddle_region_map(params, np.array([]), np.array([-1.0]))


# --- design feasibility -------------------------------------------------------


def test_design_feasibility_reference_values(params):
    rep = design_feasibility(params)
    assert rep.p0_window_ok
    assert rep.p0_bound == pytest.approx(0.72177, abs=1e-5)
    assert rep.p0_bound_ok
    assert rep.h1_at_origin == pytest.approx(-0.50876, abs=1e-4)
    assert rep.feasible
    # the finite-difference cross-check value is exposed alongside; it is
    # identically zero at the origin and does NOT reproduce the printed
    # closed form (see the decisions ledger)
    assert abs(rep.h1_fd_origin) <= 1e-8


@pytest.mark.parametrize("var", list(ModelVariant))
def test_design_feasibility_fd_h1_is_pinned(var):
    # the published design check's finite-difference evidence, to the bit:
    # a plain float, equal for both variants (the variant enters the field
    # only through l F_L, and the check sets F_L = 0)
    h1 = design_feasibility(SystemParams(variant=var)).h1_fd_origin
    assert type(h1) is float
    assert h1 == 5.866964579999925e-11


def test_design_feasibility_window_violation():
    rep = design_feasibility(SystemParams(p0=25.0))  # outside (R, 4R)
    assert not rep.p0_window_ok
    assert not rep.feasible


def test_design_feasibility_singular_bound():
    with pytest.raises(SingularBoundError):
        design_feasibility(SystemParams(m=1.0, M=1.0, R=1.0, k=1.0, p0=2.0))
