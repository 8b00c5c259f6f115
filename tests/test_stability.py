from __future__ import annotations

import cmath
import math
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lamsa import (
    Classification,
    Mode,
    SystemState,
    characteristic_invariants,
    classify,
    eigenvalues_biquadratic,
    fixed_points,
    jacobian_fd_at,
    stability_report,
)
from lamsa.equilibria import FixedPoint, unlatched_fixed_point
from lamsa.model import ModelVariant, SystemParams, _field_arr, latch_from_projectile
from lamsa.published import closed_form_ABGD
from lamsa.stability import _FD_BASE, _latched_abgd, _saddle_classes

from conftest import REF_SADDLE_FL
from oracles import band_rule, jacobian_central_fd, jacobian_fd, real_pair_exists


def _interior(params, fl):
    return [f for f in fixed_points(params, fl) if not f.origin_flag][0]


def _entries(J):
    """(A, B, Gamma, Delta): the position columns of a latched Jacobian's acceleration rows."""
    return J[1, 0], J[1, 2], J[3, 0], J[3, 2]


# --- jacobian_fd ------------------------------------------------------------


def test_jacobian_rows_and_velocity_columns(params):
    fp = _interior(params, REF_SADDLE_FL)
    J = jacobian_fd(params, fp)
    assert np.array_equal(J[0], [0.0, 1.0, 0.0, 0.0])
    assert np.array_equal(J[2], [0.0, 0.0, 0.0, 1.0])
    # the contact force is quadratic in the velocities, so the velocity
    # partials of both acceleration rows vanish at a rest state
    scale = max(1.0, np.max(np.abs(J)))
    for i, j in ((1, 1), (1, 3), (3, 1), (3, 3)):
        assert abs(J[i, j]) <= 1e-8 * scale


def test_jacobian_finite_at_origin(params):
    J = jacobian_fd_at(params, SystemState(0, 0, 0, 0), 0.0)
    assert np.all(np.isfinite(J))
    A, B, G, D = _entries(J)
    assert A == pytest.approx(0.0, abs=1e-8)
    assert B == pytest.approx(0.0, abs=1e-8)
    assert G == pytest.approx(0.0, abs=1e-8)
    assert D == pytest.approx(0.4, rel=1e-8)  # tau/M = 2/5 at the origin


def test_jacobian_fd_step_second_order(params):
    fp = _interior(params, -7.0)
    x = np.array(fp.rest_state())
    J1 = jacobian_central_fd(lambda y: _field_arr(params, y, fp.F_L_star), x, 1e-4)
    J2 = jacobian_central_fd(lambda y: _field_arr(params, y, fp.F_L_star), x, 5e-5)
    scale = max(1.0, np.max(np.abs(J1)))
    # central differences: halving the step shrinks the O(h^2) truncation
    assert np.max(np.abs(J1 - J2)) <= 10.0 * (1e-4) ** 2 * scale


def test_fd_kernel_bit_equal_to_numpy_oracle():
    for var in ModelVariant:
        params = SystemParams(variant=var)
        for p in np.linspace(0.0, 2.0 * params.R, 23)[:-1]:
            x = SystemState(float(p), 0.0, latch_from_projectile(params, float(p)), 0.0)
            for fl in (-15.0, -3.25, -1e-6, 0.0):
                J = jacobian_central_fd(
                    lambda y: _field_arr(params, y, fl), np.array(x), _FD_BASE
                )
                assert np.array_equal(jacobian_fd_at(params, x, fl), J), (var, p, fl)


def test_fd_kernel_returns_measured_velocity_columns_at_a_moving_state():
    # off rest the velocity differences are kept as measured, not checked
    # or zeroed: the same matrix as the numpy oracle, bit for bit
    for var in ModelVariant:
        params = SystemParams(variant=var)
        l = latch_from_projectile(params, 2.0)
        for x, (i, j) in (
            (SystemState(2.0, 0.5, l, 0.0), (1, 1)),
            (SystemState(2.0, 0.0, l, -0.3), (3, 3)),
        ):
            J = jacobian_fd_at(params, x, -3.0)
            oracle = jacobian_central_fd(lambda y: _field_arr(params, y, -3.0), np.array(x), _FD_BASE)
            assert np.array_equal(J, oracle), (var, x)
            assert J[i, j] != 0.0, (var, x)


def test_extract_at_reference_saddle(params):
    # the invariant h1 = A*Delta - B*Gamma vanishes identically on the
    # equilibrium branch (the position block is singular there), so the
    # point sits on the boundary case of the saddle set with h2 > 0
    J = jacobian_fd(params, _interior(params, REF_SADDLE_FL))
    A, B, G, D = _entries(J)
    assert all(map(math.isfinite, (A, B, G, D)))
    h1, h2 = characteristic_invariants(A, B, G, D)
    assert abs(h1) <= 1e-7 * max(1.0, abs(A * D))
    assert h2 > 0
    assert classify(h1, h2) is Classification.SADDLE


# --- invariants, eigenvalues, classification --------------------------------


def test_characteristic_invariants_examples():
    assert characteristic_invariants(1, 0, 0, 4) == (4, 5)
    assert characteristic_invariants(1, 2, 2, 1) == (-3, 2)
    assert characteristic_invariants(0, 0, 0, 0) == (0, 0)


def _spectrum_set(eigs):
    return sorted((round(e.real, 9), round(e.imag, 9)) for e in eigs)


def test_eigenvalues_factorable_case():
    eigs = eigenvalues_biquadratic(4.0, 5.0)
    assert _spectrum_set(eigs) == _spectrum_set([1, -1, 2, -2])


def test_eigenvalues_mixed_case():
    eigs = eigenvalues_biquadratic(-4.0, 0.0)
    r = math.sqrt(2.0)
    assert _spectrum_set(eigs) == _spectrum_set([r, -r, r * 1j, -r * 1j])


def test_eigenvalues_double_zero_case():
    eigs = eigenvalues_biquadratic(0.0, 1.0)
    assert _spectrum_set(eigs) == _spectrum_set([0.0, 0.0, 1.0, -1.0])


def test_eigenvalues_keep_a_tiny_pair():
    # h1 at round-off, as on the equilibrium branch: the small pair is
    # +/- sqrt(h1/h2), not a cancelled zero
    h1, h2 = 1e-20, 0.4
    small = math.sqrt(h1 / h2)
    eigs = eigenvalues_biquadratic(h1, h2)
    big = sorted((e for e in eigs if abs(e) > 1e-3), key=lambda z: z.real)
    tiny = sorted((e for e in eigs if abs(e) <= 1e-3), key=lambda z: z.real)
    for got, want in zip(tiny, (-small, small)):
        assert abs(got - want) <= 1e-12 * small
    for got, want in zip(big, (-math.sqrt(h2), math.sqrt(h2))):
        assert abs(got - want) <= 1e-15
    assert len(tiny) == len(big) == 2


def test_eigenvalue_negation_symmetry():
    rng = np.random.default_rng(5)
    for _ in range(300):
        h1, h2 = rng.uniform(-10, 10, size=2)
        eigs = eigenvalues_biquadratic(float(h1), float(h2))
        vals = _spectrum_set(eigs)
        negs = _spectrum_set([-e for e in eigs])
        assert vals == negs


def test_classify_examples():
    assert classify(-0.5, 123.0) is Classification.SADDLE
    assert classify(-0.5, -123.0) is Classification.SADDLE
    assert classify(1.0, 1.0) is Classification.SADDLE
    assert classify(1.0, -1.0) is Classification.NON_SADDLE
    assert classify(0.0, 0.0) is Classification.MARGINAL


def test_classify_agrees_with_eigenvalue_test():
    # where the lemma's set is exact (outside h2^2 < 4 h1 with h2 > 0,
    # where two sign changes do not force real roots; see ledger), the
    # (h1, h2) rule must coincide with "a real +/- pair exists"
    rng = np.random.default_rng(99)
    checked = 0
    for _ in range(100_000):
        h1, h2 = (float(v) for v in rng.uniform(-10, 10, size=2))
        if h2 > 0.0 and 4.0 * h1 > h2 * h2:
            continue
        verdict = classify(h1, h2) is Classification.SADDLE
        by_eigs = real_pair_exists(eigenvalues_biquadratic(h1, h2))
        assert verdict == by_eigs, (h1, h2)
        checked += 1
    assert checked > 50_000


def test_default_saddle_band_is_the_max_rule():
    # the verdict must be that of eps = 1e-9 max(1, |h1|, |h2|) for a
    # float pair and, label by label, for whole arrays: at the band's
    # edges and for NaN or infinite invariants too
    edge = 1e-9 * 2.5  # the band at max |h| = 2.5
    specials = [0.0, -0.0, 1e-9, -1e-9, 1.0000000001e-9, 1.0, -1.0, 2.5, -2.5,
                edge, -edge, math.nextafter(edge, 1.0), -math.nextafter(edge, 1.0),
                1e300, -1e300, math.inf, -math.inf, math.nan]
    rng = np.random.default_rng(7)
    randoms = (rng.standard_normal(400) * 10.0 ** rng.integers(-12, 4, 400)).tolist()
    values = specials + randoms
    pairs = [(a, b) for a in specials for b in values] + [(a, b) for a in randoms for b in specials]
    pairs += list(zip(randoms, randoms[1:]))
    want = [band_rule(a, b) for a, b in pairs]
    assert set(want) == set(Classification)
    for (h1, h2), w in zip(pairs, want):
        assert classify(h1, h2) is w, (h1, h2)
        label = _saddle_classes(h1, h2)
        assert str(label) == w.value, (h1, h2)
    h1, h2 = (np.array(v) for v in zip(*pairs))
    assert _saddle_classes(h1, h2).tolist() == [w.value for w in want]


def test_published_saddle_set_overstates_complex_quartets():
    # inside h2 > 0, h2^2 < 4 h1 the characteristic roots form a complex
    # quartet with no real pair, yet the published rule still says saddle;
    # documented here rather than silently patched
    for h1, h2 in ((4.0, 1.0), (9.0, 2.0), (1.0, 0.5)):
        assert h2 * h2 < 4.0 * h1
        assert classify(h1, h2) is Classification.SADDLE
        assert not real_pair_exists(eigenvalues_biquadratic(h1, h2))


def test_no_stable_node_over_sweep(params):
    for fl in -np.logspace(np.log10(15.0), np.log10(0.01), 25):
        rep = stability_report(params, _interior(params, float(fl)))
        assert not all(e.real < 0 for e in rep.eigenvalues)


def test_all_interior_points_are_saddles(params):
    for fl in np.linspace(-15.0, -0.1, 25):
        rep = stability_report(params, _interior(params, float(fl)))
        assert rep.classification is Classification.SADDLE
        assert real_pair_exists(rep.eigenvalues)


# --- closed-form linearization ------------------------------------------------


@pytest.mark.parametrize("var", list(ModelVariant))
def test_closed_form_is_the_symbolic_jacobian(var):
    # differentiate the 4-D latched field symbolically at a rest state
    import sympy as sp

    m, M, R, k, p0 = sp.symbols("m M R k p0", positive=True)
    p, l, v, w, fl = sp.symbols("p l v w F_L", real=True)
    d = m if var is ModelVariant.AS_PRINTED else M
    fs = -k * (p - p0)
    tau = (-(v**2 + w**2) + (R - p) * fs / m - l * fl / d) / ((R - p) ** 2 / m + l**2 / M)
    acc_p = (fs + (p - R) * tau) / m
    acc_l = (fl + l * tau) / M
    rest = {v: 0, w: 0}
    exact = [sp.diff(acc, x).subs(rest) for acc in (acc_p, acc_l) for x in (p, l)]
    # no variant attribute: the closed form reads only the divisor d that SystemParams resolves
    symbolic_params = types.SimpleNamespace(m=m, M=M, R=R, k=k, p0=p0, _d=d)
    closed = _latched_abgd(symbolic_params, p, l, fl)
    for mine, want in zip(closed, exact):
        assert sp.simplify(sp.nsimplify(mine, rational=True) - want) == 0


def _rel_dev(mine, fd):
    return max(abs(a - b) for a, b in zip(mine, fd)) / max(map(abs, fd))


def test_closed_form_agrees_with_fd_on_grid():
    for var in ModelVariant:
        params = SystemParams(variant=var)
        for p in np.linspace(0.0, 2.0 * params.R, 41)[:-1].tolist():
            l = latch_from_projectile(params, p)
            for fl in (-15.0, -3.25, -1e-6, 0.0):
                mine = _latched_abgd(params, p, l, fl)
                assert _rel_dev(mine, _entries(jacobian_fd_at(params, (p, 0.0, l, 0.0), fl))) <= 1e-7, (var, p, fl)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    R=st.floats(1.0, 8.0),
    m=st.floats(0.2, 5.0),
    M=st.floats(0.2, 8.0),
    k=st.floats(0.2, 4.0),
    p0_ratio=st.floats(1.05, 3.95),
    log_fl=st.floats(-12.0, math.log10(20.0)),
    share=st.floats(0.0, 0.999),
    var=st.sampled_from(list(ModelVariant)),
)
def test_closed_form_agrees_with_fd_over_parameter_space(R, m, M, k, p0_ratio, log_fl, share, var):
    params = SystemParams(m=m, M=M, R=R, k=k, p0=p0_ratio * R, variant=var)
    p, fl = share * 2.0 * R, -(10.0**log_fl)
    l = latch_from_projectile(params, p)
    mine = _latched_abgd(params, p, l, fl)
    assert _rel_dev(mine, _entries(jacobian_fd_at(params, (p, 0.0, l, 0.0), fl))) <= 1e-7


def test_stability_report_uses_the_closed_form(cc_params):
    fp = _interior(cc_params, -6.0)
    rep = stability_report(cc_params, fp)
    closed = _latched_abgd(cc_params, fp.p_star, fp.l_star, fp.F_L_star)
    assert (rep.A, rep.B, rep.Gamma, rep.Delta) == closed
    # on the branch h1 vanishes identically; the closed form leaves round-off
    assert abs(rep.h1) <= 1e-14 * max(1.0, abs(rep.A * rep.Delta))


# --- published closed-form entries (comparison only) --------------------------


def test_closed_form_B_vanishes_at_zero_force(params):
    fp = fixed_points(params, 0.0)[0]
    _, B, _, _ = closed_form_ABGD(params, fp, F_L=0.0)
    assert B == 0.0


def test_closed_form_B_vanishes_at_symmetric_point(params):
    # the printed numerator carries the factor (l^2 m - M (p-R)^2)
    p, l = 3.0, math.sqrt(params.M / params.m) * 2.0
    fp = FixedPoint(p_star=p, l_star=l, F_L_star=-2.0, mode=Mode.LATCHED)
    _, B, _, _ = closed_form_ABGD(params, fp)
    assert B == pytest.approx(0.0, abs=1e-12)


def test_closed_form_comparison_report(params, capsys):
    # the printed closed forms are transcribed verbatim and compared, not
    # trusted: deviations from finite differences are reported
    fp = _interior(params, REF_SADDLE_FL)
    printed = closed_form_ABGD(params, fp)
    fd = _entries(jacobian_fd(params, fp))
    assert all(map(math.isfinite, printed))
    for name, a, b in zip("A B Gamma Delta".split(), printed, fd):
        rel = abs(a - b) / max(1.0, abs(b))
        print(f"closed-form {name}: printed={a:.6g} fd={b:.6g} rel-dev={rel:.3g}")
    out = capsys.readouterr().out
    assert "closed-form A" in out


@pytest.mark.parametrize("p0", [8.0, 10.0, 12.0])
def test_stability_report_refuses_the_unlatched_rest_point(p0):
    # the unlatched rest point has no latch position; read as (p0, 0, 0, 0)
    # it has h = -16, 0 and 24, and linearizing there reported Marginal
    params = SystemParams(p0=p0)
    with pytest.raises(ValueError, match="latched fixed point"):
        stability_report(params, unlatched_fixed_point(params))


def test_stability_report_composition(params):
    rep = stability_report(params, _interior(params, -6.0))
    assert rep.h1 == pytest.approx(rep.A * rep.Delta - rep.B * rep.Gamma)
    assert rep.h2 == pytest.approx(rep.A + rep.Delta)
    poly_eigs = sorted(np.roots([1.0, 0.0, -rep.h2, 0.0, rep.h1]).tolist(), key=lambda z: (z.real, z.imag))
    mine = sorted(rep.eigenvalues, key=lambda z: (z.real, z.imag))
    for a, b in zip(mine, poly_eigs):
        assert cmath.isclose(a, b, abs_tol=1e-8)
