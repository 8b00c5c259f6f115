from __future__ import annotations

import math
import pickle
import types
from dataclasses import fields, replace

import numpy as np
import pytest

from lamsa import (
    Mode,
    ModelVariant,
    SystemParams,
    SystemState,
    contact_force,
    fixed_points,
    holonomic_h,
    latch_from_projectile,
    mechanical_energy,
    mode_of,
    simulate,
    spring_force,
)
from lamsa.errors import ContactWindowError, SingularConfigurationError
from lamsa.equilibria import balance_residual, fixed_point_sweep
from lamsa.model import _field_arr
from lamsa.published import _implicit_slope, quartic_coefficients

from conftest import REF_SADDLE_FL, REF_SADDLE_P
from oracles import latched_contact_force, vector_field


def test_params_invariants_enforced():
    with pytest.raises(ValueError):
        SystemParams(m=0.0)
    with pytest.raises(ValueError):
        SystemParams(M=-1.0)
    with pytest.raises(ValueError):
        SystemParams(R=0.0)
    with pytest.raises(ValueError):
        SystemParams(k=-2.0)
    with pytest.raises(ValueError):
        SystemParams(p0=5.0, R=5.0)  # natural length must exceed the radius


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("name", ["m", "M", "R", "k", "p0"])
def test_params_reject_non_finite_values(name, bad):
    # an infinite stiffness used to pass and fail later as a numerical error
    with pytest.raises(ValueError, match=rf"^{name} must be .*finite"):
        SystemParams(**{name: bad})


@pytest.mark.parametrize("bad", ["printed", "bogus", None])
def test_params_reject_a_variant_that_is_not_a_model_variant(bad):
    # SystemParams resolves the variant by identity: its text would run the
    # derived physics without a word
    with pytest.raises(ValueError, match=rf"^variant must be a ModelVariant, got {bad!r}$"):
        SystemParams(variant=bad)


def test_spring_force_examples(params):
    assert spring_force(params, 10.0) == 0.0
    assert spring_force(params, 0.0) == 10.0
    assert spring_force(params, 4.64383) == pytest.approx(5.35617, abs=1e-12)


def test_holonomic_examples(params):
    assert holonomic_h(params, 2.0, 4.0) == 0.0  # 3-4-5 triangle
    assert holonomic_h(params, 5.0, 5.0) == 0.0  # tangency point
    assert holonomic_h(params, 5.0, 0.0) == -25.0


def test_latch_from_projectile_examples(params):
    assert latch_from_projectile(params, 0.0) == 0.0
    assert latch_from_projectile(params, 5.0) == 5.0
    assert latch_from_projectile(params, 4.64383) == pytest.approx(4.98730, abs=1e-5)
    with pytest.raises(ContactWindowError):
        latch_from_projectile(params, -0.01)
    with pytest.raises(ContactWindowError):
        latch_from_projectile(params, 10.01)


def test_latch_from_projectile_rejects_nan(params):
    # nan lies in no window: it raises, and the balance at a nan p with it
    with pytest.raises(ContactWindowError):
        latch_from_projectile(params, math.nan)
    with pytest.raises(ContactWindowError):
        balance_residual(params, math.nan, REF_SADDLE_FL)


@pytest.mark.parametrize("variant", list(ModelVariant))
def test_latch_from_projectile_keeps_its_digits_as_p_goes_to_zero(variant):
    # sqrt(R^2 - (R - p)^2) cancels as p -> 0: it put the derived l at
    # F_L = -1e-6 0.26 % off the equilibrium's own l*, and gave 0 at p = 1e-17
    params = SystemParams(variant=variant)
    fp = fixed_points(params, -1e-6)[1]
    assert latch_from_projectile(params, fp.p_star) == pytest.approx(fp.l_star, rel=1e-15, abs=0.0)
    assert latch_from_projectile(params, 1e-17) == pytest.approx(1e-8, rel=1e-15)


def test_latch_position_satisfies_constraint(params):
    rng = np.random.default_rng(7)
    for p in rng.uniform(0.0, params.R, size=200):
        l = latch_from_projectile(params, float(p))
        assert abs(holonomic_h(params, float(p), l)) <= 1e-12 * params.R**2


def test_contact_force_at_preloaded_origin(params):
    # W = 25, F_s = 10: tau = (1/25) * 5 * 10 = 2, same under both variants
    st = SystemState(0.0, 0.0, 0.0, 0.0)
    assert contact_force(params, st, 0.0) == pytest.approx(2.0, rel=1e-14)
    derived = replace(params, variant=ModelVariant.CONSTRAINT_CONSISTENT)
    assert contact_force(derived, st, 0.0) == pytest.approx(2.0, rel=1e-14)


def test_contact_force_balances_spring_at_saddle(params):
    # at the equilibrium the contact force must cancel the spring term
    st = SystemState(REF_SADDLE_P, 0.0, 4.98730, 0.0)
    tau = contact_force(params, st, REF_SADDLE_FL)
    assert tau == pytest.approx(15.0382, abs=1e-3)
    assert tau == pytest.approx(-spring_force(params, st.p) / (st.p - params.R), rel=1e-4)

    # with the exact root the two expressions agree to round-off
    from lamsa import fixed_points

    fp = [f for f in fixed_points(params, REF_SADDLE_FL) if not f.origin_flag][0]
    st = SystemState(fp.p_star, 0.0, fp.l_star, 0.0)
    tau = contact_force(params, st, REF_SADDLE_FL)
    assert tau == pytest.approx(-spring_force(params, fp.p_star) / (fp.p_star - params.R), rel=1e-9)


def test_contact_force_ignores_latch_force_when_latch_at_zero(params):
    for fl in (-20.0, -1.0, 0.0, 3.0, 17.0):
        st = SystemState(0.0, 0.0, 0.0, 0.0)
        assert contact_force(params, st, fl) == pytest.approx(2.0, rel=1e-14)


def test_contact_force_variant_agreement_needs_zero_latch(params):
    st = SystemState(2.0, 0.0, 4.0, 0.0)
    printed = contact_force(replace(params, variant=ModelVariant.AS_PRINTED), st, -3.0)
    derived = contact_force(replace(params, variant=ModelVariant.CONSTRAINT_CONSISTENT), st, -3.0)
    assert printed != pytest.approx(derived, rel=1e-6)


def test_contact_force_even_in_velocities(params):
    rng = np.random.default_rng(3)
    for _ in range(50):
        p = float(rng.uniform(0.1, 4.9))
        l = latch_from_projectile(params, p)
        pd, ld = rng.uniform(-3, 3, size=2)
        a = contact_force(params, SystemState(p, pd, l, ld), -2.0)
        b = contact_force(params, SystemState(p, -pd, l, -ld), -2.0)
        assert a == b  # velocities enter only quadratically


def test_contact_force_singular_configuration_guard():
    params = SystemParams()
    state = SystemState(5.0, 0.0, 0.0, 0.0)
    # W = l^2/M at p=R; force l=0 to hit the defensive branch
    with pytest.raises(SingularConfigurationError):
        contact_force(params, state, 0.0)


@pytest.mark.parametrize("variant", list(ModelVariant))
def test_latched_field_and_tau_match_the_written_out_oracle(variant):
    # _field_arr holds the package's only tau formula: all five entries
    # against the model's formulas written out independently, on the
    # circle and off it, and contact_force is exactly its last entry
    params = SystemParams(variant=variant)
    rng = np.random.default_rng(19)
    R = params.R
    states = []
    for _ in range(50):
        p = float(rng.uniform(0.05, 2.0 * R - 0.05))
        l = latch_from_projectile(params, p) * float(rng.choice([-1.0, 1.0]))
        pd, ld = (float(v) for v in rng.uniform(-3.0, 3.0, size=2))
        states.append(SystemState(p, pd, l, ld))
        states.append(SystemState(*(float(v) for v in rng.uniform([-2, -3, -6, -3], [12, 3, 6, 3]))))
    assert any(abs(holonomic_h(params, s.p, s.l)) > 1.0 for s in states)
    for st in states:
        F_L = float(rng.uniform(-20.0, 5.0))
        got = _field_arr(params, st, F_L)
        want = (*vector_field(params, st, F_L, Mode.LATCHED), latched_contact_force(params, st, F_L))
        assert len(got) == 5
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)
        assert contact_force(params, st, F_L) == got[4]


def test_mode_of_examples(params):
    assert mode_of(params, SystemState(0, 0, 0, 0), 0.0) is Mode.LATCHED
    # p=10, l=0 sits on h=0 but tau = 0 there (F_s = 0): not latched
    assert mode_of(params, SystemState(10, 0, 0, 0), 0.0) is Mode.UNLATCHED
    # off the constraint circle
    assert mode_of(params, SystemState(2, 0, 1, 0), 0.0) is Mode.UNLATCHED


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("slot", [*SystemState._fields, "F_L"])
def test_mode_of_rejects_non_finite_input(params, slot, bad):
    # a nan coordinate fails every comparison, so without the check it would
    # read as unlatched; the latched origin under F_L = -5 is the base case
    values = {**dict.fromkeys(SystemState._fields, 0.0), "F_L": -5.0, slot: bad}
    F_L = values.pop("F_L")
    with pytest.raises(ValueError, match="must be finite"):
        mode_of(params, SystemState(**values), F_L)


def test_unlatched_projectile_ignores_latch(params):
    # the free projectile's (p, p_dot) do not depend on the latch's state
    # or radius
    def projectile(prm, x0):
        traj = simulate(prm, x0, 0.0, 2.0)
        assert set(traj.mode) == {Mode.UNLATCHED}
        return traj.t, [x[:2] for x in traj.x]

    ref = projectile(params, SystemState(7, 2, 1, 5))
    assert projectile(params, SystemState(7, 2, 4, -1)) == ref
    assert projectile(SystemParams(R=2.0), SystemState(7, 2, 1, 5)) == ref


def test_vector_field_origin_is_stationary_at_zero_force(params):
    f = vector_field(params, SystemState(0, 0, 0, 0), 0.0, Mode.LATCHED)
    assert np.max(np.abs(f)) <= 1e-14


def test_vector_field_at_published_saddle_leaves_latch_row(params):
    # The published interior equilibrium zeroes the projectile dynamics of
    # the AS_PRINTED field, but its latch acceleration is F_L (m - M)/(m M)
    # = 12, not zero; only the constraint-consistent variant gives a true
    # rest point of the full 4-state field (see the decisions ledger).
    st = SystemState(4.64383, 0.0, 4.98730, 0.0)
    f = vector_field(params, st, REF_SADDLE_FL, Mode.LATCHED)
    assert np.max(np.abs(f[:3])) <= 1e-3
    expected_latch_row = REF_SADDLE_FL * (params.m - params.M) / (params.m * params.M)
    assert f[3] == pytest.approx(expected_latch_row, abs=1e-3)

    from lamsa import fixed_points

    cc = SystemParams(variant=ModelVariant.CONSTRAINT_CONSISTENT)
    fp = [f_ for f_ in fixed_points(cc, REF_SADDLE_FL) if not f_.origin_flag][0]
    f = vector_field(cc, SystemState(fp.p_star, 0, fp.l_star, 0), REF_SADDLE_FL, Mode.LATCHED)
    assert np.max(np.abs(f)) <= 1e-9


def test_constraint_consistent_field_preserves_constraint(cc_params):
    # second time-derivative of h along the flow vanishes identically for
    # the constraint-derived force; this is its defining property
    rng = np.random.default_rng(11)
    R = cc_params.R
    for _ in range(100):
        p = float(rng.uniform(0.05, R - 0.05))
        l = latch_from_projectile(cc_params, p)
        pd = float(rng.uniform(-2, 2))
        ld = (R - p) * pd / l
        st = SystemState(p, pd, l, ld)
        f = vector_field(cc_params, st, -4.0, Mode.LATCHED)
        hddot = 2.0 * (pd * pd + ld * ld) + 2.0 * l * f[3] - 2.0 * (R - p) * f[1]
        scale = max(1.0, abs(f[1]), abs(f[3]))
        assert abs(hddot) <= 1e-10 * scale


def test_mechanical_energy_examples(params):
    assert mechanical_energy(params, SystemState(10, 0, 0, 0), 0.0) == 0.0
    assert mechanical_energy(params, SystemState(0, 0, 0, 0), 0.0) == 50.0
    assert mechanical_energy(params, SystemState(0, 0, 0, 0), -15.0) == 50.0


def test_no_routine_takes_a_variant_argument():
    # the variant is chosen once, on SystemParams; a routine that took its
    # own override would let one call disagree with the params it is given
    import importlib
    import inspect

    import lamsa

    names = "model simulate equilibria stability bifurcation config io cli errors".split()
    modules = [importlib.import_module(f"lamsa.{name}") for name in names]
    exported = [getattr(lamsa, name) for name in dir(lamsa) if not name.startswith("__")]
    exported += [getattr(mod, name) for mod in modules for name in getattr(mod, "__all__", ())]
    defined = [fn for mod in modules for _, fn in inspect.getmembers(mod, inspect.isfunction)
               if fn.__module__ == mod.__name__]
    checked = 0
    for obj in exported + defined:
        if obj is SystemParams or not callable(obj):
            continue
        try:
            parameters = inspect.signature(obj).parameters
        except (TypeError, ValueError):
            continue
        checked += 1
        assert "variant" not in parameters, obj
    assert checked > 80
    assert "variant" in inspect.signature(SystemParams).parameters


def test_formulas_read_the_resolved_divisor_not_the_variant():
    # SystemParams resolves the variant into _d, the mass dividing the latch
    # force (m printed, M derived), and every formula reads _d: a params
    # record without a variant attribute gives the same numbers
    p_grid, fl = np.linspace(0.5, 4.5, 5), np.linspace(-15.0, -0.5, 4)
    for variant in ModelVariant:
        params = SystemParams(m=2.0, variant=variant)
        bare = types.SimpleNamespace(**{f.name: getattr(params, f.name) for f in fields(params) if f.name != "variant"})
        st = SystemState(1.0, 0.3, latch_from_projectile(params, 1.0), -0.2)
        assert _field_arr(bare, st, -5.0) == _field_arr(params, st, -5.0)
        assert balance_residual(bare, 1.0, -5.0) == balance_residual(params, 1.0, -5.0)
        np.testing.assert_array_equal(fixed_point_sweep(bare, fl), fixed_point_sweep(params, fl))
        assert quartic_coefficients(bare, -5.0) == quartic_coefficients(params, -5.0)
        for got, want in zip(_implicit_slope(bare, p_grid[:, None], fl), _implicit_slope(params, p_grid[:, None], fl)):
            np.testing.assert_array_equal(got, want)


def test_divisor_is_derived_and_invisible():
    printed = SystemParams(m=2.0)
    derived = replace(printed, variant=ModelVariant.CONSTRAINT_CONSISTENT)
    assert (printed._d, derived._d) == (2.0, 5.0)
    back = replace(derived, variant=ModelVariant.AS_PRINTED)
    assert back._d == 2.0 and back == printed and hash(back) == hash(printed) and printed != derived
    assert repr(printed) == "SystemParams(m=2.0, M=5.0, R=5.0, k=1.0, p0=10.0, variant=<ModelVariant.AS_PRINTED: 'printed'>)"
    assert [f.name for f in fields(SystemParams) if f.init or f.compare or f.repr] == ["m", "M", "R", "k", "p0", "variant"]
    restored = pickle.loads(pickle.dumps(derived))
    assert restored == derived and restored._d == 5.0
    assert (hash(restored), repr(restored)) == (hash(derived), repr(derived))
    with pytest.raises(TypeError):
        SystemParams(_d=1.0)
    with pytest.raises(ValueError, match="init=False"):
        replace(printed, _d=1.0)
