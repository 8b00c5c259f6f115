"""Acceptance suite: one test per exit criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -s`` to see every line.  All
criteria pass except the finite-difference sub-check of criterion 10,
which is genuinely unattainable: the invariant h1 = A*Delta - B*Gamma is
identically zero at the origin rest state (A = B = 0 there for every
latch force and either variant), so no Jacobian-based value can match the
published closed form -0.50876.  The failure is deliberate and analysed
in the decisions ledger; the criterion is asserted as stated rather than
weakened.
"""

from __future__ import annotations

import numpy as np
import pytest

from lamsa import (
    Classification,
    FLRange,
    ModelVariant,
    PathTerminal,
    SystemParams,
    SystemState,
    balance_residual,
    design_feasibility,
    fixed_points,
    holonomic_h,
    mechanical_energy,
    simulate,
    stability_report,
    trace_path,
)
from lamsa.cli import cmd_equilibria
from lamsa.config import apply_overrides, build_config
from lamsa.published import quartic_coefficients, roots_in_interval

from oracles import fine_grid_roots, harmonic_position, jacobian_fd, real_pair_exists

REF = SystemParams()  # reference set m=1, M=5, R=5, k=1, p0=10, printed contact force
CC = SystemParams(variant=ModelVariant.CONSTRAINT_CONSISTENT)

SWEEP_FL = [float(f) for f in -np.logspace(np.log10(15.0), np.log10(1e-3), 100)]


def _line(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" -- {detail}" if detail else ""
    print(f"criterion {num:02d} {name}: {status}{suffix}")


def _interior(params: SystemParams, fl: float):
    pts = [p for p in fixed_points(params, fl) if not p.origin_flag]
    assert len(pts) == 1
    return pts[0]


@pytest.fixture(scope="module")
def sweep_reports():
    """Stability reports at the interior fixed point for the 100-value sweep."""
    out = []
    for fl in SWEEP_FL:
        fp = _interior(REF, fl)
        out.append((fl, fp, stability_report(REF, fp)))
    return out


def test_criterion_01_fixed_point_reproduction():
    fp = _interior(REF, -15.0)
    ok = abs(fp.p_star - 4.64383) <= 1e-3
    _line(1, "saddle position at F_L=-15", ok, f"p*={fp.p_star:.6f}")
    assert ok


def test_criterion_02_origin_only_at_zero_force():
    pts = fixed_points(REF, 0.0)
    ok = len(pts) == 1 and abs(pts[0].p_star) < 1e-12
    _line(2, "only the origin survives at F_L=0", ok, f"|p*|={abs(pts[0].p_star):.2e}")
    assert ok


def test_criterion_03_quartic_root_structure():
    for fl in SWEEP_FL:
        q = quartic_coefficients(REF, fl)
        inner = roots_in_interval(q, 0.0, REF.R, tol=1e-12)
        outer = roots_in_interval(q, REF.R, 2 * REF.R, tol=1e-12)
        if not (len(inner) == 1 and len(outer) == 1):
            _line(3, "one root per interval", False, f"F_L={fl}")
            pytest.fail(f"root counts {len(inner)}/{len(outer)} at F_L={fl}")
        # the outer root never satisfies the signed balance
        if abs(balance_residual(REF, outer[0], fl)) <= 1e-6:
            _line(3, "one root per interval", False, f"outer root accepted at F_L={fl}")
            pytest.fail(f"sign check failed to reject outer root at F_L={fl}")
        interior = [p for p in fixed_points(REF, fl) if not p.origin_flag]
        if len(interior) != 1:
            _line(3, "one root per interval", False, f"{len(interior)} interior at F_L={fl}")
            pytest.fail(f"expected one interior point at F_L={fl}")
    _line(3, "one root per interval, spurious branch rejected", True, "100 forces")


def test_criterion_04_saddles_with_eigenvalue_agreement(sweep_reports):
    for fl, fp, rep in sweep_reports:
        is_saddle = rep.classification is Classification.SADDLE
        by_eigs = real_pair_exists(rep.eigenvalues)
        if not (is_saddle and by_eigs):
            _line(4, "every interior point is a saddle", False,
                  f"F_L={fl}: class={rep.classification}, real pair={by_eigs}")
            pytest.fail(f"classification mismatch at F_L={fl}")
    _line(4, "every interior point is a saddle (h1,h2 and eigenvalue tests agree)", True,
          "100 points")


def test_criterion_05_no_stable_node(sweep_reports):
    for fl, fp, rep in sweep_reports:
        if all(e.real < 0 for e in rep.eigenvalues):
            _line(5, "no stable node", False, f"F_L={fl}")
            pytest.fail(f"four stable eigenvalues at F_L={fl}")
    _line(5, "no spectrum has four eigenvalues in the left half-plane", True, "100 points")


def test_criterion_06_bifurcation_terminates_branch():
    start = _interior(REF, -15.0)
    path = trace_path(REF, (start.p_star, -15.0), F_L_end=0.0)
    ok = (
        path.terminal is PathTerminal.REACHED_ZERO_FORCE
        and path.final.F_L == 0.0
        and abs(path.final.p_star) < 1e-3
    )
    _line(6, "continuation ends at (0,0); no equilibria past it", ok,
          f"terminal={path.terminal.value}, final p*={path.final.p_star:.2e}")
    assert ok
    for fl in np.linspace(1.5, 15.0, 10):
        assert fixed_points(REF, float(fl)) == []


def test_criterion_07_jacobian_structure():
    fls = np.linspace(-15.0, -0.5, 20)
    for fl in fls:
        fp = _interior(REF, float(fl))
        J = jacobian_fd(REF, fp)
        if not (np.array_equal(J[0], [0, 1, 0, 0]) and np.array_equal(J[2], [0, 0, 0, 1])):
            _line(7, "Jacobian sparsity", False, f"rows 1/3 wrong at F_L={fl}")
            pytest.fail("template rows broken")
        scale = max(1.0, float(np.max(np.abs(J))))
        vel = max(abs(J[1, 1]), abs(J[1, 3]), abs(J[3, 1]), abs(J[3, 3]))
        if vel > 1e-6 * scale:
            _line(7, "Jacobian sparsity", False, f"velocity column {vel:.2e} at F_L={fl}")
            pytest.fail("velocity columns do not vanish")
        coeffs = np.poly(J)  # [1, c3, c2, c1, c0]
        cscale = max(1.0, abs(coeffs[2]), abs(coeffs[4]))
        if abs(coeffs[1]) > 1e-6 * cscale or abs(coeffs[3]) > 1e-6 * cscale:
            _line(7, "Jacobian sparsity", False, f"odd char coefficients at F_L={fl}")
            pytest.fail("characteristic polynomial is not biquadratic")
    _line(7, "biquadratic Jacobian structure at 20 fixed points", True)


def test_criterion_08_latched_conservation():
    traj = simulate(CC, SystemState(1.0, 0.0, 3.0, 0.0), -5.0, 10.0)
    e0 = mechanical_energy(CC, traj.samples[0].state, -5.0)
    drift = max(abs(mechanical_energy(CC, s.state, -5.0) - e0) for s in traj.samples)
    h_max = max(
        (abs(holonomic_h(CC, s.state.p, s.state.l)) for s in traj.samples if s.mode.value == "L"),
        default=0.0,
    )
    ok = drift <= 1e-6 * abs(e0) and h_max <= 1e-8 * CC.R**2
    _line(8, "constraint-consistent conservation", ok,
          f"energy drift {drift / abs(e0):.2e} rel, max |h| {h_max:.2e}")
    assert ok


def test_criterion_09_unlatched_decoupling():
    x0 = SystemState(9.0, 0.5, 2.0, 0.3)
    fl = -2.0
    traj = simulate(REF, x0, fl, 5.0)
    ep0 = 0.5 * REF.m * x0.p_dot**2 + 0.5 * REF.k * (x0.p - REF.p0) ** 2
    el0 = 0.5 * REF.M * x0.l_dot**2 - fl * x0.l
    omega = np.sqrt(REF.k / REF.m)
    worst_e = worst_match = 0.0
    for s in traj.samples:
        ep = 0.5 * REF.m * s.state.p_dot**2 + 0.5 * REF.k * (s.state.p - REF.p0) ** 2
        el = 0.5 * REF.M * s.state.l_dot**2 - fl * s.state.l
        worst_e = max(worst_e, abs(ep - ep0) / ep0, abs(el - el0) / el0)
        ref = harmonic_position(REF.p0, x0.p, x0.p_dot, omega, s.t)
        worst_match = max(worst_match, abs(s.state.p - ref))
    ok = worst_e <= 1e-6 and worst_match <= 1e-6
    _line(9, "unlatched energies decouple; harmonic solution reproduced", ok,
          f"energy {worst_e:.2e} rel, |p-analytic| {worst_match:.2e}")
    assert ok


def test_criterion_10_design_condition():
    rep = design_feasibility(REF)
    bound_ok = abs(rep.p0_bound - 0.72177) <= 1e-5
    h1_ok = abs(rep.h1_at_origin - (-0.50876)) <= 1e-4
    fd_match = abs(rep.h1_fd_origin - (-0.50876)) <= 1e-4
    ok = bound_ok and h1_ok and fd_match and rep.feasible
    _line(
        10,
        "design condition",
        ok,
        f"bound={rep.p0_bound:.5f} ({'ok' if bound_ok else 'BAD'}), "
        f"closed-form h1={rep.h1_at_origin:.5f} ({'ok' if h1_ok else 'BAD'}), "
        f"feasible={rep.feasible}, "
        f"fd h1={rep.h1_fd_origin:.2e} vs -0.50876 ({'ok' if fd_match else 'UNATTAINABLE'}: "
        "h1 is identically zero at the origin; see decisions ledger)",
    )
    assert bound_ok and h1_ok and rep.feasible
    assert fd_match, (
        "finite-difference h1 at the origin is identically zero and cannot "
        "match the published closed form -0.50876 (criterion asserted as "
        "stated; see the decisions ledger for the analysis)"
    )


def test_criterion_11_root_oracle_equivalence():
    rng = np.random.default_rng(2024)
    worst = 0.0
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
        ref = fine_grid_roots(q.as_tuple(), 0.0, 2 * R, n=1_000_000)
        if len(mine) != len(ref):
            _line(11, "root oracle equivalence", False, f"count mismatch for {params}")
            pytest.fail(f"{len(mine)} vs {len(ref)} roots")
        for a, b in zip(mine, ref):
            worst = max(worst, abs(a - b))
    ok = worst <= 1e-7
    _line(11, "bracketing roots match the 1e6-point scan oracle", ok, f"worst |diff|={worst:.2e}")
    assert ok


def test_criterion_12_deterministic_output(tmp_path):
    cfg_a = apply_overrides(build_config({}), out_dir=tmp_path / "a",
                            fl_range=FLRange(-15.0, 0.0, 1.0))
    cfg_b = apply_overrides(build_config({}), out_dir=tmp_path / "b",
                            fl_range=FLRange(-15.0, 0.0, 1.0))
    cmd_equilibria(cfg_a)
    cmd_equilibria(cfg_b)
    body_a = (tmp_path / "a" / "fixedpoints.csv").read_bytes()
    body_b = (tmp_path / "b" / "fixedpoints.csv").read_bytes()
    ok = body_a == body_b
    _line(12, "repeated sweep is byte-identical", ok, f"{len(body_a)} bytes")
    assert ok
