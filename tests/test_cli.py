from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import re
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lamsa import (
    FLRange,
    IntegratorConfig,
    Mode,
    ModelVariant,
    SystemParams,
    SystemState,
    fixed_points,
    parse_config,
    simulate,
    stability_report,
    sweep_values,
)
from lamsa import cli
from lamsa.cli import (
    cmd_classify,
    cmd_design_check,
    cmd_equilibria,
    cmd_quiver,
    cmd_region_map,
    cmd_simulate,
    cmd_trace,
    build_parser,
    main,
    phase_portrait,
)
from lamsa.config import _KEYS, _MAX_ITEMS, RunConfig, apply_overrides, build_config
from lamsa.errors import ConfigError, SingularDenominatorError
from lamsa.io import fmt, trajectory_rows, write_trajectory
from lamsa.published import nominal_rhs

from conftest import REF_SADDLE_P


def _cfg(tmp_path: Path, **overrides) -> RunConfig:
    cfg = build_config({})
    return apply_overrides(cfg, out_dir=tmp_path, **overrides)


def _read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


# --- config parsing -----------------------------------------------------------


def test_empty_document_gives_reference_defaults():
    cfg = parse_config("")
    assert cfg == build_config({}) == RunConfig()
    assert (cfg.params.m, cfg.params.M, cfg.params.R) == (1.0, 5.0, 5.0)
    assert (cfg.params.k, cfg.params.p0) == (1.0, 10.0)
    assert cfg.params.variant is ModelVariant.AS_PRINTED
    assert cfg.integrator.rel_tol == 1e-8


def test_config_rejects_natural_length_inside_radius():
    with pytest.raises(ConfigError, match="p0"):
        parse_config("p0 = 3\n")


def test_config_line_diagnostics(tmp_path, capsys):
    with pytest.raises(ConfigError, match="line 2"):
        parse_config("m = 1\nbogus_key = 3\n")
    # projection is no longer optional: a file that still switches it is rejected
    old = "m = 1\nconstraint_projection = on\n"
    with pytest.raises(ConfigError, match=r"^line 2: unknown key 'constraint_projection'$"):
        parse_config(old)
    (tmp_path / "old.cfg").write_text(old)
    out = tmp_path / "sim"
    assert main(["simulate", "--config", str(tmp_path / "old.cfg"), "--out", str(out)]) == 1
    assert "line 2: unknown key 'constraint_projection'" in capsys.readouterr().err
    assert not out.exists()
    with pytest.raises(ConfigError, match="line 1"):
        parse_config("m = abc\n")
    with pytest.raises(ConfigError, match="line 3"):
        parse_config("m = 1\n# fine\nm = 2\n")
    with pytest.raises(ConfigError, match=r"^line 2: fl_range expects 'start:stop:step', got '1:2'$"):
        parse_config("m = 1\nfl_range = 1:2\n")
    with pytest.raises(ConfigError, match=r"^line 1: grid has a non-integer part: '1x'$"):
        parse_config("grid = 1x\n")


@pytest.mark.parametrize(
    "line",
    ["variant = sideways", "seed = 1.5", "x0 = 1, 2", "x0 = 1, 0, l, 0", "jitter = maybe",
     "rel_tol = tight", "fl_range = a:0:1", "grid = 3", "t_end = soon"],
)
def test_every_unreadable_value_names_its_line(line):
    with pytest.raises(ConfigError, match=r"^line 3: "):
        parse_config(f"# header\nm = 1\n{line}\n")


def test_every_config_key_round_trips_through_the_manifest_echo():
    off = RunConfig(
        params=SystemParams(m=2.0, M=3.0, R=4.0, k=0.5, p0=9.0, variant=ModelVariant.CONSTRAINT_CONSISTENT),
        integrator=IntegratorConfig(rel_tol=1e-7, abs_tol=1e-9, max_step=0.02, event_time_tol=1e-11),
        F_L=-7.5,
        F_L_range=FLRange(-10.0, -1.0, 0.5),
        grid=(8, 4),
        output_dir=Path("elsewhere"),
        seed=3,
        t_end=2.5,
        x0=SystemState(1.5, 0.25, 3.0, -0.5),
        v_max=4.0,
        jitter=True,
    )
    echo = off.echo()
    assert list(echo) == list(_KEYS) and len(echo) == 19
    assert all(echo[key] != value for key, value in RunConfig().echo().items())
    text = "".join(f"{key} = {','.join(map(str, v)) if key == 'x0' else v}\n" for key, v in echo.items())
    assert parse_config(text) == off


def test_readme_lists_the_config_keys_in_order():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    listed = readme.split("Keys:", 1)[1].split("`")[1].split()
    assert listed == list(_KEYS)


def test_build_config_stores_numbers_as_floats():
    m = build_config({"m": 2}).params.m
    assert m == 2.0 and type(m) is float


def test_config_full_document(tmp_path):
    text = """
    # reference setup, derived contact force
    m = 1
    M = 5
    R = 5
    k = 1
    p0 = 10
    variant = derived
    rel_tol = 1e-9
    fl = -7.5
    fl_range = -10:0:2
    grid = 8x4
    seed = 3
    t_end = 2.5
    x0 = 1, 0, 3, 0
    v_max = 4
    jitter = on
    """
    cfg = parse_config(text)
    assert cfg.params.variant is ModelVariant.CONSTRAINT_CONSISTENT
    assert cfg.integrator.rel_tol == 1e-9
    assert cfg.F_L == -7.5
    assert cfg.F_L_range == FLRange(-10.0, 0.0, 2.0)
    assert cfg.grid == (8, 4)
    assert cfg.seed == 3
    assert cfg.t_end == 2.5
    assert (cfg.x0.p, cfg.x0.l) == (1.0, 3.0)
    assert cfg.jitter


def test_sweep_value_count():
    assert len(sweep_values(FLRange(-15.0, 0.0, 0.5))) == 31
    vals = sweep_values(FLRange(-15.0, 0.0, 1.0))
    assert len(vals) == 16
    assert vals[0] == -15.0 and vals[-1] == 0.0


def test_bad_range_and_grid_rejected():
    with pytest.raises(ConfigError):
        parse_config("fl_range = -15:0:0\n")
    with pytest.raises(ConfigError):
        parse_config("fl_range = 0:-15:1\n")
    with pytest.raises(ConfigError):
        parse_config("grid = 1x9\n")


def test_run_size_bound_admits_a_million_items():
    assert _MAX_ITEMS == 10**6
    assert len(sweep_values(FLRange(0.0, 999_999.0, 1.0))) == _MAX_ITEMS
    RunConfig(grid=(1000, 1000))
    RunConfig(t_end=9999.99)  # t_end / max_step = 999,999: a million samples


_FLOAT_KEYS = ("m", "M", "R", "k", "p0", "rel_tol", "abs_tol", "max_step", "event_time_tol", "fl", "t_end", "v_max")


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_non_finite_values_rejected(bad):
    # every float a config file can set; the overrides share RunConfig's
    # check.  A parameter's own check may fire first: it names the key too
    for key in _FLOAT_KEYS:
        with pytest.raises(ConfigError, match=rf"\b{key}\b"):
            parse_config(f"{key} = {bad}\n")
    with pytest.raises(ConfigError, match="x0 l must be finite"):
        parse_config(f"x0 = 1, 0, {bad}, 0\n")
    for text in (f"{bad}:0:1", f"-3:{bad}:1", f"-3:0:{bad}"):
        with pytest.raises(ConfigError, match="fl_range .* must be finite"):
            parse_config(f"fl_range = {text}\n")
    cfg = build_config({})
    for name in ("fl", "t_end"):
        with pytest.raises(ConfigError, match="must be finite"):
            apply_overrides(cfg, **{name: float(bad)})


# words a value is made of: edge numbers, each key's well-formed shapes and near misses
_WORDS = ["nan", "inf", "-inf", "1e400", "-1e308", "1e308", "1e-320", "0x5", "0", "-1", "2", "0.5", "-15",
          "printed", "derived", "true", "maybe", "3x4", "1x9", "-1e308:1e308:1", "-15:0:1", "1,0,3,0"]
_VALUES = st.one_of(
    st.sampled_from(_WORDS),
    st.builds(str.join, st.sampled_from([":", ",", "x", " "]), st.lists(st.sampled_from(_WORDS), min_size=1, max_size=5)),
    st.text(max_size=12),
)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(lines=st.lists(st.tuples(st.sampled_from(list(_KEYS)), _VALUES), max_size=4))
def test_parse_config_raises_only_config_error(lines):
    try:
        cfg = parse_config("\n".join(f"{key} = {value}" for key, value in lines))
    except ConfigError:
        return
    json.dumps(cfg.echo())


# --- subcommands ---------------------------------------------------------------


def test_cmd_equilibria_row_layout(tmp_path, params):
    cfg = _cfg(tmp_path, fl_range=FLRange(-15.0, 0.0, 1.0))
    assert cmd_equilibria(cfg) == 0
    header, rows = _read_csv(tmp_path / "fixedpoints.csv")
    assert header == ["F_L", "p_star", "l_star", "origin_flag", "valid"]
    assert len(rows) == 16  # 15 interior points plus the origin row at F_L = 0
    interior = [r for r in rows if r[3] == "0"]
    assert len(interior) == 15
    last = rows[-1]
    assert float(last[0]) == 0.0 and float(last[1]) == 0.0 and last[3] == "1"
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["outputs"]["fixedpoints.csv"] == 16
    assert manifest["tool"] == "lamsa"


def test_cmd_equilibria_keeps_the_saddle_near_zero_force(tmp_path):
    out = tmp_path / "eq"
    rc = main(["equilibria", "--variant", "derived", "--out", str(out), "--fl-range=-0.005:0:0.001"])
    assert rc == 0
    _, rows = _read_csv(out / "fixedpoints.csv")
    assert [float(r[0]) for r in rows] == pytest.approx([-0.005, -0.004, -0.003, -0.002, -0.001, 0.0])
    for fl, p, l, origin, valid in rows[:-1]:
        assert origin == "0" and valid == "1", fl
        assert 0.0 < float(p) < float(l) < 1e-2
    assert rows[-1][3] == "1"


def test_cmd_equilibria_deterministic(tmp_path):
    cfg_a = _cfg(tmp_path / "a")
    cfg_b = _cfg(tmp_path / "b")
    cmd_equilibria(cfg_a)
    cmd_equilibria(cfg_b)
    assert (tmp_path / "a/fixedpoints.csv").read_bytes() == (
        tmp_path / "b/fixedpoints.csv"
    ).read_bytes()


def test_cmd_trace_final_row(tmp_path):
    cfg = _cfg(tmp_path, fl=-15.0)
    assert cmd_trace(cfg) == 0
    header, rows = _read_csv(tmp_path / "path.csv")
    assert header == ["F_L", "p_star", "in_S"]
    assert abs(float(rows[-1][1])) < 1e-3
    assert float(rows[-1][0]) == 0.0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["results"]["terminal"] == "ReachedZeroForce"


@pytest.mark.parametrize("variant", ["printed", "derived"])
def test_cmd_trace_reports_terminal_lambda(tmp_path, variant):
    # as F_L -> 0- the saddle's real pair tends to +/- sqrt(k p0/(M R)) in
    # both variants: the (0, 0) event is not an eigenvalue passing zero
    assert main(["trace", "--variant", variant, "--fl", "-15", "--out", str(tmp_path)]) == 0
    results = json.loads((tmp_path / "manifest.json").read_text())["results"]
    p = SystemParams()
    assert abs(results["terminal_lambda"] - math.sqrt(p.k * p.p0 / (p.M * p.R))) <= 1e-9


def test_cmd_design_check_manifest(tmp_path):
    cfg = _cfg(tmp_path)
    assert cmd_design_check(cfg) == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["results"]["feasible"] is True
    design = json.loads((tmp_path / "design.json").read_text())
    assert design["p0_bound"] == pytest.approx(0.72177, abs=1e-5)


def test_cmd_simulate_outputs(tmp_path):
    cfg = _cfg(tmp_path, fl=-5.0)
    cfg = apply_overrides(cfg, variant=ModelVariant.CONSTRAINT_CONSISTENT)
    assert cmd_simulate(cfg) == 0
    header, rows = _read_csv(tmp_path / "trajectory.csv")
    assert header == ["t", "p", "p_dot", "l", "l_dot", "mode", "tau"]
    assert rows[0][5] == "L"
    assert rows[-1][5] == "U"
    events = json.loads((tmp_path / "events.json").read_text())
    assert len(events) == 1
    assert events[0]["kind"] == "UnlatchTauZero"
    assert events[0]["t"] == pytest.approx(2.934182, abs=1e-4)
    assert set(events[0]["state"]) == {"p", "p_dot", "l", "l_dot"}


def test_write_trajectory_rows_are_fmt_of_samples(tmp_path):
    params = SystemParams(variant=ModelVariant.CONSTRAINT_CONSISTENT)
    traj = simulate(params, SystemState(1, 0, 3, 0), -5.0, 4.0)
    n = write_trajectory(tmp_path / "t.csv", traj)
    expected = ["t,p,p_dot,l,l_dot,mode,tau"] + [
        ",".join([fmt(t), *map(fmt, x), mode.value, fmt(tau)])
        for t, x, mode, tau in zip(traj.t, traj.x, traj.mode, traj.tau)
    ]
    assert n == len(traj)
    assert (tmp_path / "t.csv").read_bytes() == ("\n".join(expected) + "\n").encode()


def test_write_trajectory_numpy_scalar_inputs(tmp_path):
    # numpy scalars for F_L and t_end must not leak into the samples: their
    # repr is not a plain number under numpy >= 2
    params = SystemParams(variant=ModelVariant.CONSTRAINT_CONSISTENT)
    x0 = SystemState(1, 0, 3, 0)
    traj = simulate(params, x0, np.float64(-5.0), np.float64(4.0))
    plain = simulate(params, x0, -5.0, 4.0)
    assert (traj.t, traj.x, traj.mode, traj.tau) == (plain.t, plain.x, plain.mode, plain.tau)
    assert all(type(v) is float for v in traj.t + traj.tau)
    assert all(type(c) is float for x in traj.x for c in x)
    write_trajectory(tmp_path / "t.csv", traj)
    header, rows = _read_csv(tmp_path / "t.csv")
    assert len(rows) == len(traj)
    for r in rows:
        for cell in (*r[:5], r[6]):
            float(cell)


def test_trajectory_rows_format_each_cell_like_fmt():
    traj = simulate(SystemParams(), SystemState(1, 0, 3, 0), -5.0, 4.0)
    # a hand-built sample with numpy scalars, a negative zero and a subnormal
    state = SystemState(*map(np.float64, (1.5, -0.0, 3.0, 5e-324)))
    traj.append(np.float64(4.5), state, Mode.UNLATCHED, np.float64(0.0))
    expected = [
        (fmt(t), *map(fmt, x), mode.value, fmt(tau))
        for t, x, mode, tau in zip(traj.t, traj.x, traj.mode, traj.tau)
    ]
    assert {mode.value for mode in traj.mode} == {"L", "U"}
    assert trajectory_rows(traj) == expected


def test_cmd_classify_schema(tmp_path):
    cfg = _cfg(tmp_path, fl_range=FLRange(-15.0, 0.0, 5.0))
    assert cmd_classify(cfg) == 0
    header, rows = _read_csv(tmp_path / "classification.csv")
    assert header == ["F_L", "p_star", "A", "B", "Gamma", "Delta", "h1", "h2", "class"]
    assert len(rows) == 3  # F_L in {-15, -10, -5}; no interior point at 0
    assert all(r[8] == "Saddle" for r in rows)


@pytest.mark.parametrize("p0", [6.0, 8.0])
@pytest.mark.parametrize("variant", list(ModelVariant))
def test_far_pair_sweeps_match_per_force_reference(tmp_path, variant, p0):
    # p0 < 2R: the sweep crosses F_min, so its rows mix forces with one
    # latched point (the near arc) and forces with three (the far pair too)
    params = SystemParams(p0=p0, variant=variant)
    (tmp_path / "p0.cfg").write_text(f"p0 = {p0!r}\n", encoding="utf-8")
    argv = ["--config", str(tmp_path / "p0.cfg"), "--variant", variant.value, "--fl-range=-4:0.5:0.05"]
    assert main(["equilibria", *argv, "--out", str(tmp_path / "eq")]) == 0
    assert main(["classify", *argv, "--out", str(tmp_path / "cl")]) == 0
    sweep = sweep_values(FLRange(-4.0, 0.5, 0.05))
    points = {fl: fixed_points(params, fl) for fl in sweep}
    assert {len(pts) for pts in points.values()} == {0, 1, 2, 4}  # F_L > 0, = 0, < F_min, > F_min

    _, rows = _read_csv(tmp_path / "eq" / "fixedpoints.csv")
    expect = [([p for p in pts if not p.origin_flag] or pts)[0] for pts in points.values() if pts]
    assert [r[0] for r in rows] == [fmt(fp.F_L_star) for fp in expect]
    assert [(float(r[1]), float(r[2]), r[3]) for r in rows] == [
        (fp.p_star, fp.l_star, "1" if fp.origin_flag else "0") for fp in expect
    ]

    _, rows = _read_csv(tmp_path / "cl" / "classification.csv")
    expect = [(fl, fp, stability_report(params, fp)) for fl, pts in points.items() for fp in pts if not fp.origin_flag]
    assert [(r[0], r[8]) for r in rows] == [(fmt(fl), rep.classification.value) for fl, _, rep in expect]
    for r, (_, fp, rep) in zip(rows, expect):
        assert [float(c) for c in r[1:8]] == [fp.p_star, rep.A, rep.B, rep.Gamma, rep.Delta, rep.h1, rep.h2]


def test_cmd_region_map_and_quiver_schema(tmp_path):
    cfg = _cfg(tmp_path / "rm", grid=(4, 3), fl_range=FLRange(-15.0, 0.0, 1.0))
    assert cmd_region_map(cfg) == 0
    header, rows = _read_csv(tmp_path / "rm" / "region.csv")
    assert header == ["p", "F_L", "h1", "h2", "in_S", "in_U"]
    assert len(rows) == 12
    for r in rows:
        for cell in r[:4]:
            float(cell)
        assert r[4] in "01" and r[5] in "01"

    cfg = _cfg(tmp_path / "qv", grid=(3, 3), fl_range=FLRange(-15.0, 0.0, 1.0))
    assert cmd_quiver(cfg) == 0
    header, rows = _read_csv(tmp_path / "qv" / "quiver.csv")
    assert header == ["p", "F_L", "dp_dFL"]
    assert len(rows) == 9
    # every cell parses; the single genuinely singular node (p = 2.5,
    # F_L = 0, where dD/dp = 0 exactly) is emitted as nan
    cells = {(float(r[0]), float(r[1])): float(r[2]) for r in rows}
    nans = [k for k, v in cells.items() if math.isnan(v)]
    assert nans == [(2.5, 0.0)]


@pytest.mark.parametrize("variant", list(ModelVariant))
def test_quiver_rows_are_per_node_nominal_rhs(tmp_path, variant):
    cfg = _cfg(tmp_path, variant=variant, grid=(7, 5), fl_range=FLRange(-15.0, 0.0, 1.0))
    assert cmd_quiver(cfg) == 0
    _, rows = _read_csv(tmp_path / "quiver.csv")
    assert len(rows) == 35
    nans = 0
    for p, fl, slope in rows:
        try:
            want = fmt(nominal_rhs(cfg.params, float(p), float(fl)))
        except SingularDenominatorError:
            want = "nan"
            nans += 1
        assert slope == want, (p, fl)
    assert nans == 1  # p = 2.5, F_L = 0, where dD/dp = 0 exactly


@pytest.mark.parametrize("variant", list(ModelVariant))
def test_quiver_soft_spring_has_no_false_fold(tmp_path, variant):
    # every quartic coefficient scales with k^2 at F_L = 0, so only a fold
    # test relative to dD/dp's terms leaves that column finite: the slope is 0
    soft = build_config({"m": 1.0, "M": 1.0, "R": 1.0, "k": 1e-6, "p0": 2.0, "variant": variant})
    cfg = apply_overrides(soft, out_dir=tmp_path, grid=(60, 40), fl_range=FLRange(-15.5, 0.0, 0.05))
    assert cmd_quiver(cfg) == 0
    _, rows = _read_csv(tmp_path / "quiver.csv")
    assert not [row for row in rows if math.isnan(float(row[2]))]
    assert [float(slope) for _, fl, slope in rows if float(fl) == 0.0] == [0.0] * 60
    for p in (0.25, 0.75):
        assert nominal_rhs(cfg.params, p, 0.0) == 0.0


def test_phase_portrait_bundle(tmp_path):
    cfg = _cfg(tmp_path, grid=(2, 2), t_end=0.2, fl=-15.0)
    assert phase_portrait(cfg) == 0
    files = sorted(p.name for p in tmp_path.iterdir())
    assert [f for f in files if f.startswith("traj_")] == [
        "traj_0000.csv",
        "traj_0001.csv",
        "traj_0002.csv",
        "traj_0003.csv",
    ]
    assert "index.csv" in files and "overlay.csv" in files and "manifest.json" in files

    header, rows = _read_csv(tmp_path / "overlay.csv")
    stars = [float(r[1]) for r in rows]
    assert 0.0 in stars
    assert any(abs(s - REF_SADDLE_P) < 1e-3 for s in stars)
    assert 10.0 in stars  # unlatched rest point is always present

    header, rows = _read_csv(tmp_path / "index.csv")
    assert all(r[6] == "ok" for r in rows)


def test_phase_portrait_jitter_is_seed_deterministic(tmp_path):
    cfg_a = _cfg(tmp_path / "a", grid=(2, 2), t_end=0.05)
    cfg_a = RunConfig(**{**cfg_a.__dict__, "jitter": True, "seed": 9})
    cfg_b = _cfg(tmp_path / "b", grid=(2, 2), t_end=0.05)
    cfg_b = RunConfig(**{**cfg_b.__dict__, "jitter": True, "seed": 9})
    phase_portrait(cfg_a)
    phase_portrait(cfg_b)
    assert (tmp_path / "a/index.csv").read_bytes() == (tmp_path / "b/index.csv").read_bytes()
    assert (tmp_path / "a/traj_0000.csv").read_bytes() == (tmp_path / "b/traj_0000.csv").read_bytes()


# --- entry point ----------------------------------------------------------------


def test_main_happy_path(tmp_path):
    rc = main(["equilibria", "--out", str(tmp_path / "eq"), "--fl-range=-3:0:1"])
    assert rc == 0
    assert (tmp_path / "eq" / "fixedpoints.csv").exists()


def test_main_validation_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("p0 = 3\n")
    rc = main(["equilibria", "--config", str(bad), "--out", str(tmp_path / "x")])
    assert rc == 1
    assert "p0" in capsys.readouterr().err


def test_main_trace_without_fixed_point_is_validation_error(tmp_path, capsys):
    # no interior fixed point exists at a pulling force: trace cannot start
    out = tmp_path / "t"
    rc = main(["trace", "--out", str(out), "--fl", "3"])
    assert rc == 1
    assert "no interior fixed point" in capsys.readouterr().err
    assert not out.exists()


def test_main_simulate_numerical_failure_leaves_no_output_dir(tmp_path, capsys):
    # no step meets a 1e-300 tolerance: the run fails before its first write
    cfg = tmp_path / "tight.cfg"
    cfg.write_text("rel_tol = 1e-300\nabs_tol = 1e-300\n")
    out = tmp_path / "sim"
    rc = main(["simulate", "--config", str(cfg), "--out", str(out)])
    assert rc == 2
    assert "numerical failure" in capsys.readouterr().err
    assert not out.exists()


def test_main_numerical_error_exit_code(tmp_path, capsys, monkeypatch):
    from lamsa import cli
    from lamsa.errors import EquilibriumBalanceError

    def boom(cfg):
        raise EquilibriumBalanceError("synthetic failure")

    monkeypatch.setitem(cli._COMMANDS, "trace", boom)
    rc = main(["trace", "--out", str(tmp_path / "t")])
    assert rc == 2
    assert "synthetic failure" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["equilibria", "--fl-range=-inf:0:1"], "argument --fl-range: fl_range start must be finite, got -inf"),
        (
            ["equilibria", "--fl-range=-1e308:1e308:1"],
            "argument --fl-range: fl_range step count (stop - start)/step must be finite, got -1e+308:1e+308:1.0",
        ),
        (["trace", "--fl", "nan"], "fl must be finite, got nan"),
        (["simulate", "--t-end", "nan"], "t_end must be finite, got nan"),
    ],
)
def test_main_non_finite_option_is_configuration_error(tmp_path, capsys, argv, message):
    out = tmp_path / "x"
    rc = main(argv + ["--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err == f"lamsa: configuration error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["equilibria", "--fl-range=0:1e6:1"], "argument --fl-range: fl_range has more than 1000000 values: 0.0:1000000.0:1.0"),
        (["region-map", "--grid", "101x9901"], "grid has 1000001 nodes, more than 1000000"),
        # from an unlatched rest start every max_step of t_end is one sample
        (["simulate", "--t-end", "1e4"], "t_end / max_step = 1e+06 gives more than 1000000 samples"),
        (["simulate", "--t-end", "1e9"], "t_end / max_step = 1e+11 gives more than 1000000 samples"),
        (["trace", "--fl=-50000"], "a trace from F_L=-50000.0 would take more than 1000000 samples"),
        (["trace", "--fl=-1e20"], "a trace from F_L=-1e+20 would take more than 1000000 samples"),
        # each start may take ceil(t_end / max_step) + 1 samples: 10^6 * 999,901 and 1,600 * 1,001
        (
            ["phase-portrait", "--grid", "1000x1000", "--t-end", "9999"],
            "a portrait of 1000000 starts to t_end=9999.0 would take more than 1000000 samples",
        ),
        (
            ["phase-portrait", "--grid", "40x40", "--t-end", "10"],
            "a portrait of 1600 starts to t_end=10.0 would take more than 1000000 samples",
        ),
    ],
)
def test_oversized_run_is_refused_before_it_allocates(tmp_path, capsys, argv, message):
    # one item past the bound: refused at exit 1, while a million floats would take 8 MB
    out = tmp_path / "x"
    tracemalloc.start()
    try:
        rc = main(argv + ["--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 1
    assert capsys.readouterr().err == f"lamsa: configuration error: {message}\n"
    assert peak < 1_000_000
    assert not out.exists()


@pytest.mark.parametrize(
    "argv", [["classify", "--fl-range=-1e308:0:1e307"], ["equilibria", "--fl-range=-1e308:0:1e308"]]
)
@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow is the input's point
def test_overflowing_sweep_is_a_numerical_failure(tmp_path, capsys, argv):
    # at a latch force near 1e308 the closed forms overflow to nan or inf,
    # which no artifact may carry
    out = tmp_path / "x"
    assert main(argv + ["--out", str(out)]) == 2
    assert capsys.readouterr().err == "lamsa: numerical failure: a result overflowed to a non-finite value\n"
    assert not out.exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow is the input's point
def test_overflowing_portrait_overlay_is_a_numerical_failure(tmp_path, capsys):
    # at F_L = -1e308 the near-arc p* overflows to inf, which overlay.csv
    # must not carry; the check runs before the first trajectory is written
    out = tmp_path / "x"
    assert main(["phase-portrait", "--grid", "2x2", "--t-end", "1", "--fl=-1e308", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "lamsa: numerical failure: a result overflowed to a non-finite value\n"
    assert not out.exists()


def test_overflowing_simulation_is_a_numerical_failure(tmp_path, capsys):
    # the squared contact-force denominator raises OverflowError, not a traceback
    assert main(["simulate", "--fl=-1e44", "--out", str(tmp_path / "x")]) == 2
    assert capsys.readouterr().err.startswith("lamsa: numerical failure: ")
    assert not (tmp_path / "x").exists()


_EDGE = ["-15", "-5", "-1", "0", "0.5", "2", "-1e-3", "1e-3", "1e308", "-1e308", "1e-320", "nan", "inf", "1e400", "0x5"]
_CLI_FLAGS = {
    "--variant": st.sampled_from(["printed", "derived", "sideways"]),
    "--fl": st.one_of(st.sampled_from(_EDGE), st.text(max_size=6)),
    "--fl-range": st.one_of(
        st.sampled_from(["-15:0:1", "-3:0:0.5", "0:1e6:1", "-1e308:1e308:1"]),
        st.builds(":".join, st.lists(st.sampled_from(_EDGE), min_size=1, max_size=4)),
        st.text(max_size=8),
    ),
    # grids and run lengths stay small or past the bound, so a run takes milliseconds
    "--grid": st.sampled_from(["2x2", "6x4", "3x7", "1x9", "101x9901"]),
    "--seed": st.sampled_from(["0", "7", "-1"]),
    "--t-end": st.sampled_from(["0", "0.5", "1", "2", "-1", "1e4"]),
}


def _non_finite_artifacts(out: Path) -> list[str]:
    """Names of the artifacts holding a nan or infinite value.

    Exempt are the documented ones: ``quiver.csv``'s nan where dD/dp is
    numerically zero and the overlay's unlatched rest point, which has no
    l_star; ``index.csv``'s detail column is an error message, not a value.
    """
    found = []
    for path in out.iterdir():
        if path.name == "quiver.csv":
            continue
        rows = [line.split(",") for line in path.read_text().splitlines()]
        if path.name == "overlay.csv":
            del rows[-1][2]
        if path.name == "index.csv":
            rows = [row[: cli.INDEX_HEADER.index("detail")] for row in rows]
        if re.search(r"(?i)\b(nan|inf|infinity)\b", "\n".join(map(",".join, rows))):
            found.append(path.name)
    return found


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # edge forces overflow numpy kernels; exit 2 reports it
@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    command=st.sampled_from(["equilibria", "classify", "region-map", "quiver", "simulate"]),
    flags=st.fixed_dictionaries({}, optional=_CLI_FLAGS),
)
def test_cli_never_ends_in_a_traceback(command, flags):
    argv = [command, *(f"{flag}={text}" for flag, text in flags.items())]
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(io.StringIO()):
        out = Path(tmp) / "run"
        rc = main([*argv, "--out", str(out)])
        assert rc in (0, 1, 2), argv
        if rc != 0:
            assert not out.exists(), argv
            return
        assert _non_finite_artifacts(out) == [], argv


# config-file keys the test above leaves at their defaults, each with values
# that keep a run short (or break the config), for the simulating commands
_CONFIG_VALUES = {
    "m": ["1", "0.5", "3", "0", "1e-320", "1e308"],
    "M": ["1", "0.5", "3", "0", "1e-320", "1e308"],
    "R": ["5", "1", "9", "0", "-1", "1e308"],
    "k": ["1", "0.5", "3", "0", "1e-320", "1e308"],
    "p0": ["10", "6", "5.5", "5", "30", "1e308"],
    "rel_tol": ["1e-8", "1e-6", "1e-300", "0", "1e308"],
    "abs_tol": ["1e-10", "1e-6", "1e-300", "0", "1e308"],
    "max_step": ["1e-2", "0.1", "0.5", "1e-12", "0", "1e308"],
    "event_time_tol": ["1e-10", "1e-3", "0.05", "0", "1e308"],
    "x0": ["1, 0, 3, 0", "4.9, 2, 0.99, 0", "9, 0.5, 2, 0.3", "0, 0, 0, 0", "1, 0, 1e308, 0", "1, 0, 3"],
    "v_max": ["10", "1", "1e308", "0", "-1"],
    "jitter": ["true", "false", "maybe"],
}
_RUN_FLAGS = {
    "--variant": st.sampled_from(["printed", "derived"]),
    # a trace from below F_L = -50,000 is refused; the forces here trace in milliseconds or are refused
    "--fl": st.sampled_from(["-15", "-5", "-3.3", "-1", "-1e-3", "0", "0.5", "1e-320", "-1e6", "1e308", "-1e308"]),
    "--seed": st.sampled_from(["0", "7"]),
}


_SHORT_RUN = {"--grid": "2x2", "--t-end": "0"}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # edge values overflow numpy kernels; exit 2 reports it
@settings(max_examples=200, deadline=None, derandomize=True)
# inputs that once left a nan or inf in an artifact: the overlay's p* at F_L = -1e308, the
# flight's l at F_L = +1e308, the starting contact force at k = 1e308, design.json at
# m = 1e-320, the trace manifest's terminal_lambda at M = 1e-320; and a ZeroDivisionError
# traceback from the published design bound at m = M = 1e-320
@example(command="phase-portrait", keys={}, flags={**_SHORT_RUN, "--fl": "-1e308"})
@example(command="phase-portrait", keys={"M": "1"}, flags={"--grid": "2x2", "--t-end": "2", "--fl": "1e308"})
@example(command="simulate", keys={"k": "1e308"}, flags=_SHORT_RUN)
@example(command="design-check", keys={"m": "1e-320"}, flags=_SHORT_RUN)
@example(command="trace", keys={"M": "1e-320"}, flags={**_SHORT_RUN, "--variant": "derived"})
@example(command="design-check", keys={"m": "1e-320", "M": "1e-320"}, flags=_SHORT_RUN)
@given(
    command=st.sampled_from(["trace", "design-check", "phase-portrait", "simulate"]),
    keys=st.lists(
        st.sampled_from(list(_CONFIG_VALUES)).flatmap(lambda key: st.tuples(st.just(key), st.sampled_from(_CONFIG_VALUES[key]))),
        max_size=3,
        unique_by=lambda item: item[0],
    ).map(dict),
    flags=st.fixed_dictionaries(
        {"--grid": st.sampled_from(["2x2", "2x3", "3x2", "3x3"]), "--t-end": st.sampled_from(["0", "0.5", "1", "2"])},
        optional=_RUN_FLAGS,
    ),
)
def test_cli_config_file_never_ends_in_a_traceback(command, keys, flags):
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(io.StringIO()):
        config, out = Path(tmp) / "run.cfg", Path(tmp) / "run"
        config.write_text("".join(f"{key} = {value}\n" for key, value in keys.items()), encoding="utf-8")
        argv = [command, "--config", str(config), *(f"{flag}={text}" for flag, text in flags.items())]
        rc = main([*argv, "--out", str(out)])
        assert rc in (0, 1, 2), (argv, keys)
        if rc != 0:
            assert not out.exists(), (argv, keys)
            return
        assert _non_finite_artifacts(out) == [], (argv, keys)


def test_build_parser_is_built_once():
    assert build_parser() is build_parser()


def test_main_bad_argument_exits_1_on_every_call(capsys):
    for _ in range(2):
        assert main(["trace", "--fl", "not-a-number"]) == 1
        err = capsys.readouterr().err
        assert err == "lamsa: configuration error: argument --fl: key 'fl' expects a number, got 'not-a-number'\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--fl", "abc"], "argument --fl: key 'fl' expects a number, got 'abc'"),
        (["--seed", "1.5"], "argument --seed: key 'seed' expects an integer, got '1.5'"),
        (["--t-end", "soon"], "argument --t-end: key 't_end' expects a number, got 'soon'"),
        (["--variant", "x"], "argument --variant: key 'variant' expects 'printed' or 'derived', got 'x'"),
        (["--fl-range=-1e308:1e308:1"], "argument --fl-range: fl_range step count (stop - start)/step must be finite"),
        (["--no-such-option"], "unrecognized arguments: --no-such-option"),
    ],
)
def test_main_malformed_argument_is_configuration_error(tmp_path, capsys, argv, message):
    # exit 2 means a numerical failure: a bad argument is bad input (exit 1)
    out = tmp_path / "x"
    assert main(["simulate", *argv, "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"lamsa: configuration error: {message}")
    assert not out.exists()


def test_negative_values_in_exponent_and_range_form_are_values(tmp_path, capsys):
    # argparse alone takes only -<digits> and -<digits>.<digits> for numbers
    assert main(["trace", "--fl", "-1e-3", "--out", str(tmp_path / "tr")]) == 0
    assert json.loads((tmp_path / "tr" / "manifest.json").read_text())["config"]["fl"] == -1e-3
    assert main(["trace", "--fl", "-.5", "--out", str(tmp_path / "half")]) == 0
    for i, argv in enumerate((["--fl-range", "-15:0:1"], ["--fl-range=-15:0:1"])):
        assert main(["equilibria", *argv, "--out", str(tmp_path / f"eq{i}")]) == 0
    assert (tmp_path / "eq0" / "fixedpoints.csv").read_bytes() == (tmp_path / "eq1" / "fixedpoints.csv").read_bytes()
    capsys.readouterr()
    assert main(["trace", "--fl", "-inf", "--out", str(tmp_path / "inf")]) == 1
    assert capsys.readouterr().err == "lamsa: configuration error: argument --fl: expected one argument\n"
    assert not (tmp_path / "inf").exists()


# override flag -> (a value that reads, values that do not read as the key's type)
_FLAG_VALUES = {
    "--out": ("elsewhere", []),
    "--variant": ("derived", ["sideways"]),
    "--fl": ("-7.5", ["abc", "1,5"]),
    "--fl-range": ("-10:-1:0.5", ["1:2", "a:0:1", "0:-15:1", "-15:0:0"]),
    "--grid": ("8x4", ["3", "1x"]),
    "--seed": ("3", ["1.5"]),
    "--t-end": ("2.5", ["soon"]),
}


def test_every_override_flag_names_a_config_key():
    assert list(cli._OVERRIDES) == list(_FLAG_VALUES)
    assert set(cli._OVERRIDES.values()) <= set(_KEYS)
    # each flag's value lands under its key: the parser has no other option but --config
    assert set(vars(build_parser().parse_args(["simulate"]))) == {"command", "config", *cli._OVERRIDES.values()}


def _load(*argv: str) -> RunConfig:
    return cli._load_config(build_parser().parse_args(["simulate", *argv]))


@pytest.mark.parametrize("option", list(_FLAG_VALUES))
def test_override_flag_equals_its_config_key(tmp_path, option):
    key, text = cli._OVERRIDES[option], _FLAG_VALUES[option][0]
    (tmp_path / "one.cfg").write_text(f"{key} = {text}\n")
    from_file = _load("--config", str(tmp_path / "one.cfg"))
    assert _load(option, text) == from_file == parse_config(f"{key} = {text}\n") != RunConfig()


@pytest.mark.parametrize("option, text", [(o, bad) for o, (_, bads) in _FLAG_VALUES.items() for bad in bads])
def test_malformed_flag_and_config_value_fail_with_the_same_text(tmp_path, capsys, option, text):
    key, out = cli._OVERRIDES[option], tmp_path / "x"
    (tmp_path / "bad.cfg").write_text(f"{key} = {text}\n")
    assert main(["simulate", "--config", str(tmp_path / "bad.cfg"), "--out", str(out)]) == 1
    from_file = capsys.readouterr().err
    assert main(["simulate", option, text, "--out", str(out)]) == 1
    from_flag = capsys.readouterr().err
    head = "lamsa: configuration error: "
    assert from_file.startswith(f"{head}line 1: ") and from_flag.startswith(f"{head}argument {option}: ")
    assert from_file.removeprefix(f"{head}line 1: ") == from_flag.removeprefix(f"{head}argument {option}: ")
    assert not out.exists()


@pytest.mark.parametrize(
    "option, text", [("--fl", "nan"), ("--grid", "1x9"), ("--seed", "-1"), ("--t-end", "-1"), ("--t-end", "inf")]
)
def test_out_of_range_flag_and_config_value_fail_alike(tmp_path, capsys, option, text):
    # a value that reads but breaks a RunConfig invariant is named by key, from either source
    (tmp_path / "bad.cfg").write_text(f"{cli._OVERRIDES[option]} = {text}\n")
    assert main(["simulate", "--config", str(tmp_path / "bad.cfg")]) == 1
    from_file = capsys.readouterr().err
    assert main(["simulate", option, text]) == 1
    assert capsys.readouterr().err == from_file
    assert cli._OVERRIDES[option] in from_file


def test_apply_overrides_sets_config_keys_on_any_config():
    base = parse_config("m = 2\nrel_tol = 1e-9\nfl = -3\n")
    cfg = apply_overrides(base, M=6, variant=ModelVariant.CONSTRAINT_CONSISTENT, seed=4, fl=-1)
    assert cfg == parse_config("m = 2\nM = 6\nvariant = derived\nrel_tol = 1e-9\nfl = -1\nseed = 4\n")
    assert type(cfg.params.M) is float and type(cfg.F_L) is float
    assert apply_overrides(base) == base
    with pytest.raises(ConfigError, match=r"^invalid configuration: .*p0"):
        apply_overrides(base, p0=3)
    # the config file and --variant read the text into a ModelVariant; a
    # stored string would break the manifest echo
    with pytest.raises(ConfigError, match=r"^invalid configuration: variant must be a ModelVariant, got 'printed'$"):
        apply_overrides(build_config({}), variant="printed")


def test_main_without_a_subcommand_is_configuration_error(capsys):
    assert main([]) == 1
    assert capsys.readouterr().err.startswith("lamsa: configuration error: ")


@pytest.mark.parametrize("argv", [["--help"], ["simulate", "--help"]])
def test_main_help_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert "usage: lamsa" in capsys.readouterr().out


def test_negative_seed_is_configuration_error(tmp_path, capsys):
    with pytest.raises(ConfigError, match=r"\bseed must be non-negative, got -1$"):
        parse_config("seed = -1\n")
    cfg = tmp_path / "jitter.cfg"
    cfg.write_text("jitter = true\ngrid = 2x2\n")
    out = tmp_path / "pp"
    assert main(["phase-portrait", "--config", str(cfg), "--seed", "-1", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "lamsa: configuration error: seed must be non-negative, got -1\n"
    assert not out.exists()


def _artifacts(out: Path) -> dict[str, object]:
    """Every file under ``out``; a manifest without its timestamp."""
    files = {}
    for path in sorted(out.rglob("*")):
        if path.name == "manifest.json":
            manifest = json.loads(path.read_text())
            del manifest["created"], manifest["config"]["out_dir"]
            files[str(path.relative_to(out))] = manifest
        elif path.is_file():
            files[str(path.relative_to(out))] = path.read_bytes()
    return files


def test_main_in_one_process_matches_fresh_processes(tmp_path):
    # the parser is shared by every main call of a process: no option may
    # carry over from one call to the next
    runs = [
        ["trace", "--variant", "printed", "--fl", "-4"],
        ["trace", "--fl", "-6"],
        ["equilibria", "--variant", "derived", "--fl-range=-3:0:0.5"],
        ["equilibria"],
        ["quiver", "--grid", "4x3", "--fl-range=-2:0:1"],
        ["region-map"],
    ]
    for i, argv in enumerate(runs):
        assert main(argv + ["--out", str(tmp_path / "one" / str(i))]) == 0
    for i, argv in enumerate(runs):
        proc = subprocess.run(
            [sys.executable, "-m", "lamsa.cli", *argv, "--out", str(tmp_path / "fresh" / str(i))],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
    assert _artifacts(tmp_path / "one") == _artifacts(tmp_path / "fresh")
    manifest = json.loads((tmp_path / "one" / "1" / "manifest.json").read_text())
    assert manifest["config"]["variant"] == "printed"


def test_console_script_runs(tmp_path):
    out = tmp_path / "script"
    proc = subprocess.run(
        [sys.executable, "-m", "lamsa.cli", "design-check", "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert (out / "design.json").exists()
