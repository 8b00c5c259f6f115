"""The names the benchmark's per-layer tracer wraps must keep doing their work.

``perfbench/tracer.py`` replaces lamsa module globals with counting
wrappers, and a traced benchmark run aborts when a workload's expected
counter reads 0.  These tests run the tracer on the benchmark's own
smoke portrait and smoke analysis, and on the derived portrait whose
profile ``perfbench/smoke_check.py`` pins, so that a refactor which
renames or bypasses a traced name, or changes that profile, fails here
and not only under ``perfbench/run.py --trace 1`` or the smoke check.  The
benchmark files are read and executed in memory: nothing is written under
``perfbench/``.
"""

from __future__ import annotations

import importlib
import sys
import types
from pathlib import Path

import pytest

from lamsa.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str) -> types.ModuleType:
    path = PERFBENCH / f"{name}.py"
    module = types.ModuleType(f"_perfbench_{name}")
    module.__file__ = str(path)
    sys.modules[module.__name__] = module  # dataclasses look their module up
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), module.__dict__)
    return module


@pytest.fixture(scope="module")
def tracer() -> types.ModuleType:
    return _load("tracer")


def test_every_traced_name_resolves(tracer):
    for module_name, attr, span, layer, _ in tracer.TARGETS:
        target = getattr(importlib.import_module(module_name), attr, None)
        assert callable(target), f"{module_name}.{attr} ({span})"
        assert layer in tracer.LAYERS


def test_traced_portrait_reaches_every_expected_layer(tracer, tmp_path):
    # the benchmark's own smoke portrait: a jittered 3x3 grid at F_L = -15
    # with latched starts for both variants, so the integrator runs
    portrait = _load("workloads").Portrait
    config = portrait(7, True, tmp_path).config
    sim_module = importlib.import_module("lamsa.simulate")
    originals = {name: getattr(sim_module, name) for name in ("integrate_step", "_step_raw", "_field_arr")}
    for variant in ("printed", "derived"):
        trace = tracer.Trace()
        with tracer.Tracer(trace):
            rc = main(["phase-portrait", "--config", str(config), "--variant", variant,
                       "--out", str(tmp_path / variant)])
        assert rc == 0
        metrics = tracer.layer_metrics(trace)
        for name in portrait.expect_nonzero:
            assert metrics[name][0] > 0, (variant, name)
        assert metrics["simulate.calls"][0] == 9
        assert metrics["simulate.step_trials"][0] >= metrics["simulate.steps_accepted"][0]
    # the wrappers are gone once the block ends
    assert {name: getattr(sim_module, name) for name in originals} == originals


def test_traced_analysis_reaches_every_expected_layer(tracer, tmp_path):
    # the benchmark's own smoke analysis: trace_path must still call the
    # traced lamsa.bifurcation._newton_correct, and every gate must hold
    analysis = _load("workloads").Analysis(7, True, tmp_path)
    trace = tracer.Trace()
    with tracer.Tracer(trace):
        res = analysis.run_pass(tmp_path / "out", lambda: None)
    metrics = tracer.layer_metrics(trace)
    for name in analysis.expect_nonzero:
        assert metrics[name][0] > 0, name
    assert res.problems == []
    assert res.failed == 0


def test_traced_unjittered_portrait_integrates_nothing(tracer, tmp_path):
    # all nine starts of the plain 3x3 grid are unlatched: the flight is
    # evaluated in closed form, so no step is tried and no field evaluated
    trace = tracer.Trace()
    with tracer.Tracer(trace):
        rc = main(["phase-portrait", "--grid", "3x3", "--t-end", "2", "--out", str(tmp_path)])
    assert rc == 0
    metrics = tracer.layer_metrics(trace)
    assert metrics["simulate.calls"][0] == 9
    assert metrics["simulate.step_trials"][0] == 0
    assert trace.count("model.field_evals_in_simulate") == 0


def test_traced_unjittered_derived_portrait_profile(tracer, tmp_path):
    # the profile perfbench/smoke_check.py pins on the derived 20x20
    # portrait at F_L = -15: every step accepted at the first trial, and
    # seven field evaluations per accepted step
    trace = tracer.Trace()
    with tracer.Tracer(trace):
        rc = main(["phase-portrait", "--variant", "derived", "--grid", "20x20",
                   "--fl", "-15", "--t-end", "10", "--out", str(tmp_path)])
    assert rc == 0
    metrics = {name: value for name, (value, _) in tracer.layer_metrics(trace).items()}
    assert metrics["simulate.calls"] == 400
    assert metrics["simulate.accept_ratio"] == 1.0
    assert metrics["model.evals_per_step"] == pytest.approx(7.0, abs=0.05)
