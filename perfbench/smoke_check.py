"""Checks of the benchmark itself, on tiny inputs (``--smoke``).

    python3 perfbench/smoke_check.py

Runs from the root of a source checkout in about a minute.  It checks
that every metric BENCHMARK.json declares is printed with its unit, that
traced counts repeat exactly for one seed, that the tracer fails loudly
and restores what it wrapped, that the benchmark refuses to run without
the program, and that the traced counts of the unjittered derived-variant
phase portrait match its known profile (7.0 field evaluations per
accepted step, no rejected step).
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

from tracer import TARGETS, Trace, Tracer, TracerError, layer_metrics  # noqa: E402

SCRATCH = ROOT / ".perfbench_work"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SMOKE = ("--seed", "7", "--seconds", "1", "--smoke")


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


def results_of(proc: subprocess.CompletedProcess) -> list[dict]:
    """The result line of each workload run, in order."""
    assert proc.returncode == 0, proc.stderr
    results = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith('{"correct"')]
    assert proc.stdout.strip().splitlines()[-1].startswith('{"correct"')
    for result in results:
        assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    return results


def tearDownModule() -> None:
    if SCRATCH.is_dir() and not any(SCRATCH.iterdir()):
        SCRATCH.rmdir()


class SmokeRuns(unittest.TestCase):
    def assert_metrics(self, result: dict, declared: list[dict]) -> None:
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        metrics = result["metrics"]
        self.assertEqual(set(metrics), {m["name"] for m in declared})
        for m in declared:
            self.assertEqual(metrics[m["name"]]["unit"], m["unit"], m["name"])
            self.assertTrue(math.isfinite(metrics[m["name"]]["value"]), m["name"])

    def test_one_command_prints_every_end_to_end_metric(self) -> None:
        results = results_of(run_bench("--workload", "all", *SMOKE, "--trace", "0"))
        self.assertEqual(len(results), len(WORKLOADS))
        for w, result in zip(WORKLOADS, results):
            with self.subTest(workload=w):
                self.assert_metrics(result, SPEC["end_to_end"])
                for name, m in result["metrics"].items():
                    self.assertGreater(m["value"], 0.0, name)

    def test_traced_counts_repeat_for_one_seed(self) -> None:
        for w in WORKLOADS:
            with self.subTest(workload=w):
                runs = [results_of(run_bench("--workload", w, *SMOKE, "--trace", "1"))[0] for _ in range(2)]
                for result in runs:
                    self.assert_metrics(result, SPEC["per_layer"])
                names = ("model.field_evals", "simulate.steps_accepted", "bifurcation.region_nodes")
                counts = [{k: r["metrics"][k]["value"] for k in names} for r in runs]
                self.assertEqual(counts[0], counts[1])

    def test_refuses_to_run_without_the_program(self) -> None:
        SCRATCH.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=SCRATCH) as tmp:
            bare = Path(tmp)
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
            proc = run_bench("--workload", "release", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


class TracerChecks(unittest.TestCase):
    def test_package_attribute_shadows_the_module(self) -> None:
        import importlib

        import lamsa.simulate as shadowed

        self.assertTrue(callable(shadowed) and not hasattr(shadowed, "integrate_step"))
        self.assertTrue(hasattr(importlib.import_module("lamsa.simulate"), "integrate_step"))

    def test_missing_name_aborts_and_nothing_stays_wrapped(self) -> None:
        import importlib

        originals = [getattr(importlib.import_module(m), a) for m, a, *_ in TARGETS]
        bogus = TARGETS + (("lamsa.simulate", "no_such_function", "x", "simulate", None),)
        with self.assertRaises(TracerError):
            with Tracer(Trace(), bogus):
                pass
        with Tracer(Trace()):
            self.assertIsNot(getattr(importlib.import_module("lamsa.cli"), "main"), originals[1])
        self.assertEqual([getattr(importlib.import_module(m), a) for m, a, *_ in TARGETS], originals)

    def test_unjittered_derived_portrait_profile(self) -> None:
        import lamsa.cli

        SCRATCH.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=SCRATCH) as tmp:
            trace = Trace()
            with Tracer(trace):
                rc = lamsa.cli.main(["phase-portrait", "--variant", "derived", "--grid", "20x20",
                                     "--fl", "-15", "--t-end", "10", "--out", tmp])
        self.assertEqual(rc, 0)
        m = {k: v for k, (v, _) in layer_metrics(trace).items()}
        self.assertEqual(m["simulate.calls"], 400)
        self.assertEqual(m["simulate.accept_ratio"], 1.0)
        self.assertAlmostEqual(m["model.evals_per_step"], 7.0, delta=0.05)


if __name__ == "__main__":
    unittest.main()
