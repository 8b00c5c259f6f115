"""One workload process; started by run.py, never by hand.

Prints ``READY`` as soon as the first call could be issued (lamsa
imported, inputs generated), then runs timed passes until the time budget
is spent, checks the outputs, and prints ``RESULT <json>`` as its last
line.  With ``--setup-only`` it stops after ``READY``.

Untraced passes give the end-to-end numbers; a calibration kernel runs
between calls (see calibration.py).  With ``--trace 1``
untraced and traced passes alternate: the traced ones give the per-layer
numbers, and the ratio of the two kinds' median pass times is the
tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from calibration import Calibration  # noqa: E402
from tracer import Trace, Tracer, TracerError, layer_metrics  # noqa: E402

MIN_PASSES = 2  # outputs are compared between the passes of one seed


def _run_passes(wl, work_dir: Path, seconds: float, traced: bool,
                calibration: Calibration) -> tuple[list, list[dict]]:
    """Passes until ``seconds`` are spent, at least MIN_PASSES of them.

    In traced mode they alternate untraced, traced, untraced, ...; there is
    then at least one of each.  A pass is not started when the last pass
    of its kind predicts that it would end past the budget.
    """
    passes, layer = [], []
    last = {False: 0.0, True: 0.0}
    start = time.perf_counter()
    while True:
        kind = traced and len(passes) % 2 == 1
        enough = len(passes) >= MIN_PASSES and (not traced or any(t for _, t in passes))
        if enough and time.perf_counter() - start + last[kind] > seconds:
            break
        t0 = time.perf_counter()
        out = work_dir / f"pass{len(passes):04d}"  # fixed width: manifests echo the path
        out.mkdir()
        if kind:
            trace = Trace()
            with Tracer(trace):
                res = wl.run_pass(out, calibration)
            layer.append(layer_metrics(trace))
        else:
            res = wl.run_pass(out, calibration)
        shutil.rmtree(out)
        passes.append((res, kind))
        last[kind] = time.perf_counter() - t0
    return passes, layer


def _layer_summary(wl, layer: list[dict], passes: list) -> tuple[dict, list[str]]:
    """Per-pass counts (which must repeat exactly) and median per-pass times."""
    problems = []
    summary = {}
    for name, (value, unit) in layer[0].items():
        values = [m[name][0] for m in layer]
        if unit in ("count", "B", "ratio") and len(set(values)) != 1:
            problems.append(f"trace: {name} differs between traced passes: {values}")
        summary[name] = (value if unit in ("count", "B", "ratio") else statistics.median(values), unit)
    for name in wl.expect_nonzero:
        if not summary[name][0]:
            raise TracerError(f"{wl.name}: {name} is 0 in the traced run; a traced name is no longer called")
    untraced = [r.wall_s for r, t in passes if not t]
    traced = [r.wall_s for r, t in passes if t]
    summary["trace.overhead_ratio"] = (statistics.median(traced) / statistics.median(untraced), "ratio")
    return summary, problems


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--work-dir", type=Path, required=True)
    args = ap.parse_args()

    args.work_dir.mkdir(parents=True, exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](args.seed, args.smoke, args.work_dir)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    calibration = Calibration()
    passes, layer = _run_passes(wl, args.work_dir, args.seconds, bool(args.trace), calibration)
    calibration.finish()
    # ru_maxrss is in KiB on Linux; read it before the checks import scipy
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    problems = [p for res, _ in passes for p in res.problems]
    digests = {res.digest for res, _ in passes}
    if len(digests) != 1:
        problems.append(f"{wl.name}: {len(digests)} different output digests "
                        f"from {len(passes)} passes of one seed")
    gate_problems, gate_metrics = wl.check([res for res, _ in passes])
    problems += gate_problems
    layer_summary = {}
    if args.trace:
        layer_summary, trace_problems = _layer_summary(wl, layer, passes)
        problems += trace_problems
        layer_summary["simulate.event_t_err_max"] = (gate_metrics.get("simulate.event_t_err_max", 0.0), "model_t")

    untraced = [res for res, t in passes if not t]
    result = {
        "problems": problems,
        "attempted": sum(res.attempted for res, _ in passes),
        "failed": sum(res.failed for res, _ in passes),
        "items_per_pass": wl.items_per_pass,
        "pass_s": [res.wall_s for res in untraced],
        "kernel_s": calibration.samples,
        "speed_factor": calibration.factor(),
        "call_s": [s for res in untraced for _, s in res.calls],
        "peak_rss_mb": peak_rss_mb,
        "layer": layer_summary,
        "gate": gate_metrics,
        "detail": untraced[0].detail.get("command_s", {}),
        "inputs_digest": workloads.inputs_digest(wl),
        "numpy": np.__version__,
        "python": sys.version.split()[0],
    }
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
