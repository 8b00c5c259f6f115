"""lamsa benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload portrait|release|analysis|all \\
        --seed N --seconds S --trace 0|1 [--smoke]

Run it from the root of a source checkout; lamsa is imported from
``src/``.  This process only orchestrates: it imports neither numpy nor
lamsa.  It starts fresh worker processes (with one BLAS/OpenMP thread
each), first several that only set up, to time ``setup_s``, then one that
runs the timed passes and checks the outputs.  It prints each metric with
its unit, a line recording the environment and inputs, and, as the last
line, the JSON result object.  ``--workload all`` runs the workloads one
after the other, each printing its own block.  See README.md in this
directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import selectors
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("portrait", "release", "analysis")
SETUP_PROBES = 5  # fresh processes timed for setup_s, after one untimed warm-up
DEADLINE_S = 170.0  # the whole run must end within 180 s


class BenchError(RuntimeError):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def _worker(args: argparse.Namespace, work_dir: Path, setup_only: bool,
            deadline: float) -> tuple[float, dict | None]:
    """Start a worker; return (seconds from start to READY, parsed RESULT or None)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--work-dir", str(work_dir)]
    cmd += ["--smoke"] * args.smoke + ["--setup-only"] * setup_only
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=_child_env(), cwd=ROOT)
    ready = result = None
    try:
        with selectors.DefaultSelector() as sel:
            sel.register(proc.stdout, selectors.EVENT_READ)
            buf = b""
            while True:
                if not sel.select(deadline - time.monotonic()):
                    raise BenchError("worker did not finish before the run deadline")
                chunk = os.read(proc.stdout.fileno(), 1 << 16)
                if not chunk:
                    break
                buf += chunk
                while b"\n" in buf:
                    line, buf = buf.split(b"\n", 1)
                    if line == b"READY" and ready is None:
                        ready = time.perf_counter() - t0
                    elif line.startswith(b"RESULT "):
                        result = json.loads(line[len(b"RESULT "):])
        rc = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if rc != 0 or ready is None or (result is None and not setup_only):
        raise BenchError(f"worker {'set-up ' if setup_only else ''}process failed (exit {rc})")
    return ready, result


def _p90(values: list[float]) -> tuple[float, int]:
    """Nearest-rank 90th percentile, and how many samples lie beyond it."""
    ordered = sorted(values)
    rank = -(-len(ordered) * 9 // 10)  # ceil(0.9 n)
    return ordered[rank - 1], len(ordered) - rank


def _environment(args: argparse.Namespace, result: dict) -> dict:
    src = sorted((ROOT / "src" / "lamsa").glob("*.py"))
    h = hashlib.sha256()
    for path in src:
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = git.stdout.strip() or None
    return {
        "commit": commit,
        "src_sha256": h.hexdigest(),
        "python": result["python"],
        "numpy": result["numpy"],
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "inputs_sha256": result["inputs_digest"],
    }


def _metrics(args: argparse.Namespace, setup: list[float], result: dict) -> dict[str, tuple[float, str, str]]:
    """name -> (value, unit, how it was taken)."""
    if args.trace:
        return {name: (value, unit, "per traced pass") for name, (value, unit) in result["layer"].items()}
    f = result["speed_factor"]
    passes, calls = result["pass_s"], [f * s for s in result["call_s"]]
    wall = f * statistics.median(passes)
    p90, beyond = _p90(calls)
    return {
        "setup_s": (statistics.median(setup), "s", f"median of {len(setup)} fresh processes"),
        "wall_s": (wall, "s", f"median of {len(passes)} passes, reference seconds"),
        "items_per_s": (result["items_per_pass"] / wall, "1/s", f"{result['items_per_pass']} items per pass"),
        "call_ms_p50": (1e3 * statistics.median(calls), "ms", f"median of {len(calls)} calls"),
        "call_ms_p90": (1e3 * p90, "ms", f"p90 of {len(calls)} calls, {beyond} beyond it"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB", "workload process"),
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                    help="one workload, or all of them one after the other")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny inputs, for checking the benchmark itself")
    args = ap.parse_args()

    if not (ROOT / "src" / "lamsa" / "__init__.py").is_file():
        print(f"perfbench: no lamsa sources under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    return max(_run(argparse.Namespace(**{**vars(args), "workload": name})) for name in names)


def _run(args: argparse.Namespace) -> int:
    """One workload: set-up probes, the timed run, the report."""
    deadline = time.monotonic() + DEADLINE_S
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    try:
        setup = []
        if not args.trace:
            probes = 1 if args.smoke else SETUP_PROBES
            for i in range(probes + 1):
                ready, _ = _worker(args, work / f"setup{i}", True, deadline)
                if i:  # the first probe only warms the bytecode and file caches
                    setup.append(ready)
        ready, result = _worker(args, work / "run", False, deadline)
        setup.append(ready)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if work.parent.is_dir() and not any(work.parent.iterdir()):
            work.parent.rmdir()

    metrics = _metrics(args, setup, result)
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    for name, (value, unit, how) in metrics.items():
        print(f"  {name:36s} {value:14.6g} {unit:6s} {how}")
    print(f"  failed/attempted: {result['failed']}/{result['attempted']}")
    kernel = result["kernel_s"]
    print(f"  speed factor {result['speed_factor']:.4f} from {len(kernel)} kernel runs "
          f"(median {statistics.median(kernel):.4f} s); "
          f"unscaled wall_s {statistics.median(result['pass_s']):.6g} s")
    for name, value in result["gate"].items():
        print(f"  {name}: {value:.3e}")
    for name, seconds in result["detail"].items():
        print(f"  {name}: {1e3 * seconds:.1f} ms (first pass)")
    for problem in result["problems"]:
        print(f"  GATE FAILED: {problem}")
    print("env " + json.dumps(_environment(args, result), sort_keys=True))
    print(json.dumps({
        "correct": not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
