"""The three workloads: seeded inputs, one timed pass, correctness gates.

Every workload runs both model variants (printed and derived) at the
reference parameters m=1, M=5, R=5, k=1, p0=10, which are lamsa's
defaults.  A workload object is built from the benchmark seed (this is
the set-up that ``setup_s`` times); lamsa receives only the inputs
generated from it.  ``run_pass`` issues the workload's client calls one
after the other (one client, closed loop) and times each; before each
call it lets the worker pause to calibrate (outside the call's timing),
and everything that inspects outputs happens after the last call.

* ``portrait`` -- ``lamsa phase-portrait`` through ``cli.main``: many
  short trajectories, heavy on ``simulate`` and ``io``.
* ``release``  -- library ``simulate`` calls from latched starts near the
  interior equilibrium, no file output: contact force, projection and
  event location dominate.
* ``analysis`` -- the static CLI pipeline (equilibria, classify, trace,
  region-map, quiver, design-check): no ``simulate`` at all, so an
  integrator change must not move it.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import lamsa
import lamsa.cli
from lamsa import ModelVariant, SystemParams, SystemState
from lamsa.errors import LamsaError

VARIANTS = {"printed": ModelVariant.AS_PRINTED, "derived": ModelVariant.CONSTRAINT_CONSISTENT}
PRINTED_SADDLE_P = 4.64383  # printed-variant interior point at F_L = -15
RELEASE_T_TOL = 1e-7  # derived release time vs the scipy reference
BALANCE_TOL = 1e-8  # relative, as trace_path checks its start

clock = time.perf_counter


@dataclass
class PassResult:
    calls: list[tuple[str, float]]  # (label, seconds) per client call
    attempted: int
    failed: int
    digest: str  # of the pass's outputs; equal across passes of one seed
    problems: list[str] = field(default_factory=list)
    detail: dict = field(default_factory=dict)

    @property
    def wall_s(self) -> float:
        """The pass's time: its calls' latencies (the pauses between calls excluded)."""
        return sum(s for _, s in self.calls)


def _digest(obj: object) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def _artifact_digest(out: Path) -> str:
    """Digest of every artifact body in ``out``; the manifest (timestamped) is left out."""
    h = hashlib.sha256()
    for path in sorted(out.rglob("*")):
        if path.is_file() and path.name != "manifest.json":
            h.update(str(path.relative_to(out)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def _cli(argv: list[str]) -> tuple[int, float]:
    t0 = clock()
    rc = lamsa.cli.main(argv)
    return rc, clock() - t0


class Portrait:
    """``phase-portrait`` 20x20 at F_L = -15, t_end = 10, seeded jitter."""

    name = "portrait"
    expect_nonzero = ("simulate.steps_accepted", "model.field_evals", "io.files")

    def __init__(self, seed: int, smoke: bool, work_dir: Path) -> None:
        rng = np.random.default_rng(seed)
        n = 3 if smoke else 20
        self.grid = n * n
        self.config = work_dir / "portrait.cfg"
        self.config_text = (
            f"fl = -15\ngrid = {n}x{n}\nt_end = {2 if smoke else 10}\n"
            f"jitter = true\nseed = {int(rng.integers(2**31 - 1))}\n"
        )
        self.config.write_text(self.config_text, encoding="utf-8")
        self.variants = tuple(VARIANTS)
        self.items_per_pass = self.grid * len(self.variants)
        self.inputs = {"config": self.config_text, "variants": self.variants}

    def run_pass(self, out: Path, pause: Callable[[], None]) -> PassResult:
        calls, codes = [], []
        for v in self.variants:
            pause()
            rc, dt = _cli(["phase-portrait", "--config", str(self.config), "--variant", v, "--out", str(out / v)])
            calls.append((v, dt))
            codes.append(rc)

        res = PassResult(calls, 0, 0, _artifact_digest(out))
        for v, rc in zip(self.variants, codes):
            if rc != 0:
                res.problems.append(f"portrait/{v}: phase-portrait exited with {rc}")
            self._inspect(out / v, v, res)
        return res

    def _inspect(self, out: Path, variant: str, res: PassResult) -> None:
        index = out / "index.csv"
        if not index.is_file():
            res.problems.append(f"portrait/{variant}: phase-portrait wrote no index.csv")
            res.attempted += self.grid
            res.failed += self.grid
            return
        with open(index, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        if len(rows) != self.grid:
            res.problems.append(f"portrait/{variant}: index has {len(rows)} rows, expected {self.grid}")
        res.attempted += len(rows)
        for row in rows:
            traj = out / row["file"]
            if row["status"] == "error" and row["detail"] and not traj.exists():
                res.failed += 1
            elif row["status"] == "ok" and traj.is_file():
                body = traj.read_bytes()
                if b"nan" in body or b"inf" in body:
                    res.problems.append(f"portrait/{variant}: non-finite value in {row['file']}")
                if body.count(b"\n") - 1 != int(row["n_samples"]):
                    res.problems.append(f"portrait/{variant}: {row['file']} row count differs from index")
            else:
                res.problems.append(
                    f"portrait/{variant}: index row {row['idx']} is neither ok nor a recorded error")

    def check(self, passes: list[PassResult]) -> tuple[list[str], dict]:
        return [], {}


class Release:
    """Library ``simulate`` from latched starts p* + delta near the interior equilibrium."""

    name = "release"
    expect_nonzero = ("simulate.steps_accepted", "simulate.event_calls", "simulate.project_calls")
    t_end = 10.0

    def __init__(self, seed: int, smoke: bool, work_dir: Path) -> None:
        # A fixed design, jittered by the seed: F_L strata of [-15, -0.5] x
        # strata of delta's share of the room towards 0 or R x both signs,
        # one uniform draw inside each cell.  A free draw let the mix of
        # slow starts (close to the saddle, or not released by t_end) and
        # so the pass time and p90 change by 5-15 % from seed to seed.
        rng = np.random.default_rng(seed)
        n_fl, n_share = (3, 1) if smoke else (6, 4)
        cells = list(itertools.product(range(n_fl), range(n_share), (1.0, -1.0)))
        self.params = {v: SystemParams(variant=variant) for v, variant in VARIANTS.items()}
        self.starts = []  # (variant, F_L, x0)
        for v, params in self.params.items():
            for (i, j, sign), (a, b) in zip(cells, rng.random((len(cells), 2))):
                F_L = -15.0 + 14.5 * (i + a) / n_fl
                share = 0.1 + 0.8 * (j + b) / n_share
                p_star = next(fp.p_star for fp in lamsa.fixed_points(params, F_L) if not fp.origin_flag)
                p = p_star + sign * share * (params.R - p_star if sign > 0 else p_star)
                x0 = SystemState(p, 0.0, lamsa.latch_from_projectile(params, p), 0.0)
                self.starts.append((v, F_L, x0))
        self.items_per_pass = len(self.starts)
        self.inputs = {"t_end": self.t_end, "starts": [
            [v, repr(F_L), [repr(c) for c in (x0.p, x0.p_dot, x0.l, x0.l_dot)]] for v, F_L, x0 in self.starts
        ]}

    def run_pass(self, out: Path, pause: Callable[[], None]) -> PassResult:
        calls, outcomes = [], []
        failed = 0
        for v, F_L, x0 in self.starts:
            pause()
            t0 = clock()
            try:
                traj = lamsa.simulate(self.params[v], x0, F_L, self.t_end)
                ev = traj.events[0] if traj.events else None
                final = traj.final
                outcomes.append([ev.kind.value if ev else None, ev.t if ev else None,
                                 final.t, final.state.p, final.state.p_dot])
            except (LamsaError, ValueError, ArithmeticError) as exc:
                failed += 1
                outcomes.append(["error", type(exc).__name__])
            calls.append((v, clock() - t0))
        return PassResult(calls, len(self.starts), failed, _digest(outcomes), detail={"outcomes": outcomes})

    def check(self, passes: list[PassResult]) -> tuple[list[str], dict]:
        from reference import release  # scipy: imported only after the timed passes

        problems = []
        outcomes = passes[0].detail["outcomes"]
        kinds = {o[0] for o in outcomes}
        for kind in ("UnlatchTauZero", "TakeoffTangency"):
            if kind not in kinds:
                problems.append(f"release: no {kind} release among {len(outcomes)} calls")
        worst = 0.0
        ref_params = {k: getattr(self.params["derived"], k) for k in ("m", "M", "R", "k", "p0")}
        for (v, F_L, x0), outcome in zip(self.starts, outcomes):
            if v != "derived" or outcome[0] == "error":
                continue
            kind, t = release((x0.p, x0.p_dot, x0.l, x0.l_dot), F_L, self.t_end, **ref_params)
            if kind != outcome[0]:
                problems.append(f"release: F_L={F_L!r} released by {outcome[0]}, reference says {kind}")
            elif t is not None:
                worst = max(worst, abs(outcome[1] - t))
        if worst > RELEASE_T_TOL:
            problems.append(f"release: derived release time off the reference by {worst:.3e} > {RELEASE_T_TOL}")
        return problems, {"simulate.event_t_err_max": worst}


class Analysis:
    """The static pipeline over a fine F_L sweep and 60x40 rasters."""

    name = "analysis"
    expect_nonzero = ("bifurcation.region_nodes", "stability.jacobian_calls",
                      "equilibria.fixed_points_calls", "bifurcation.corrector_iters")

    def __init__(self, seed: int, smoke: bool, work_dir: Path) -> None:
        rng = np.random.default_rng(seed)
        n_sweep = 10 if smoke else 300
        n_p, n_f = (6, 4) if smoke else (60, 40)
        start = -15.5 + float(rng.random())
        stop = -0.5 * float(rng.random())
        step = (stop - start) / n_sweep
        self.sweep = lamsa.sweep_values(lamsa.FLRange(start, stop, step))
        fl_range = f"--fl-range={start!r}:{stop!r}:{step!r}"
        grid = f"{n_p}x{n_f}"
        self.nodes = n_p * n_f
        self.commands = [
            ["equilibria", fl_range],
            ["classify", fl_range],
            ["trace", "--fl", "-15"],
            ["region-map", "--grid", grid, fl_range],
            ["quiver", "--grid", grid, fl_range],
            ["design-check"],
        ]
        self.variants = tuple(VARIANTS)
        self.items_per_pass = len(self.variants) * 2 * (len(self.sweep) + self.nodes)
        self.inputs = {"commands": self.commands, "variants": self.variants}

    def run_pass(self, out: Path, pause: Callable[[], None]) -> PassResult:
        # one client call is the whole pipeline for one variant
        calls, per_command = [], {}
        failed = attempted = 0
        for v in self.variants:
            pause()
            t_call = clock()
            for cmd in self.commands:
                rc, dt = _cli([cmd[0], "--variant", v, "--out", str(out / v / cmd[0])] + cmd[1:])
                per_command[f"{v}/{cmd[0]}"] = dt
                attempted += 1
                failed += rc != 0
            calls.append((v, clock() - t_call))

        res = PassResult(calls, attempted, failed, _artifact_digest(out), detail={"command_s": per_command})
        for v in self.variants:
            self._inspect(out / v, v, res)
        return res

    def _inspect(self, out: Path, variant: str, res: PassResult) -> None:
        params = SystemParams(variant=VARIANTS[variant])
        rows = _read_csv(out / "equilibria" / "fixedpoints.csv")
        if len(rows) != len(self.sweep):
            res.problems.append(
                f"analysis/{variant}: {len(rows)} fixed-point rows for {len(self.sweep)} sweep values")
        for row in rows:
            F_L, p = float(row["F_L"]), float(row["p_star"])
            scale = max(1.0, params.k * params.p0 * params.R, abs(F_L) * params.R)
            if not abs(lamsa.balance_residual(params, p, F_L)) <= BALANCE_TOL * scale:
                res.problems.append(f"analysis/{variant}: fixed point p*={p!r} at F_L={F_L!r} fails the balance")
        manifest = out / "trace" / "manifest.json"
        terminal = (json.loads(manifest.read_text(encoding="utf-8")).get("results", {}).get("terminal")
                    if manifest.is_file() else None)
        if terminal != "ReachedZeroForce":
            res.problems.append(f"analysis/{variant}: trace ended {terminal}, expected ReachedZeroForce")
        path = _read_csv(out / "trace" / "path.csv")
        if variant == "printed" and not (
            path and float(path[0]["F_L"]) == -15.0 and abs(float(path[0]["p_star"]) - PRINTED_SADDLE_P) < 5e-6
        ):
            res.problems.append(f"analysis/printed: interior point at F_L=-15 is not {PRINTED_SADDLE_P}")
        for cmd, name in (("region-map", "region.csv"), ("quiver", "quiver.csv")):
            n = len(_read_csv(out / cmd / name))
            if n != self.nodes:
                res.problems.append(f"analysis/{variant}: {name} has {n} rows, expected {self.nodes}")

    def check(self, passes: list[PassResult]) -> tuple[list[str], dict]:
        return [], {}


def _read_csv(path: Path) -> list[dict]:
    if not path.is_file():
        return []
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


WORKLOADS = {w.name: w for w in (Portrait, Release, Analysis)}


def inputs_digest(workload) -> str:
    return _digest(workload.inputs)
