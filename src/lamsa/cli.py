"""Command-line interface: one subcommand per analysis artifact.

    lamsa <subcommand> --config <file> [--out <dir>] [--variant printed|derived]
          [--fl <value> | --fl-range a:b:step] [--grid NxM] [--seed N] [--t-end T]

Every subcommand writes its CSV/JSON artifacts into the output
directory, which is created at the first write, and returns its results;
``_run`` then writes ``manifest.json`` last.  Exit status: 0 on success, 1 on a
configuration/validation problem (a malformed argument or a nan or
infinite number included), 2 on a numerical failure (overflow and division by zero included).
"""

from __future__ import annotations

import argparse
import functools
import itertools
import math
import re
import sys
from pathlib import Path
from typing import Callable, Iterable, NoReturn

import numpy as np

from .bifurcation import design_feasibility, saddle_region_map, trace_path
from .config import _KEYS, _MAX_ITEMS, RunConfig, apply_overrides, build_config, parse_config, sweep_values
from .config import parse_fl_range, parse_grid  # not called; kept importable because perfbench/tracer.py wraps them
from .equilibria import FixedPoint, fixed_point_sweep, fixed_points, unlatched_fixed_point
from .errors import ConfigError, LamsaError, NumericalError
from .io import _write_json, flag, fmt, write_csv, write_events, write_manifest, write_trajectory
from .model import SystemState, latch_from_projectile
from .published import (
    _implicit_slope,
    in_region_U,
    nominal_rhs,  # not called here; kept importable because perfbench/tracer.py wraps lamsa.cli.nominal_rhs
)
from .simulate import simulate
from .stability import (
    _linearize,
    stability_report,  # not called here; kept importable because perfbench/tracer.py wraps lamsa.cli.stability_report
)

__all__ = ["main"]  # the subcommands are the interface, through _COMMANDS

FIXEDPOINT_HEADER = ["F_L", "p_star", "l_star", "origin_flag", "valid"]
CLASSIFY_HEADER = ["F_L", "p_star", "A", "B", "Gamma", "Delta", "h1", "h2", "class"]
PATH_HEADER = ["F_L", "p_star", "in_S"]
REGION_HEADER = ["p", "F_L", "h1", "h2", "in_S", "in_U"]
QUIVER_HEADER = ["p", "F_L", "dp_dFL"]
INDEX_HEADER = ["idx", *SystemState._fields, "file", "status", "n_samples", "n_events", "detail"]


class _Artifacts:
    """One run's output directory, made at the first write, and the row count of each artifact written.

    A command that fails before its first write leaves no directory behind.
    """

    def __init__(self, output_dir: Path) -> None:
        self.dir = output_dir
        self.outputs: dict[str, int] = {}  # artifact name -> row count, in write order

    def write(self, name: str, writer: Callable[..., int], *args: object) -> None:
        """Write artifact ``name`` as ``writer(path, *args)``, which returns its row count."""
        if not self.outputs:
            self.dir.mkdir(parents=True, exist_ok=True)
        self.outputs[name] = writer(self.dir / name, *args)


def _check_finite(*values: float | np.ndarray) -> None:
    """Raise NumericalError where any value (a float or an array) is nan or
    infinite, as from a latch force near 1e308."""
    if not all(np.isfinite(v).all() for v in values):
        raise NumericalError("a result overflowed to a non-finite value")


def _fixed_point_row(fp: FixedPoint) -> list[str]:
    """One ``fixedpoints.csv``/``overlay.csv`` row; the unlatched point has no l_star (nan).

    Any other nan or infinite cell raises NumericalError.
    """
    _check_finite(fp.F_L_star, fp.p_star, 0.0 if fp.l_star is None else fp.l_star)
    l_star = math.nan if fp.l_star is None else fp.l_star
    return [fmt(fp.F_L_star), fmt(fp.p_star), fmt(l_star), flag(fp.origin_flag), flag(True)]


def _interior_grid(lo: float, hi: float, n: int) -> np.ndarray:
    """n points strictly inside (lo, hi), evenly spaced."""
    return np.linspace(lo, hi, n + 2)[1:-1]


def _raster(cfg: RunConfig) -> tuple[np.ndarray, np.ndarray]:
    """The (p, F_L) raster of region-map and quiver.

    ``grid`` = n_p x n_f: n_p points inside (0, R), and n_f forces from the
    sweep's start (above 0, ConfigError) to its stop, clipped at 0.
    """
    n_p, n_f = cfg.grid
    if cfg.F_L_range.start > 0.0:
        raise ConfigError(f"fl_range must start at or below 0 for a raster, got {cfg.F_L_range.start}")
    fl_stop = min(0.0, cfg.F_L_range.stop)
    return _interior_grid(0.0, cfg.params.R, n_p), np.linspace(cfg.F_L_range.start, fl_stop, n_f)


def _raster_rows(p_grid: np.ndarray, fl_grid: np.ndarray, *cells: Iterable[str]) -> list[list[str]]:
    """One CSV row (p, F_L, *cells) per raster node, p-major.

    Each cell column yields one formatted string per node in the same
    order; each grid value is formatted once.
    """
    nodes = itertools.product([fmt(p) for p in p_grid], [fmt(fl) for fl in fl_grid])
    return [[p, fl, *row] for (p, fl), *row in zip(nodes, *cells)]


def cmd_simulate(cfg: RunConfig, out: _Artifacts) -> dict | None:
    traj = simulate(cfg.params, cfg.x0, cfg.F_L, cfg.t_end, cfg.integrator)
    out.write("trajectory.csv", write_trajectory, traj)
    out.write("events.json", write_events, traj)


def _columns(*columns: np.ndarray) -> list[Iterable[str]]:
    """Each float column formatted cell by cell as ``fmt`` would; a nan or
    infinite cell raises NumericalError."""
    _check_finite(*columns)
    return [map(float.__repr__, c.tolist()) for c in columns]


def cmd_equilibria(cfg: RunConfig, out: _Artifacts) -> dict | None:
    """Sweep of the moving fixed point; at F_L = 0 it collapses onto the origin."""
    sweep = sweep_values(cfg.F_L_range)
    fl, p, l = fixed_point_sweep(cfg.params, sweep)
    near = np.ones(fl.size, dtype=bool)  # each force's first row is its near-arc point
    near[1:] = fl[1:] != fl[:-1]
    no, yes = flag(False), flag(True)
    rows = [[f, ps, ls, no, yes] for f, ps, ls in zip(*_columns(fl[near], p[near], l[near]))]
    # the sweep ascends, so its F_L = 0 (the origin alone) follows every F_L < 0
    rows += [_fixed_point_row(fixed_points(cfg.params, f)[0]) for f in sweep if f == 0.0]
    out.write("fixedpoints.csv", write_csv, FIXEDPOINT_HEADER, rows)


def cmd_classify(cfg: RunConfig, out: _Artifacts) -> dict | None:
    """Closed-form entries, invariants and saddle class at every latched fixed point but the origin."""
    fl, p, l = fixed_point_sweep(cfg.params, sweep_values(cfg.F_L_range))
    *entries, label = _linearize(cfg.params, p, l, fl)
    rows = list(zip(*_columns(fl, p, *entries), label.tolist()))
    out.write("classification.csv", write_csv, CLASSIFY_HEADER, rows)


def cmd_trace(cfg: RunConfig, out: _Artifacts) -> dict | None:
    """Continue the saddle from the interior fixed point at the configured F_L."""
    pts = [p for p in fixed_points(cfg.params, cfg.F_L) if not p.origin_flag]
    if not pts:
        raise ConfigError(f"no interior fixed point exists at F_L={cfg.F_L}")
    path = trace_path(cfg.params, (pts[0].p_star, cfg.F_L), F_L_end=0.0)
    # +/- sqrt(h2) is the saddle's real pair at the last sample; as F_L -> 0-
    # it tends to sqrt(k p0/(M R)), not to zero (no eigenvalue vanishes there)
    h2 = path.final.h2
    _check_finite([s.h2 for s in path.samples])  # in_S reads each; as from a latch mass near 1e-300
    r = float.__repr__  # fmt without its call
    rows = [[r(s.F_L), r(s.p_star), flag(s.in_S)] for s in path.samples]
    out.write("path.csv", write_csv, PATH_HEADER, rows)
    return {"terminal": path.terminal.value, "terminal_lambda": math.sqrt(h2) if h2 > 0.0 else None}


def cmd_region_map(cfg: RunConfig, out: _Artifacts) -> dict | None:
    p_grid, fl_grid = _raster(cfg)
    rmap = saddle_region_map(cfg.params, p_grid, fl_grid)
    u = in_region_U(cfg.params, p_grid[:, None], fl_grid[None, :])
    rows = _raster_rows(
        p_grid,
        fl_grid,
        *_columns(rmap.h1.ravel(), rmap.h2.ravel()),
        map(flag, rmap.in_S.ravel().tolist()),
        map(flag, u.in_u.ravel().tolist()),
    )
    out.write("region.csv", write_csv, REGION_HEADER, rows)


def cmd_quiver(cfg: RunConfig, out: _Artifacts) -> dict | None:
    """Implicit-diff slope dp*/dF_L over the raster; nan where dD/dp is numerically zero.

    Any other non-finite slope, as from |F_L| above about 1e154, where the
    quartic's F_L^2 overflows, raises NumericalError.
    """
    p_grid, fl_grid = _raster(cfg)
    slope, singular = _implicit_slope(cfg.params, p_grid[:, None], fl_grid[None, :])
    _check_finite(np.where(singular, 0.0, slope))
    rows = _raster_rows(p_grid, fl_grid, map(fmt, slope.ravel().tolist()))
    out.write("quiver.csv", write_csv, QUIVER_HEADER, rows)


def cmd_design_check(cfg: RunConfig, out: _Artifacts) -> dict | None:
    report = design_feasibility(cfg.params)._asdict()
    _check_finite(*report.values())  # as from a mass near 1e-320
    out.write("design.json", _write_json, report)
    return {"feasible": report["feasible"]}


def _portrait_initial_states(cfg: RunConfig) -> list[SystemState]:
    n_p, n_v = cfg.grid
    p0 = cfg.params.p0
    R = cfg.params.R
    ps = _interior_grid(0.0, 2.0 * p0, n_p)
    vs = np.linspace(-cfg.v_max, cfg.v_max, n_v)
    if cfg.jitter:
        rng = np.random.default_rng(cfg.seed)
        dp, dv = 0.25 * (ps[1] - ps[0]), 0.25 * (vs[1] - vs[0])
        ps = ps + rng.uniform(-dp, dp, size=ps.shape)
        vs = vs + rng.uniform(-dv, dv, size=vs.shape)
    states = []
    for p in ps:
        for v in vs:
            p = float(p)
            v = float(v)
            if 0.0 < p < R:
                l = latch_from_projectile(cfg.params, p)
                states.append(SystemState(p, v, l, (R - p) * v / l))
            else:
                # latch parked off-contact at l = 2R, where h = 3R^2 + (R - p)^2 > 0:
                # these starts are unlatched, outside the latch for every p
                states.append(SystemState(p, v, 2.0 * R, 0.0))
    return states


def phase_portrait(cfg: RunConfig, out: _Artifacts) -> dict | None:
    """Simulate a grid of initial conditions and dump one CSV per trajectory.

    Emits ``traj_NNNN.csv`` files, an ``index.csv`` describing each run
    (failures are recorded there, not fatal), and ``overlay.csv`` with the
    fixed points at the configured F_L plus the unlatched rest point.
    A run whose trajectories could hold more than ``_MAX_ITEMS`` samples in
    all is refused, and the overlay is checked, before anything is written.
    """
    n_starts = cfg.grid[0] * cfg.grid[1]
    steps = min(cfg.t_end / cfg.integrator.max_step, _MAX_ITEMS)  # capped: ceil(inf) would raise
    if n_starts * (math.ceil(steps) + 1) > _MAX_ITEMS:
        raise ConfigError(f"a portrait of {n_starts} starts to t_end={cfg.t_end} would take more than {_MAX_ITEMS} samples")
    overlay = [*fixed_points(cfg.params, cfg.F_L), unlatched_fixed_point(cfg.params)]
    overlay_rows = [_fixed_point_row(fp) for fp in overlay]
    index_rows = []
    for i, x0 in enumerate(_portrait_initial_states(cfg)):
        name = f"traj_{i:04d}.csv"
        try:
            traj = simulate(cfg.params, x0, cfg.F_L, cfg.t_end, cfg.integrator)
            out.write(name, write_trajectory, traj)
            status, detail = "ok", ""
            n_samples, n_events = len(traj), len(traj.events)
        except (LamsaError, ArithmeticError) as exc:
            status, detail = "error", str(exc)
            n_samples = n_events = 0
        index_rows.append([str(i), *map(fmt, x0), name, status, str(n_samples), str(n_events), detail])
    out.write("index.csv", write_csv, INDEX_HEADER, index_rows)
    out.write("overlay.csv", write_csv, FIXEDPOINT_HEADER, overlay_rows)


_COMMANDS = {
    "simulate": cmd_simulate,
    "equilibria": cmd_equilibria,
    "classify": cmd_classify,
    "trace": cmd_trace,
    "region-map": cmd_region_map,
    "quiver": cmd_quiver,
    "design-check": cmd_design_check,
    "phase-portrait": phase_portrait,
}


def _run(command: Callable[[RunConfig, _Artifacts], dict | None], cfg: RunConfig) -> int:
    """Run ``command`` into ``cfg``'s output directory and return the exit status 0.

    The command computes and writes its artifacts through ``out``, and
    returns the manifest's results (or None); the manifest, with the
    config echo and each artifact's row count, is written last.
    """
    out = _Artifacts(cfg.output_dir)
    results = command(cfg, out)
    write_manifest(out.dir, cfg.echo(), out.outputs, results=results)
    return 0


# each override flag and the config key it sets; its text is read as that key's config-file value
_OVERRIDES = {"--out": "out_dir", "--variant": "variant", "--fl": "fl", "--fl-range": "fl_range",
              "--grid": "grid", "--seed": "seed", "--t-end": "t_end"}


class _Parser(argparse.ArgumentParser):
    """Usage errors raise ConfigError (exit 1), not SystemExit(2); ``-1e-3``, ``-.5``, ``-15:0:1`` are values."""

    def __init__(self, *args: object, **kwargs: object) -> None:
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\.?\d")

    def error(self, message: str) -> NoReturn:
        raise ConfigError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser, built on first use and shared for the process.

    Parsing never mutates it (each call gets a fresh namespace), so one
    tree serves every ``main`` call; do not add arguments to the result.
    """
    parser = _Parser(
        prog="lamsa",
        description="Simulation and bifurcation analysis of a contact-latch spring actuator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", type=Path, help="flat key=value config file")
        for option, key in _OVERRIDES.items():
            p.add_argument(option, dest=key, help=f"sets config key '{key}'")
    return parser


def _load_config(args: argparse.Namespace) -> RunConfig:
    """The config file (or the defaults) with each given flag's key set, its text read as in a config file."""
    values = {}
    for option, key in _OVERRIDES.items():
        raw = getattr(args, key)
        if raw is not None:
            try:
                values[key] = _KEYS[key].read(raw, key)
            except ConfigError as exc:
                raise ConfigError(f"argument {option}: {exc}") from None
    if args.config is not None:
        try:
            text = Path(args.config).read_text(encoding="utf-8")
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        cfg = parse_config(text)
    else:
        cfg = build_config({})
    return apply_overrides(cfg, **values)


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        cfg = _load_config(args)
        with np.errstate(all="ignore"):  # the artifact checks decide whether an overflow reached a result
            return _run(_COMMANDS[args.command], cfg)
    except ConfigError as exc:
        print(f"lamsa: configuration error: {exc}", file=sys.stderr)
        return 1
    except (LamsaError, ArithmeticError) as exc:  # an overflow, or a division by a value that underflowed to 0
        print(f"lamsa: numerical failure: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"lamsa: invalid input: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
