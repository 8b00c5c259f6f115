"""Run configuration: flat key-value config files plus CLI overrides.

The config format is one ``key = value`` pair per line, ``#`` comments,
keys mirroring :class:`RunConfig`.  Every omitted key takes the
documented default; in particular the default physical parameters are the
reference set m=1, M=5, R=5, k=1, p0=10 used throughout the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from pathlib import Path

from .errors import ConfigError
from .model import ModelVariant, SystemParams, SystemState
from .simulate import IntegratorConfig

__all__ = ["FLRange", "RunConfig", "parse_config", "sweep_values"]


def _require_finite(values: dict[str, float]) -> None:
    """Raise ConfigError naming the first value that is nan or infinite."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise ConfigError(f"{name} must be finite, got {value}")


@dataclass(frozen=True)
class FLRange:
    """Inclusive latch-force sweep ``start : stop : step`` (step > 0)."""

    start: float = -15.0
    stop: float = 0.0
    step: float = 1.0

    def __post_init__(self) -> None:
        _require_finite({"fl_range start": self.start, "fl_range stop": self.stop, "fl_range step": self.step})
        if self.step <= 0.0:
            raise ConfigError(f"fl_range step must be positive, got {self.step}")
        if self.stop < self.start:
            raise ConfigError(
                f"fl_range is empty: start={self.start} > stop={self.stop}"
            )


def sweep_values(r: FLRange) -> list[float]:
    """Materialize a range; the endpoint is included when it lands on the grid."""
    n = int(round((r.stop - r.start) / r.step))
    if abs(r.start + n * r.step - r.stop) > 1e-9 * max(1.0, abs(r.stop)):
        n = int((r.stop - r.start) / r.step)
    values = [r.start + i * r.step for i in range(n + 1)]
    if abs(values[-1] - r.stop) <= 1e-9 * max(1.0, abs(r.stop)):
        values[-1] = r.stop
    return values


@dataclass(frozen=True)
class RunConfig:
    params: SystemParams = field(default_factory=SystemParams)
    integrator: IntegratorConfig = field(default_factory=IntegratorConfig)
    F_L: float = -15.0
    F_L_range: FLRange = field(default_factory=FLRange)
    grid: tuple[int, int] = (20, 20)
    output_dir: Path = Path("out")
    seed: int = 0
    t_end: float = 10.0
    x0: SystemState = field(default_factory=lambda: SystemState(1.0, 0.0, 3.0, 0.0))
    v_max: float = 10.0
    jitter: bool = False

    def __post_init__(self) -> None:
        p, ic = self.params, self.integrator
        _require_finite(
            {
                "m": p.m, "M": p.M, "R": p.R, "k": p.k, "p0": p.p0,
                "rel_tol": ic.rel_tol, "abs_tol": ic.abs_tol, "max_step": ic.max_step,
                "event_time_tol": ic.event_time_tol,
                "fl": self.F_L, "t_end": self.t_end, "v_max": self.v_max,
                **{f"x0 {name}": v for name, v in zip(SystemState._fields, self.x0)},
            }
        )
        if self.grid[0] < 2 or self.grid[1] < 2:
            raise ConfigError(f"grid dimensions must be >= 2, got {self.grid}")
        if self.t_end < 0.0:
            raise ConfigError("t_end must be non-negative")
        if self.v_max <= 0.0:
            raise ConfigError("v_max must be positive")

    def echo(self) -> dict:
        """Flat, JSON-ready view of the configuration (for the manifest)."""
        return {
            "m": self.params.m,
            "M": self.params.M,
            "R": self.params.R,
            "k": self.params.k,
            "p0": self.params.p0,
            "variant": self.params.variant.value,
            "rel_tol": self.integrator.rel_tol,
            "abs_tol": self.integrator.abs_tol,
            "max_step": self.integrator.max_step,
            "event_time_tol": self.integrator.event_time_tol,
            "constraint_projection": self.integrator.constraint_projection,
            "fl": self.F_L,
            "fl_range": f"{self.F_L_range.start}:{self.F_L_range.stop}:{self.F_L_range.step}",
            "grid": f"{self.grid[0]}x{self.grid[1]}",
            "out_dir": str(self.output_dir),
            "seed": self.seed,
            "t_end": self.t_end,
            "x0": [self.x0.p, self.x0.p_dot, self.x0.l, self.x0.l_dot],
            "v_max": self.v_max,
            "jitter": self.jitter,
        }


_BOOL_WORDS = {"true": True, "on": True, "1": True, "yes": True,
               "false": False, "off": False, "0": False, "no": False}

_VARIANTS = {"printed": ModelVariant.AS_PRINTED, "derived": ModelVariant.CONSTRAINT_CONSISTENT}


def _parse_float(raw: str, key: str, line_no: int) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"line {line_no}: key '{key}' expects a number, got '{raw}'") from None


def _parse_bool(raw: str, key: str, line_no: int) -> bool:
    try:
        return _BOOL_WORDS[raw.strip().lower()]
    except KeyError:
        raise ConfigError(f"line {line_no}: key '{key}' expects true/false, got '{raw}'") from None


def parse_fl_range(raw: str) -> FLRange:
    parts = raw.split(":")
    if len(parts) != 3:
        raise ConfigError(f"fl_range expects 'start:stop:step', got '{raw}'")
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError:
        raise ConfigError(f"fl_range has a non-numeric part: '{raw}'") from None
    return FLRange(start, stop, step)


def parse_grid(raw: str) -> tuple[int, int]:
    parts = raw.lower().split("x")
    if len(parts) != 2:
        raise ConfigError(f"grid expects 'NxM', got '{raw}'")
    try:
        n, m = int(parts[0]), int(parts[1])
    except ValueError:
        raise ConfigError(f"grid has a non-integer part: '{raw}'") from None
    return n, m


def parse_config(text: str) -> RunConfig:
    """Build a RunConfig from a flat key-value document.

    Raises ConfigError with a line diagnostic for malformed lines or
    unknown keys, and with the violated invariant for bad values (for
    example p0 <= R).
    """
    values: dict[str, object] = {}
    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {line_no}: expected 'key = value', got '{raw_line.strip()}'")
        key, _, raw = line.partition("=")
        key = key.strip()
        raw = raw.strip()
        if key in values:
            raise ConfigError(f"line {line_no}: duplicate key '{key}'")

        if key in ("m", "M", "R", "k", "p0", "rel_tol", "abs_tol", "max_step",
                   "event_time_tol", "fl", "t_end", "v_max"):
            values[key] = _parse_float(raw, key, line_no)
        elif key == "variant":
            if raw not in _VARIANTS:
                raise ConfigError(
                    f"line {line_no}: variant must be 'printed' or 'derived', got '{raw}'"
                )
            values[key] = _VARIANTS[raw]
        elif key in ("constraint_projection", "jitter"):
            values[key] = _parse_bool(raw, key, line_no)
        elif key == "fl_range":
            values[key] = parse_fl_range(raw)
        elif key == "grid":
            values[key] = parse_grid(raw)
        elif key == "out_dir":
            values[key] = Path(raw)
        elif key == "seed":
            try:
                values[key] = int(raw)
            except ValueError:
                raise ConfigError(f"line {line_no}: seed expects an integer, got '{raw}'") from None
        elif key == "x0":
            parts = [p.strip() for p in raw.split(",")]
            if len(parts) != 4:
                raise ConfigError(f"line {line_no}: x0 expects 'p,p_dot,l,l_dot', got '{raw}'")
            values[key] = SystemState(*(_parse_float(p, "x0", line_no) for p in parts))
        else:
            raise ConfigError(f"line {line_no}: unknown key '{key}'")

    return build_config(values)


def build_config(values: dict[str, object]) -> RunConfig:
    """Assemble a RunConfig from a partial key dict, applying defaults."""
    try:
        params = SystemParams(
            m=float(values.get("m", 1.0)),
            M=float(values.get("M", 5.0)),
            R=float(values.get("R", 5.0)),
            k=float(values.get("k", 1.0)),
            p0=float(values.get("p0", 10.0)),
            variant=values.get("variant", ModelVariant.AS_PRINTED),
        )
        integrator = IntegratorConfig(
            rel_tol=float(values.get("rel_tol", 1e-8)),
            abs_tol=float(values.get("abs_tol", 1e-10)),
            max_step=float(values.get("max_step", 1e-2)),
            event_time_tol=float(values.get("event_time_tol", 1e-10)),
            constraint_projection=bool(values.get("constraint_projection", True)),
        )
    except ValueError as exc:
        raise ConfigError(f"invalid configuration: {exc}") from exc

    return RunConfig(
        params=params,
        integrator=integrator,
        F_L=float(values.get("fl", -15.0)),
        F_L_range=values.get("fl_range", FLRange()),
        grid=values.get("grid", (20, 20)),
        output_dir=Path(values.get("out_dir", Path("out"))),
        seed=int(values.get("seed", 0)),
        t_end=float(values.get("t_end", 10.0)),
        x0=values.get("x0", SystemState(1.0, 0.0, 3.0, 0.0)),
        v_max=float(values.get("v_max", 10.0)),
        jitter=bool(values.get("jitter", False)),
    )


def apply_overrides(cfg: RunConfig, **overrides: object) -> RunConfig:
    """Return a copy of ``cfg`` with non-None override values applied."""
    out = cfg
    if overrides.get("variant") is not None:
        out = replace(out, params=replace(out.params, variant=overrides["variant"]))
    simple = {
        name: overrides[name]
        for name in ("F_L", "F_L_range", "grid", "output_dir", "seed", "t_end")
        if overrides.get(name) is not None
    }
    if simple:
        out = replace(out, **simple)
    return out
