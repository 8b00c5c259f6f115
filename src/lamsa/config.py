"""Run configuration: flat key-value config files plus CLI overrides.

The config format is one ``key = value`` pair per line, ``#`` comments.
``_KEYS`` lists every key, in manifest order, with the field it sets: a
field of :class:`~lamsa.model.SystemParams`, of
:class:`~lamsa.simulate.IntegratorConfig` or of :class:`RunConfig`
(``fl``, ``fl_range`` and ``out_dir`` set ``F_L``, ``F_L_range`` and
``output_dir``); the CLI's override flags set keys too.  Every omitted
key keeps its field's default; in particular the default physical
parameters are the reference set m=1, M=5, R=5, k=1, p0=10 used
throughout the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, NamedTuple

from .errors import ConfigError
from .model import ModelVariant, SystemParams, SystemState
from .simulate import IntegratorConfig

__all__ = ["FLRange", "RunConfig", "parse_config", "sweep_values"]

# most sweep values, raster nodes, trajectory or trace samples one run may ask for
_MAX_ITEMS = 10**6


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
        if not math.isfinite((self.stop - self.start) / self.step):
            raise ConfigError(
                f"fl_range step count (stop - start)/step must be finite, got {self.start}:{self.stop}:{self.step}"
            )
        if (self.stop - self.start) / self.step > _MAX_ITEMS - 1:  # else sweep_values gives <= _MAX_ITEMS
            raise ConfigError(f"fl_range has more than {_MAX_ITEMS} values: {self.start}:{self.stop}:{self.step}")


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
        # SystemParams and IntegratorConfig check their own values
        _require_finite(
            {
                "fl": self.F_L, "t_end": self.t_end, "v_max": self.v_max,
                **{f"x0 {name}": v for name, v in zip(SystemState._fields, self.x0)},
            }
        )
        if self.grid[0] < 2 or self.grid[1] < 2:
            raise ConfigError(f"grid dimensions must be >= 2, got {self.grid}")
        if self.grid[0] * self.grid[1] > _MAX_ITEMS:
            raise ConfigError(f"grid has {self.grid[0] * self.grid[1]} nodes, more than {_MAX_ITEMS}")
        if self.t_end < 0.0:
            raise ConfigError("t_end must be non-negative")
        ratio = self.t_end / self.integrator.max_step  # a trajectory holds up to ceil(ratio) + 1 samples
        if ratio > _MAX_ITEMS - 1:
            raise ConfigError(f"t_end / max_step = {ratio:.6g} gives more than {_MAX_ITEMS} samples")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        if self.v_max <= 0.0:
            raise ConfigError("v_max must be positive")

    def echo(self) -> dict:
        """Flat, JSON-ready view of the configuration (for the manifest), one entry per config key."""
        return {
            key: spec.show(getattr(getattr(self, spec.holder) if spec.holder else self, spec.field))
            for key, spec in _KEYS.items()
        }


_BOOL_WORDS = {"true": True, "on": True, "1": True, "yes": True,
               "false": False, "off": False, "0": False, "no": False}


def _scalar(kind: Callable[[str], object], expects: str) -> Callable[[str, str], object]:
    """Reader of a one-word value: ``kind(text)``, or a ConfigError naming the key."""

    def read(raw: str, key: str) -> object:
        try:
            return kind(raw)
        except (ValueError, KeyError):
            raise ConfigError(f"key '{key}' expects {expects}, got '{raw}'") from None

    return read


_number = _scalar(float, "a number")
_integer = _scalar(int, "an integer")
_flag = _scalar(lambda raw: _BOOL_WORDS[raw.lower()], "true/false")
_variant = _scalar(ModelVariant, " or ".join(f"'{v.value}'" for v in ModelVariant))


def _state(raw: str, key: str) -> SystemState:
    parts = [p.strip() for p in raw.split(",")]
    if len(parts) != 4:
        raise ConfigError(f"{key} expects 'p,p_dot,l,l_dot', got '{raw}'")
    return SystemState(*(_number(p, key) for p in parts))


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


def _same(value: object) -> object:
    return value


class _Key(NamedTuple):
    """Where one config key's value lives, how its text is read and how the manifest shows it."""

    holder: str  # "params", "integrator", or "" for a field of RunConfig itself
    field: str
    read: Callable[[str, str], object]  # (text, key) -> value; raises ConfigError
    show: Callable[[object], object] = _same


_KEYS: dict[str, _Key] = {
    "m": _Key("params", "m", _number),
    "M": _Key("params", "M", _number),
    "R": _Key("params", "R", _number),
    "k": _Key("params", "k", _number),
    "p0": _Key("params", "p0", _number),
    "variant": _Key("params", "variant", _variant, lambda v: v.value),
    "rel_tol": _Key("integrator", "rel_tol", _number),
    "abs_tol": _Key("integrator", "abs_tol", _number),
    "max_step": _Key("integrator", "max_step", _number),
    "event_time_tol": _Key("integrator", "event_time_tol", _number),
    "fl": _Key("", "F_L", _number),
    "fl_range": _Key("", "F_L_range", lambda raw, key: parse_fl_range(raw), lambda r: f"{r.start}:{r.stop}:{r.step}"),
    "grid": _Key("", "grid", lambda raw, key: parse_grid(raw), lambda g: f"{g[0]}x{g[1]}"),
    "out_dir": _Key("", "output_dir", lambda raw, key: Path(raw), str),
    "seed": _Key("", "seed", _integer),
    "t_end": _Key("", "t_end", _number),
    "x0": _Key("", "x0", _state, list),
    "v_max": _Key("", "v_max", _number),
    "jitter": _Key("", "jitter", _flag),
}


def parse_config(text: str) -> RunConfig:
    """Build a RunConfig from a flat key-value document.

    Raises ConfigError with a line diagnostic for malformed lines, unknown
    or duplicate keys and values that do not read as their key's type, and
    with the violated invariant, naming the key, for values out of range
    or inconsistent with another key (for example p0 <= R).
    """
    values: dict[str, object] = {}
    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        key, eq, raw = (part.strip() for part in line.partition("="))
        try:
            if not eq:
                raise ConfigError(f"expected 'key = value', got '{raw_line.strip()}'")
            if key in values:
                raise ConfigError(f"duplicate key '{key}'")
            if key not in _KEYS:
                raise ConfigError(f"unknown key '{key}'")
            values[key] = _KEYS[key].read(raw, key)
        except ConfigError as exc:
            raise ConfigError(f"line {line_no}: {exc}") from None
    return build_config(values)


def build_config(values: dict[str, object]) -> RunConfig:
    """Assemble a RunConfig from a partial key dict; omitted keys keep their field defaults."""
    return apply_overrides(RunConfig(), **values)


def apply_overrides(cfg: RunConfig, **values: object) -> RunConfig:
    """Return a copy of ``cfg`` with the given config keys set (``fl=-5.0``, ``out_dir=...``).

    Each key is routed to its ``_KEYS`` field.  A number given for a float
    key is stored as a float, as a config file would give it.
    """
    by_holder: dict[str, dict[str, object]] = {"params": {}, "integrator": {}, "": {}}
    for key, value in values.items():
        spec = _KEYS[key]
        by_holder[spec.holder][spec.field] = float(value) if spec.read is _number else value
    try:
        params = replace(cfg.params, **by_holder["params"])
        integrator = replace(cfg.integrator, **by_holder["integrator"])
    except ValueError as exc:
        raise ConfigError(f"invalid configuration: {exc}") from exc
    return replace(cfg, params=params, integrator=integrator, **by_holder[""])
