"""Deterministic CSV/JSON emission.

Floats are written with ``repr`` (shortest round-trip, up to 17
significant digits) so that two runs with the same configuration produce
byte-identical file bodies on any platform.  The manifest is the only
file carrying a timestamp and is always written last.
"""

from __future__ import annotations

import json
from datetime import datetime, timezone
from itertools import chain
from operator import attrgetter
from pathlib import Path
from typing import Iterable, Sequence

from .simulate import Trajectory

__all__ = [
    "fmt",
    "flag",
    "write_csv",
    "trajectory_rows",
    "write_trajectory",
    "write_events",
    "write_manifest",
]

TRAJECTORY_HEADER = ["t", "p", "p_dot", "l", "l_dot", "mode", "tau"]


def fmt(x: float) -> str:
    """Shortest round-trip decimal representation of a float."""
    return repr(float(x))


def write_csv(path: Path, header: Sequence[str], rows: Iterable[Sequence[str]]) -> int:
    """Write a CSV file with a fixed newline convention; returns the row count."""
    lines = [",".join(header), *map(",".join, rows), ""]  # "" ends the last row
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines))
    return len(lines) - 2


def trajectory_rows(traj: Trajectory) -> list[tuple[str, ...]]:
    """One row of strings per sample, formatted straight from the float columns.

    ``float.__repr__`` is ``fmt`` without its call: it gives a float's repr
    for float subclasses such as ``np.float64`` too.  The states are
    formatted as one flat stream that ``zip`` deals back out four cells per
    row; the mode letter is the member's ``_value_``.
    """
    r = float.__repr__
    cells = map(r, chain.from_iterable(traj.x))
    return list(zip(
        map(r, traj.t), cells, cells, cells, cells,
        map(attrgetter("_value_"), traj.mode), map(r, traj.tau),
    ))


def write_trajectory(path: Path, traj: Trajectory) -> int:
    return write_csv(path, TRAJECTORY_HEADER, trajectory_rows(traj))


def _write_json(path: Path, payload: object) -> int:
    """Write ``payload`` as indented JSON ending in a newline; one document counts one row."""
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return 1


def write_events(path: Path, traj: Trajectory) -> int:
    """Sibling JSON document listing the mode-switch events."""
    payload = [
        {
            "t": ev.t,
            "kind": ev.kind.value,
            "state": ev.state._asdict(),
        }
        for ev in traj.events
    ]
    _write_json(path, payload)
    return len(payload)


def write_manifest(
    out_dir: Path,
    config_echo: dict,
    outputs: dict[str, int],
    results: dict | None = None,
) -> Path:
    """Record config echo, tool version and per-file row counts; written last."""
    from . import __version__

    manifest = {
        "tool": "lamsa",
        "version": __version__,
        "created": datetime.now(timezone.utc).isoformat(),
        "config": config_echo,
        "outputs": outputs,
    }
    if results is not None:
        manifest["results"] = results
    path = out_dir / "manifest.json"
    _write_json(path, manifest)
    return path


def flag(b: bool) -> str:
    """Boolean CSV cell: 1/0 keeps every declared column numeric."""
    return "1" if b else "0"
