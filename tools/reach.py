"""Count the lines of ``src/lamsa`` that the documented CLI commands execute.

    python tools/reach.py [TREE]

TREE is a checkout of the repository (default: the one holding this
script).  Under the stdlib ``trace`` module the script imports
``lamsa.cli`` from ``TREE/src`` and then runs each of the eight CLI
commands once per model variant, at the sizes the README documents,
each writing into a temporary directory.  It prints, per module and in
total, how many executable lines ran out of how many there are.  A line
is executable when a compiled code object of its module starts a
statement there (``trace``'s own rule: docstrings are not), and the
import-time lines (``import``, ``def``, constants) count as run.
``__init__.py``, which only re-exports names, is left out of both
counts.  It takes about 5 s.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import sys
import tempfile
import trace
from pathlib import Path

# the documented commands; every one runs once per variant
RUNS = {
    "simulate": [],
    "equilibria": ["--fl-range=-15:0:1"],
    "classify": ["--fl-range=-15:0:1"],
    "trace": ["--fl", "-15"],
    "region-map": ["--grid", "60x40", "--fl-range=-15:0:1"],
    "quiver": ["--grid", "60x40", "--fl-range=-15:0:1"],
    "design-check": [],
    "phase-portrait": [],
}
VARIANTS = ("printed", "derived")


def main(argv: list[str]) -> int:
    src = Path(argv[0] if argv else Path(__file__).resolve().parents[1]).resolve() / "src"
    sys.path.insert(0, str(src))
    tracer = trace.Trace(count=1, trace=0)
    lamsa_main = tracer.runfunc(importlib.import_module, "lamsa.cli").main
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(io.StringIO()):
        for command, flags in RUNS.items():
            for variant in VARIANTS:
                out = Path(tmp) / f"{command}-{variant}"
                rc = tracer.runfunc(lamsa_main, [command, *flags, "--variant", variant, "--out", str(out)])
                if rc != 0:
                    raise SystemExit(f"reach: {command} --variant {variant} exited {rc}")
    ran = {(str(Path(f).resolve()), n) for f, n in tracer.results().counts}
    total_ran = total = 0
    for path in sorted(p for p in (src / "lamsa").glob("*.py") if p.name != "__init__.py"):
        lines = trace._find_executable_linenos(str(path))
        hit = sum((str(path), n) in ran for n in lines)
        print(f"{path.name:16s} {hit:5d} of {len(lines):5d}")
        total_ran, total = total_ran + hit, total + len(lines)
    print(f"{'src/lamsa':16s} {total_ran:5d} of {total:5d} executable lines ran")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
