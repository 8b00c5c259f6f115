"""Compare the artifacts that two source trees write for one fixed set of runs.

    python tools/artifact_diff.py OLD_TREE NEW_TREE

Each tree is a checkout of the repository (``src/lamsa`` and
``perfbench/`` under it).  For each tree a fresh Python process, with
that tree's ``src`` first on ``sys.path``, writes every run of ``RUNS``,
every run of ``FAR_PAIR_RUNS`` with p0 = ``FAR_PAIR_P0`` (its config
file written beside the benchmark's inputs) and three of the
benchmark's runs for both model variants, and records the outcomes of
the benchmark's ``release`` design (its starts read from the tree's
``perfbench/workloads.py``) at each seed of ``RELEASE_SEEDS``.  The two
trees' files are then compared body by body.  A manifest is compared
without its ``created`` stamp and its output-directory echo.

The tool prints each differing file with the number of its differing
cells and the largest absolute and relative difference between them,
the columns that exist on one side only and the number of rows that
exist on one side only, then one line per run directory with its
differing and total file counts and the columns in which cells differ
or exist on one side only, and last a total line.  A cell is one CSV
field, whose column is its header's and whose row is its line, or one
JSON leaf, whose column is its key path; a cell that is not a number
counts as differing when its text differs.  The exit status is 1 when any body
differs or a file exists in one tree only, and 0 otherwise.  The tool
needs numpy only (through lamsa).
"""

from __future__ import annotations

import csv
import json
import math
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_SEED = 8675309
RELEASE_SEEDS = (8675309, 1, 2, 3)
SWEEP = "--fl-range=-15:0:0.05"

# run name -> CLI arguments; the benchmark's jittered portrait and its
# 60x40 region-map and quiver at BENCH_SEED are added per tree
RUNS = {
    "simulate_fl-5": ["simulate", "--fl", "-5"],
    "simulate_fl-1_t30": ["simulate", "--fl", "-1", "--t-end", "30"],
    **{f"portrait_fl{fl}": ["phase-portrait", "--fl", fl] for fl in ("-15", "-5", "-1")},
    "equilibria": ["equilibria", SWEEP],
    "classify": ["classify", SWEEP],
    "trace_fl-15": ["trace", "--fl", "-15"],
    "trace_fl-3.3": ["trace", "--fl", "-3.3"],
    "design-check": ["design-check"],
    # the sweep endpoint snapped within a share of the step, and a trace from just below F_L = 0
    "equilibria_small_range": ["equilibria", "--fl-range=-1.2e-9:0:5e-10"],
    "equilibria_large_range": ["equilibria", "--fl-range=-1e306:0:1e305"],
    "trace_fl-5e-15": ["trace", "--fl=-5e-15"],
    # rasters whose range crosses F_L = 0, where the forces are clipped
    "region-map_cross_zero": ["region-map", "--fl-range=-2:1:0.5", "--grid", "5x4"],
    "quiver_cross_zero": ["quiver", "--fl-range=-2:1:0.5", "--grid", "5x4"],
}
# run name -> CLI arguments, each run with p0 = FAR_PAIR_P0 < 2R: its sweeps
# cross the far pair's birth, so classify writes NonSaddle rows too
FAR_PAIR_P0 = 6.0
FAR_PAIR_RUNS = {
    "far_equilibria": ["equilibria", "--fl-range=-2:0:0.05"],
    "far_classify": ["classify", "--fl-range=-2:0:0.05"],
    "far_trace_fl-1": ["trace", "--fl", "-1"],
    "far_portrait_fl-1": ["phase-portrait", "--fl", "-1"],
    "far_design-check": ["design-check"],
}
VARIANTS = ("printed", "derived")


def write_tree_artifacts(tree: Path, out: Path) -> None:
    """Write every run and the release outcomes of ``tree`` under ``out`` (in this process)."""
    sys.path[:0] = [str(tree / "src"), str(tree / "perfbench")]
    import lamsa.cli
    import workloads

    work = out / "_inputs"
    work.mkdir(parents=True)
    runs = dict(RUNS)
    runs["portrait_bench"] = ["phase-portrait", "--config", str(workloads.Portrait(BENCH_SEED, False, work).config)]
    for argv in workloads.Analysis(BENCH_SEED, False, work).commands:
        if argv[0] in ("region-map", "quiver"):
            runs[f"{argv[0]}_bench"] = argv
    far = work / "far_pair.cfg"
    far.write_text(f"p0 = {FAR_PAIR_P0!r}\n", encoding="utf-8")
    runs.update({name: [*argv, "--config", str(far)] for name, argv in FAR_PAIR_RUNS.items()})
    for name, argv in runs.items():
        for variant in VARIANTS:
            rc = lamsa.cli.main([*argv, "--variant", variant, "--out", str(out / name / variant)])
            if rc != 0:
                raise SystemExit(f"{tree}: {name} ({variant}) exited with {rc}")

    for seed in RELEASE_SEEDS:
        design = workloads.Release(seed, False, work)
        rows = [["variant", "F_L", "kind", "t_event", "t_final", "p_final", "p_dot_final"]]
        for variant, F_L, x0 in design.starts:
            traj = lamsa.simulate(design.params[variant], x0, F_L, design.t_end)
            ev = traj.events[0] if traj.events else None
            final = traj.final
            rows.append([variant, repr(F_L), ev.kind.value if ev else "", repr(ev.t) if ev else "",
                         repr(final.t), repr(final.state.p), repr(final.state.p_dot)])
        with open(out / f"release_seed{seed}.csv", "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh, lineterminator="\n").writerows(rows)


def _cells(path: Path) -> dict[tuple[int, str], str]:
    """The file's cells as {(row, column): text}.

    A CSV's rows are its lines, the header row 0, and a field past the
    header is column ``#j``.  A JSON file is one row of leaves keyed by
    their path (a manifest without its stamp and output dir).
    """
    if path.suffix == ".csv":
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        header = rows[0] if rows else []
        return {
            (i, col): text
            for i, row in enumerate(rows)
            for col, text in zip(header + [f"#{j}" for j in range(len(header), len(row))], row)
        }
    data = json.loads(path.read_text(encoding="utf-8"))
    if path.name == "manifest.json":
        data.pop("created", None)
        data.get("config", {}).pop("out_dir", None)
    leaves: dict[tuple[int, str], str] = {}

    def walk(node: object, key: str) -> None:
        if isinstance(node, dict):
            for k, v in node.items():
                walk(v, f"{key}.{k}")
        elif isinstance(node, list):
            for i, v in enumerate(node):
                walk(v, f"{key}[{i}]")
        else:
            leaves[0, key] = json.dumps(node)

    walk(data, "")
    return leaves


def _number(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:
        return None


def compare(old: Path, new: Path) -> tuple[str | None, set[str]]:
    """(None when the bodies are equal, else a one-line account of the differences; their columns).

    Cells at the same (row, column) on both sides are compared.  A cell
    on one side only is named by its column when its row exists on both
    sides, and is counted as part of a row on one side only otherwise.
    """
    a, b = _cells(old), _cells(new)
    n = text = 0
    columns: set[str] = set()
    worst_abs = worst_rel = 0.0
    for key, x in a.items():
        if key not in b or b[key] == x:
            continue
        y = b[key]
        n += 1
        columns.add(key[1])
        u, v = _number(x), _number(y)
        if u is None or v is None or not (math.isfinite(u) and math.isfinite(v)):
            text += 1
            continue
        worst_abs = max(worst_abs, abs(u - v))
        worst_rel = max(worst_rel, abs(u - v) / max(abs(u), abs(v)))
    parts = []
    if n:
        note = f", {text} not numbers" if text else ""
        parts.append(f"{n} cells differ{note} in {', '.join(sorted(columns))}; "
                     f"max abs {worst_abs:.3g}, max rel {worst_rel:.3g}")
    for side, mine, other in (("old", a, b), ("new", b, a)):
        rows = {i for i, _ in other}
        alone = [key for key in mine if key not in other]
        named = sorted({col for i, col in alone if i in rows})
        extra_rows = len({i for i, _ in alone if i not in rows})
        if named:
            columns.update(named)
            parts.append(f"only in {side}: {', '.join(named)}")
        if extra_rows:
            parts.append(f"rows only in {side}: {extra_rows}")
    return ("; ".join(parts) or None), columns


def main(argv: list[str]) -> int:
    if len(argv) == 3 and argv[0] == "--write":  # the per-tree child process
        write_tree_artifacts(Path(argv[1]).resolve(), Path(argv[2]))
        return 0
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    trees = [Path(t).resolve() for t in argv]
    with tempfile.TemporaryDirectory(prefix="artifact_diff_") as tmp:
        outs = [Path(tmp) / side for side in ("old", "new")]
        for tree, out in zip(trees, outs):
            subprocess.run([sys.executable, __file__, "--write", str(tree), str(out)], check=True)
        files = [{p.relative_to(out) for p in out.rglob("*") if p.is_file() and p.parts[-2] != "_inputs"}
                 for out in outs]
        runs: dict[Path, list] = {}  # run directory -> [differing files, files, differing columns]
        for rel in sorted(files[0] | files[1]):
            run = runs.setdefault(rel.parent, [0, 0, set()])
            run[1] += 1
            if rel not in files[0] or rel not in files[1]:
                verdict, columns = f"only in {'new' if rel in files[1] else 'old'}", set()
            else:
                verdict, columns = compare(outs[0] / rel, outs[1] / rel)
            if verdict is not None:
                print(f"{rel}: {verdict}")
                run[0] += 1
                run[2] |= columns
        for run, (n_diff, n_files, columns) in runs.items():
            cols = f"; columns {', '.join(sorted(columns))}" if columns else ""
            print(f"{run}/: {n_diff} of {n_files} files differ{cols}")
        n_diff = sum(d for d, _, _ in runs.values())
        print(f"total: {n_diff} of {sum(n for _, n, _ in runs.values())} files differ")
    return 1 if n_diff else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
