from __future__ import annotations

import importlib.util
import json
from pathlib import Path

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "artifact_diff.py"
_spec = importlib.util.spec_from_file_location("artifact_diff", _TOOL)
artifact_diff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(artifact_diff)


def _write(path: Path, text: str) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")
    return path


def _manifest(path: Path, created: str, **config: object) -> Path:
    body = {"tool": "lamsa", "created": created, "config": {"out_dir": str(path.parent), **config}}
    return _write(path, json.dumps(body))


def test_compare_names_a_config_key_on_one_side_only(tmp_path):
    # the stamp and the output dir are not compared; the key the new
    # tree no longer echoes is named by its path
    old = _manifest(tmp_path / "old" / "manifest.json", "t0", rel_tol=1e-8, event_time_tol=1e-10)
    new = _manifest(tmp_path / "new" / "manifest.json", "t1", rel_tol=1e-8)
    assert artifact_diff.compare(old, new) == ("only in old: .config.event_time_tol", {".config.event_time_tol"})
    assert artifact_diff.compare(new, new) == (None, set())


def test_compare_names_the_columns_that_differ_beside_a_row_more(tmp_path):
    old = _write(tmp_path / "old.csv", "F_L,p_star,in_S\n-2,1.0,1\n-1,0.5,1\n0,0.0,1\n")
    new = _write(tmp_path / "new.csv", "F_L,p_star,in_S\n-2,1.0,1\n-1.5,0.75,1\n-0.5,0.25,1\n0,0.0,1\n")
    verdict, columns = artifact_diff.compare(old, new)
    assert columns == {"F_L", "p_star"}
    assert verdict == "4 cells differ in F_L, p_star; max abs 0.5, max rel 1; rows only in new: 1"


def test_compare_names_a_column_on_one_side_only(tmp_path):
    old = _write(tmp_path / "old.csv", "F_L,p_star\n-1,0.5\n")
    new = _write(tmp_path / "new.csv", "F_L,p_star,in_S\n-1,0.5,1\n")
    assert artifact_diff.compare(old, new) == ("only in new: in_S", {"in_S"})
