import json
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "recdiff.py"


def _run(tmp_path, records_a, records_b):
    paths = []
    for name, records in (("a.jsonl", records_a), ("b.jsonl", records_b)):
        path = tmp_path / name
        path.write_text("".join(json.dumps(rec) + "\n" for rec in records))
        paths.append(str(path))
    proc = subprocess.run(
        [sys.executable, str(TOOL), *paths], capture_output=True, text=True
    )
    return proc.returncode, proc.stdout.splitlines()


_BASE = [
    {"n": 2, "estimate": 0.5, "trace": [[0.1, 0.2]], "summary": {"max": 1},
     "wall_time": 1.0},
    {"n": 3, "estimate": 0.25, "trace": [[0.3, 0.4]], "summary": {"max": 2},
     "wall_time": 2.0},
    {"n": 4, "estimate": float("nan"), "trace": [], "summary": {"max": 3},
     "wall_time": 3.0},
]


def test_counts_moved_records_and_the_largest_move_per_field(tmp_path):
    moved = json.loads(json.dumps(_BASE))
    moved[0]["estimate"] += 2e-16
    moved[1]["estimate"] -= 1e-3
    moved[1]["trace"][0][1] = 0.5
    moved[2]["summary"]["max"] = "three"
    moved[2]["error"] = "ValueError"
    for rec in moved:
        rec["wall_time"] *= 7
    code, out = _run(tmp_path, _BASE, moved)
    assert code == 1
    assert out[0] == "3 records, 4 fields moved"
    rows = {line.split()[0]: line.split()[1:] for line in out[2:]}
    assert rows == {
        "error": ["1", "-"],
        "estimate": ["2", "0.001"],
        "summary.max": ["1", "-"],
        "trace[][]": ["1", "0.1"],
    }


def test_wall_time_and_nan_do_not_count_as_moves(tmp_path):
    retimed = json.loads(json.dumps(_BASE))
    retimed[1]["wall_time"] = 9.0
    code, out = _run(tmp_path, _BASE, retimed)
    assert (code, out) == (0, ["3 records, 0 fields moved"])


def test_different_record_counts_exit_2(tmp_path):
    code, _ = _run(tmp_path, _BASE, _BASE[:2])
    assert code == 2
