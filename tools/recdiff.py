"""Compare two JSONL record files field by field.

Usage: python tools/recdiff.py A.jsonl B.jsonl

Records are paired by line. A field is a top-level key, or a dotted path
into a nested object (`summary.max`); the entries of a list pair by index
and count as one field (`trace[]`). Fields named `wall_time` are ignored at
any depth. For each field that differs in some pair of records, one line
gives how many records it moved in and its largest absolute move. A move
between a finite and a non-finite number is inf, and a field that is not a
number in both records, changed type or is missing from one of them shows
its move as "-". Two NaNs are equal.

Exit status: 0 when the files agree outside wall_time, 1 when some field
moved, 2 when a file cannot be read or the files hold different numbers of
records.
"""

from __future__ import annotations

import json
import math
import sys

IGNORED = "wall_time"


def _leaves(value, path: tuple, out: dict) -> dict:
    """Every non-container value under ``value``, keyed by its path: a tuple
    of object keys and list indices."""
    if isinstance(value, dict):
        for key, item in value.items():
            if key != IGNORED:
                _leaves(item, path + (key,), out)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            _leaves(item, path + (i,), out)
    else:
        out[path] = value
    return out


def _field_name(path: tuple) -> str:
    """The field of a leaf path: keys joined by dots, list indices as []."""
    name = ""
    for part in path:
        if isinstance(part, int):
            name += "[]"
        else:
            name += ("." if name else "") + part
    return name


def _number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _move(a, b):
    """The absolute move from a to b, None when they are equal, and nan
    when either is not a number (shown as "-")."""
    if not (_number(a) and _number(b)) or type(a) is not type(b):
        return None if type(a) is type(b) and a == b else math.nan
    if a == b or (math.isnan(a) and math.isnan(b)):
        return None
    if math.isfinite(a) and math.isfinite(b):
        return abs(b - a)
    return math.inf


def compare(records_a: list, records_b: list) -> dict:
    """field -> [records moved, largest numeric move or None] over paired
    records, for the fields that moved."""
    moved: dict = {}
    missing = object()
    for rec_a, rec_b in zip(records_a, records_b):
        leaves_a = _leaves(rec_a, (), {})
        leaves_b = _leaves(rec_b, (), {})
        largest: dict = {}
        for path in leaves_a.keys() | leaves_b.keys():
            a = leaves_a.get(path, missing)
            b = leaves_b.get(path, missing)
            step = math.nan if missing in (a, b) else _move(a, b)
            if step is None:
                continue
            name = _field_name(path)
            if math.isnan(step):
                largest.setdefault(name, None)
            else:
                largest[name] = max(step, largest.get(name) or 0.0)
        for name, step in largest.items():
            count, best = moved.get(name, (0, None))
            if step is not None:
                best = step if best is None else max(best, step)
            moved[name] = [count + 1, best]
    return moved


def _read(path: str) -> list:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.splitlines()[2], file=sys.stderr)
        return 2
    try:
        records_a, records_b = _read(argv[0]), _read(argv[1])
    except (OSError, ValueError) as exc:
        print(f"recdiff: {exc}", file=sys.stderr)
        return 2
    if len(records_a) != len(records_b):
        print(
            f"recdiff: {len(records_a)} records against {len(records_b)}",
            file=sys.stderr,
        )
        return 2
    moved = compare(records_a, records_b)
    print(f"{len(records_a)} records, {len(moved)} fields moved")
    if moved:
        print(f"{'field':<32}{'moved':>8}  largest move")
        for name in sorted(moved):
            count, best = moved[name]
            shown = "-" if best is None else f"{best:.3g}"
            print(f"{name:<32}{count:>8}  {shown}")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
