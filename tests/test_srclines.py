import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "srclines.py"

# 19 lines; the code lines are the import, def, the two lines of the string
# assigned to s, the two of the return, class and y = 1: 8. Docstrings,
# comments and blank lines do not count.
_MODULE = '''"""Module docstring
over two lines."""

import os  # a trailing comment

# a comment line


def f(x):
    """One-line docstring."""
    s = """not a
docstring"""
    return (x +
            len(s))


class C:
    """Class docstring."""
    y = 1
'''


def test_counts_lines_and_code_lines(tmp_path):
    (tmp_path / "mod.py").write_text(_MODULE)
    out = subprocess.run(
        [sys.executable, str(TOOL), str(tmp_path)],
        capture_output=True, text=True, check=True,
    ).stdout.splitlines()
    assert out[1].split() == ["mod.py", "19", "8"]
    assert out[-1].split() == ["total", "19", "8"]
