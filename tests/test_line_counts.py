import importlib.util
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "line_counts.py"
spec = importlib.util.spec_from_file_location("line_counts", TOOL)
line_counts = importlib.util.module_from_spec(spec)
spec.loader.exec_module(line_counts)

SOURCE = '''"""Module docstring,
over two lines."""

import os  # a trailing comment keeps its line

# a comment-only line


class A:
    """Class docstring."""

    x = (1,
         2)

    def f(self):
        """Function docstring."""
        "a later string statement is code"
        return """a string value
is code"""
'''


def test_blanks_comments_and_docstrings_are_not_code():
    # code: import, class, x = (1, 2) over two lines, def, the later string, return over two lines
    assert line_counts.count(SOURCE) == (19, 8)


def test_the_script_prints_each_module_and_the_total(tmp_path):
    (tmp_path / "b.py").write_text(SOURCE)
    (tmp_path / "a.py").write_text("x = 1\n\n")
    (tmp_path / "notes.txt").write_text("not python\n")
    done = subprocess.run([sys.executable, str(TOOL), str(tmp_path)], capture_output=True, text=True, check=True)
    assert [line.split() for line in done.stdout.splitlines()] == [
        ["a.py", "2", "1"],
        ["b.py", "19", "8"],
        ["total", "21", "9"],
    ]
