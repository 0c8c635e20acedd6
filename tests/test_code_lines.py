"""tools/code_lines.py counts the lines that hold code, and nothing else."""

import importlib.util
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"

_spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

# Lines that count are marked "code"; every other line counts for nothing.
SOURCE = b'''"""Module docstring,
over two lines."""

# a comment

import os  # code


def f(x):  # code
    """Function docstring."""

    # another comment
    text = """first line of a string in code
second line
third line"""
    return (x,  # code
            text)  # code
'''


def test_counts_code_lines_only():
    """A docstring, a comment or a blank line counts 0; a multi-line string
    in an expression counts every line it spans."""
    assert code_lines.code_lines(SOURCE) == 7
    assert code_lines.code_lines(b"") == 0
    assert code_lines.code_lines(b'"""Only a docstring."""\n') == 0


def test_command_prints_each_file_and_the_total(tmp_path):
    one, two = tmp_path / "one.py", tmp_path / "two.py"
    one.write_bytes(SOURCE)
    two.write_bytes(b"x = 1\n")
    done = subprocess.run([sys.executable, str(TOOL), str(one), str(two)],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [f"     7  {one}", f"     1  {two}", "     8  total"]
