"""tools/code_lines.py, the counter behind the code-line figures."""

import ast
import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"


@pytest.fixture(scope="module")
def code_lines():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# eight code lines: the import, the class line, the def line, its return,
# TEXT's three lines and the assert.  The three docstrings, the comments and
# the blank lines count for nothing
MODULE = '''"""A module docstring
over two lines."""

import math   # a comment after code still leaves a code line


# a comment line
class Box:
    """A class docstring."""

    def area(self):
        """A function docstring,

        with a blank line inside it."""
        return math.pi

TEXT = """not a docstring:
each of its lines counts
"""
assert TEXT
'''


def test_counts_only_code_lines(code_lines, tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(MODULE)
    assert code_lines.code_lines(path) == 8


def test_docstring_lines_are_the_three_docstrings(code_lines):
    # lines 1-2, 9 and 12-14 of MODULE
    assert code_lines.docstring_lines(ast.parse(MODULE)) == \
        {1, 2, 9, 12, 13, 14}


def test_main_prints_each_module_and_their_sum(code_lines, tmp_path, capsys):
    (tmp_path / "a.py").write_text(MODULE)
    (tmp_path / "b.py").write_text("x = 1\n\n# note\ny = [\n    x,\n]\n")
    (tmp_path / "notes.txt").write_text("x = 1\n")
    assert code_lines.main([str(tmp_path)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [["a.py", "8"], ["b.py", "4"], ["total", "12"]]
