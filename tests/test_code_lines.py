"""tools/code_lines.py: which lines of a Python source count as code."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
_SPEC = importlib.util.spec_from_file_location("code_lines", _PATH)
code_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(code_lines)


@pytest.mark.parametrize("source, expected", [
    ("x = 1\n\n\ny = 2\n", 2),
    ("# a comment\nx = 1  # a trailing comment\n    # indented comment\n", 1),
    ('"""Module docstring,\n\nover three lines."""\nx = 1\n', 1),
    ('class A:\n    """Class docstring."""\n\n    y = 2\n', 2),
    ('def f():\n    """Function\n    docstring."""\n    return 1\n', 2),
    ('async def f():\n    """Docstring."""\n    return 1\n', 2),
    ('def f():\n    return 1\n\n\nclass A:\n    def g(self):\n        """Doc."""\n', 4),
], ids=["blank", "comments", "module-docstring", "class-docstring",
        "function-docstring", "async-docstring", "nested-docstring"])
def test_blank_comment_and_docstring_lines_do_not_count(source, expected):
    assert code_lines.code_lines(source) == expected


@pytest.mark.parametrize("source, expected", [
    ('x = 1\nTEXT = """one\ntwo\nthree"""\n', 4),
    ('def f():\n    x = 1\n    """Not the first statement."""\n', 3),
    ("total = (1 +\n         2 +\n         3)\n", 3),
    ("total = 1 + \\\n    2\n", 2),
    ("items = [\n    1,\n\n    # a comment\n    2,\n]\n", 4),
], ids=["string-value", "string-statement", "bracketed", "backslash", "bracket-gaps"])
def test_strings_that_are_not_docstrings_and_continued_lines_count(source, expected):
    assert code_lines.code_lines(source) == expected
