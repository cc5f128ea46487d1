"""List the statements of ``src/shatterlab`` that a pytest run never executes.

    python3 tools/unexecuted.py                        # tier-1: pytest's defaults
    python3 tools/unexecuted.py tests/test_dims.py -k vc

Run it from the repository root.  It runs pytest in this process under
``sys.settrace``, with the given arguments or, with none, ``-q
--continue-on-collection-errors`` over the configured test paths, then
prints, per file, each statement none of whose lines ran: its line number
and first line.  Docstrings are skipped, and so is a statement the compiler
gives no line of its own (``else:``).  A code object stops being traced once
all its lines have run, so a hot loop costs little after its first pass;
tier-1 still runs several times slower than untraced, so a test with a
time limit can fail under it.  The exit status is pytest's.  It needs only
the standard library and pytest.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "shatterlab"
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _code_lines(code):
    """The line numbers that ``code`` and the code objects nested in it
    attribute bytecode to."""
    lines = {line for _, _, line in code.co_lines() if line}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


class LineTracer:
    """Records which lines of the files under ``root`` run while it is
    entered, on every thread started meanwhile too.  ``ran()`` maps each
    traced file's name to its lines that ran."""

    def __init__(self, root):
        self.prefix = os.path.join(Path(root).resolve(), "")
        self._left = {}   # traced code object -> its lines not yet run

    def _call(self, frame, event, arg):
        code = frame.f_code
        if not code.co_filename.startswith(self.prefix):
            return None
        left = self._left.get(code)
        if left is None:
            left = self._left[code] = {line for _, _, line in code.co_lines() if line}
        return self._line if left else None

    def _line(self, frame, event, arg):
        if event != "line":
            return self._line
        left = self._left[frame.f_code]
        left.discard(frame.f_lineno)
        return self._line if left else None

    def ran(self):
        out = defaultdict(set)
        for code, left in self._left.items():
            out[code.co_filename] |= {line for _, _, line in code.co_lines() if line} - left
        return out

    def __enter__(self):
        self._previous = sys.gettrace(), threading.gettrace()
        threading.settrace(self._call)
        sys.settrace(self._call)
        return self

    def __exit__(self, *exc):
        sys.settrace(self._previous[0])
        threading.settrace(self._previous[1])


def unexecuted(source, filename, ran):
    """(line, first source line) of each statement of ``source`` that has
    bytecode of its own and none of whose lines is in ``ran``, in line
    order.  A compound statement's lines are its header's: from its first
    decorator or keyword to the line before its body."""
    tree = ast.parse(source)
    docstrings = {id(node.body[0]) for node in ast.walk(tree)
                  if isinstance(node, _DOCUMENTED)
                  and ast.get_docstring(node, clean=False) is not None}
    executable = _code_lines(compile(source, filename, "exec"))
    text = source.splitlines()
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or id(node) in docstrings:
            continue
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
        body = getattr(node, "body", None)
        last = max(first, body[0].lineno - 1) if body else node.end_lineno
        lines = executable.intersection(range(first, last + 1))
        if lines and not lines & ran:
            out.append((first, text[first - 1].strip()))
    return sorted(out)


def main(argv):
    import pytest

    sys.path.insert(0, str(PACKAGE.parent))
    with LineTracer(PACKAGE) as tracer:
        status = pytest.main(argv or ["-q", "--continue-on-collection-errors"])
    ran = tracer.ran()
    total = 0
    for path in sorted(PACKAGE.rglob("*.py")):
        missing = unexecuted(path.read_text(), str(path), ran.get(str(path), set()))
        total += len(missing)
        print(f"{path.relative_to(ROOT)}: {len(missing)} statements never ran")
        for line, first in missing:
            print(f"  {line:5d}  {first}")
    print(f"{total} statements never ran")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
