"""tools/unexecuted.py: which statements of a traced run never ran."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "unexecuted.py"
_SPEC = importlib.util.spec_from_file_location("unexecuted", _PATH)
unexecuted = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(unexecuted)

SOURCE = '''"""Module docstring."""
import functools


def used(x):
    """Function docstring."""
    if x:
        return 1
    else:
        return 2


def unused():
    total = (1 +
             2)
    return total


@functools.lru_cache
def decorated():
    return 3


class Box:
    """Class docstring."""

    def method(self):
        try:
            return 4
        finally:
            pass
'''


def test_statements_that_never_ran_are_listed_and_docstrings_are_not(tmp_path):
    path = tmp_path / "synthetic.py"
    path.write_text(SOURCE)
    spec = importlib.util.spec_from_file_location("synthetic", path)
    module = importlib.util.module_from_spec(spec)
    with unexecuted.LineTracer(tmp_path) as tracer:
        spec.loader.exec_module(module)
        assert module.used(True) == 1
        assert module.Box().method() == 4
    assert module.used(False) == 2   # after the tracer: not recorded
    ran = tracer.ran()
    assert set(ran) == {str(path)}
    assert unexecuted.unexecuted(SOURCE, str(path), ran[str(path)]) == [
        (10, "return 2"), (14, "total = (1 +"), (16, "return total"),
        (21, "return 3")]
    # nothing ran: every statement with bytecode of its own, the module's
    # imports, definitions and decorators included, and no docstring
    listed = unexecuted.unexecuted(SOURCE, str(path), set())
    assert [line for line, _ in listed] == [
        2, 5, 7, 8, 10, 13, 14, 16, 19, 21, 24, 27, 28, 29, 31]
