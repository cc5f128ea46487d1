"""tools/vc_grid.py on a two-point grid, against the trace-counting oracles."""

import importlib.util
from pathlib import Path

from oracles import brute_vc_dimension, brute_vc_shatter_function

_PATH = Path(__file__).resolve().parents[1] / "tools" / "vc_grid.py"
_SPEC = importlib.util.spec_from_file_location("vc_grid", _PATH)
vc_grid = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(vc_grid)


def test_grid_prints_d_and_pi_of_each_point(capsys):
    assert vc_grid.main(["--points", "7:24", "--powersets", "4", "--dense", ""]) == 0
    header, *lines = capsys.readouterr().out.splitlines()
    assert header.split() == ["family", "n", "|F|", "d", "d_s", "pi(d+1)", "pi_s"]
    rows = [line.split() for line in lines]
    assert [row[0] for row in rows] == ["random-7-24", "powerset-4"]
    ((_, system),) = vc_grid.families([(7, 24)], [], [])
    d = brute_vc_dimension(system)
    label, n, size, got_d, d_s, pi, pi_s = rows[0]
    assert (n, size, got_d) == ("7", "24", str(d)) and len(system) == 24
    assert pi == str(brute_vc_shatter_function(system, d + 1))
    assert float(d_s) >= 0 and float(pi_s) >= 0
    assert rows[1][1:4] == ["4", "16", "4"] and rows[1][5:] == ["-", "-"]
