"""End-to-end CLI behavior: output shape, exit codes, and determinism."""

import json

import pytest

from shatterlab.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_json(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def test_sys_dim_shorthand(capsys):
    code, out, _ = run(capsys, "sys", "dim", "--kind", "vc", "powerset:3")
    assert code == 0
    assert json.loads(out) == {"kind": "vc", "dimension": "3"}
    code, out, _ = run(capsys, "sys", "dim", "--kind", "op", "--s", "2",
                       "powerset:4")
    assert json.loads(out) == {"kind": "op", "dimension": "2"}


def test_sys_dim_from_file(capsys, tmp_path):
    path = write_json(tmp_path, "sys.json",
                      {"universe": 3, "sets": ["100", "110", "111"]})
    code, out, _ = run(capsys, "sys", "dim", "--kind", "thicket", path)
    assert code == 0
    assert json.loads(out)["dimension"] == "1"


def test_sys_shatter(capsys):
    code, out, _ = run(capsys, "sys", "shatter", "--kind", "thicket",
                       "--n", "2", "thresholds:3")
    assert code == 0
    assert json.loads(out) == {"kind": "thicket", "n": 2, "value": 4}


def test_sys_audit_pass_and_csv(capsys):
    code, out, _ = run(capsys, "sys", "audit", "--s", "2", "--r", "1",
                       "--n", "4", "thresholds:4")
    assert code == 0
    assert all(row["pass"] for row in json.loads(out))
    code, out, _ = run(capsys, "sys", "audit", "--s", "1", "--r", "1",
                       "--n", "3", "--format", "csv", "powerset:3")
    assert code == 0
    assert out.splitlines()[0] == "bound,params,lhs,rhs,pass"


def test_ban_solve_and_hereditary(capsys, tmp_path):
    path = write_json(tmp_path, "parity.json", {"generator": "parity", "n": 4})
    code, out, _ = run(capsys, "ban", "solve", path)
    assert code == 0
    payload = json.loads(out)
    assert payload["solutions"] == 8
    assert payload["banned"] == 8
    code, out, _ = run(capsys, "ban", "solve", "--list", "--format", "csv", path)
    lines = out.splitlines()
    assert lines[0] == "sequence" and len(lines) == 9
    code, out, _ = run(capsys, "ban", "hereditary", path)
    assert code == 0
    payload = json.loads(out)
    assert payload["hereditary"] is False
    assert payload["witness"]["S"] == [0]


def test_ban_solve_explicit_table(capsys, tmp_path):
    data = {"n": 2, "k": 1, "j": 2,
            "bans": [{"S": [0], "X": "0", "banned": ["1"]},
                     {"S": [0], "X": "1", "banned": ["1"]},
                     {"S": [1], "X": "0", "banned": ["1"]},
                     {"S": [1], "X": "1", "banned": ["1"]}]}
    path = write_json(tmp_path, "p.json", data)
    code, out, _ = run(capsys, "ban", "solve", "--list", path)
    assert code == 0
    assert json.loads(out)["sequences"] == ["00"]


@pytest.mark.parametrize("entry", [
    {"X": "0", "banned": ["1"]},
    {"S": [0], "banned": ["1"]},
    {"S": [0], "X": "0"},
    {"S": [0], "X": "a", "banned": ["1"]},
    {"S": [0], "X": "0", "banned": ["x"]},
    {"S": ["zero"], "X": "0", "banned": ["1"]},
])
def test_ban_solve_malformed_entry(capsys, tmp_path, entry):
    data = {"n": 2, "k": 1, "j": 2,
            "bans": [entry,
                     {"S": [0], "X": "1", "banned": ["1"]},
                     {"S": [1], "X": "0", "banned": ["1"]},
                     {"S": [1], "X": "1", "banned": ["1"]}]}
    path = write_json(tmp_path, "p.json", data)
    code, _, err = run(capsys, "ban", "solve", path)
    assert code == 2 and "input error" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("data", [
    {"generator": "random", "k": 2},
    {"generator": "parity"},
    {"generator": "parity", "n": "x"},
    {"generator": "random", "n": "x", "k": 2},
    {"generator": "from_vc", "m": 2},
    {"generator": "from_vc",
     "system": {"universe": 3, "sets": ["100", "110"]}},
    {"generator": "from_vc", "system": 5, "m": 2},
    ["generator"],
    5,
])
def test_ban_shorthand_missing_or_bad_field(capsys, tmp_path, data):
    path = write_json(tmp_path, "gen.json", data)
    code, _, err = run(capsys, "ban", "solve", path)
    assert code == 2 and "input error" in err
    assert "Traceback" not in err


def test_ban_reduce(capsys, tmp_path):
    path = write_json(tmp_path, "rand.json",
                      {"generator": "random", "n": 4, "k": 2, "seed": 8})
    code, out, _ = run(capsys, "ban", "reduce", "--which", "hat", path)
    assert code == 0
    payload = json.loads(out)
    assert (payload["n"], payload["k"]) == (3, 1)
    code, out, _ = run(capsys, "ban", "reduce", "--which", "prime", path)
    assert json.loads(out)["k"] == 2


def test_ban_maxsol(capsys):
    code, out, _ = run(capsys, "ban", "maxsol", "--n", "4", "--k", "2")
    assert code == 0
    assert json.loads(out) == {"n": 4, "k": 2, "min_hitting": 5,
                               "max_solutions": 11}


def test_ban_gen_deterministic(capsys):
    code, first, _ = run(capsys, "ban", "gen", "--generator", "random",
                         "--n", "3", "--k", "1", "--seed", "5")
    code2, second, _ = run(capsys, "ban", "gen", "--generator", "random",
                           "--n", "3", "--k", "1", "--seed", "5")
    assert code == code2 == 0
    assert first == second


def test_graph_commands(capsys, tmp_path):
    graph = {"vertices": 6,
             "edges": [[0, 1], [1, 2], [2, 3], [3, 4], [4, 5], [0, 5]]}
    path = write_json(tmp_path, "g.json", graph)
    code, out, _ = run(capsys, "graph", "typetree", path)
    assert code == 0
    labels = json.loads(out)
    assert sorted(labels.values()) == list(range(6))
    code, out, _ = run(capsys, "graph", "treerank", path)
    assert code == 0
    assert json.loads(out)["exact"] is True
    code, out, _ = run(capsys, "graph", "extract", path)
    assert code == 0
    payload = json.loads(out)
    assert payload["clique"] and payload["independent"]
    code, out, _ = run(capsys, "graph", "heightcheck", path)
    assert code == 0
    code, out, _ = run(capsys, "graph", "typetree", "--shuffle",
                       "--seed", "3", path)
    assert code == 0


def test_mc_weaklaw(capsys):
    code, out, _ = run(capsys, "mc", "weaklaw", "--uniform", "4",
                       "--set", "0,1", "--n", "40", "--epsilon", "1/4",
                       "--trials", "100", "--seed", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] is True
    assert payload["config"]["mu"] == "1/2"


def test_mc_weaklaw_csv(capsys):
    code, out, _ = run(capsys, "mc", "weaklaw", "--uniform", "4",
                       "--set", "0", "--n", "10", "--epsilon", "0.3",
                       "--trials", "20", "--seed", "2", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "trial,n,epsilon,deviation,exceeded"
    assert len(lines) == 21


def test_mc_vcthm(capsys):
    code, out, _ = run(capsys, "mc", "vcthm", "--uniform", "5",
                       "--n", "12", "--epsilon", "0.45", "--trials", "50",
                       "--seed", "6", "thresholds:5")
    assert code == 0
    assert json.loads(out)["pass"] is True


def test_geom_commands(capsys, tmp_path):
    code, out, _ = run(capsys, "geom", "regions", "--r", "3", "--s", "3")
    assert code == 0
    assert json.loads(out)["regions"] == 8
    lines = {"lines": [{"normal": [1, 0], "offset": 0},
                       {"normal": [0, 1], "offset": 0},
                       {"normal": [1, 1], "offset": 1}]}
    path = write_json(tmp_path, "lines.json", lines)
    code, out, _ = run(capsys, "geom", "cells", path)
    assert code == 0
    assert json.loads(out) == {"lines": 3, "cells": 7}


def test_exit_codes(capsys, tmp_path):
    # invalid input: missing file
    code, _, err = run(capsys, "sys", "dim", "--kind", "vc", "missing.json")
    assert code == 2 and "input error" in err
    # invalid input: degenerate geometry
    bad = write_json(tmp_path, "bad.json",
                     {"lines": [{"normal": [1, 0], "offset": 0},
                                {"normal": [1, 0], "offset": 1}]})
    code, _, err = run(capsys, "geom", "cells", bad)
    assert code == 2 and "parallel" in err
    # resource cap
    code, _, err = run(capsys, "sys", "dim", "--kind", "vc", "--cap", "3",
                       "powerset:4")
    assert code == 3 and "resource cap" in err
    # argparse usage errors also map to 2
    code, _, err = run(capsys, "sys", "dim", "powerset:3")
    assert code == 2


def test_cap_env_override(capsys, monkeypatch):
    monkeypatch.setenv("SHATTERLAB_CAP", "3")
    code, _, err = run(capsys, "sys", "dim", "--kind", "vc", "powerset:4")
    assert code == 3
    monkeypatch.setenv("SHATTERLAB_CAP", "10")
    code, out, _ = run(capsys, "sys", "dim", "--kind", "vc", "powerset:4")
    assert code == 0


def test_quiet_suppresses_stdout(capsys):
    code, out, _ = run(capsys, "ban", "maxsol", "--n", "3", "--k", "2",
                       "--quiet")
    assert code == 0 and out == ""


def test_stdout_is_byte_stable(capsys):
    args = ("sys", "audit", "--s", "1", "--r", "1", "--n", "3", "thresholds:3")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


@pytest.mark.parametrize("argv", [
    ["mc", "weaklaw", "--uniform", "8", "--set", "0,1", "--n", "10",
     f"--epsilon={epsilon}", "--trials", "10"]
    for epsilon in ("abc", "1/0", "0", "-1/4")
] + [
    ["mc", "weaklaw", "--uniform", "8", "--set", "0,1", "--n", "0",
     "--epsilon", "1/4", "--trials", "10"],
    ["mc", "vcthm", "--uniform", "8", "--n", "0", "--epsilon", "1/4",
     "--trials", "10", "thresholds:8"],
    ["mc", "vcthm", "--uniform", "8", "--n", "10", "--epsilon", "abc",
     "--trials", "10", "thresholds:8"],
    ["mc", "vcthm", "--uniform", "8", "--n", "2000", "--epsilon=-1/4",
     "--trials", "10", "thresholds:8"],
])
def test_mc_bad_epsilon_or_height(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 2 and "input error" in err
    assert "Traceback" not in err


def test_mc_vcthm_epsilon_zero_is_vacuous(capsys):
    code, out, _ = run(capsys, "mc", "vcthm", "--uniform", "8", "--n", "10",
                       "--epsilon", "0", "--trials", "10", "thresholds:8")
    assert code == 0
    assert json.loads(out)["notes"]["bound_vacuous"] is True


@pytest.mark.parametrize("data", [
    {"lines": [{"normal": [3], "offset": 0}, {"normal": [1, 2], "offset": 1}]},
    [{"normal": [1, 3], "offset": 0}],
    {"lines": [{"normal": [1, 0]}]},
    {"lines": 5},
])
def test_geom_cells_malformed(capsys, tmp_path, data):
    path = write_json(tmp_path, "lines.json", data)
    code, _, err = run(capsys, "geom", "cells", path)
    assert code == 2 and "input error" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ("--generator", "parity", "--n", "40"),
    ("--generator", "random", "--n", "30", "--k", "2"),
    ("--generator", "random", "--n", "5", "--k", "2", "--cap", "319"),
])
def test_ban_gen_table_cap(capsys, argv):
    code, out, err = run(capsys, "ban", "gen", *argv)
    assert code == 3 and "resource cap" in err and out == ""


def test_ban_gen_table_cap_env(capsys, monkeypatch):
    # C(5,2) * 2^5 = 320 table entries
    monkeypatch.setenv("SHATTERLAB_CAP", "319")
    code, _, _ = run(capsys, "ban", "gen", "--generator", "random",
                     "--n", "5", "--k", "2")
    assert code == 3
    monkeypatch.setenv("SHATTERLAB_CAP", "320")
    code, out, _ = run(capsys, "ban", "gen", "--generator", "random",
                       "--n", "5", "--k", "2")
    assert code == 0 and len(json.loads(out)["bans"]) == 10 * 8
