"""End-to-end CLI behavior: output shape, exit codes, and determinism."""

import dataclasses
import itertools
import json
import sys
import time

import pytest

from shatterlab import SetSystem, banseq, dims, thicketvc, typetree
from shatterlab.cli import build_parser, main
from shatterlab.errors import ShatterLabError

from families import HEIGHT_BOUND_COUNTEREXAMPLE


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_json(tmp_path, name, data):
    """``data`` as JSON in ``tmp_path / name``; bytes are written as is."""
    path = tmp_path / name
    if isinstance(data, bytes):
        path.write_bytes(data)
    else:
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


@pytest.mark.parametrize("argv", [
    ("sys", "shatter", "--kind", "thicket", "--n", "2000"),
    ("sys", "shatter", "--kind", "op", "--n", "2000"),
    ("sys", "audit", "--s", "1", "--r", "1", "--n", "2000"),
])
def test_sys_verbs_at_a_height_far_above_the_family_size(capsys, argv):
    code, out, err = run(capsys, *argv, "thresholds:4")
    assert code == 0 and err == ""
    payload = json.loads(out)
    if argv[1] == "shatter":
        assert payload["value"] == 5
    else:
        assert all(row["pass"] for row in payload)


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
    {"S": [0], "X": "0", "banned": "01"},
    {"S": [0], "X": "0", "banned": "1"},
    {"S": [0], "X": "\u0660", "banned": ["1"]},
    {"S": [0], "X": "0", "banned": ["\u0661"]},
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


def test_ban_gen_random_seed_defaults_to_0(capsys):
    argv = ("ban", "gen", "--generator", "random", "--n", "4", "--k", "2")
    assert run(capsys, *argv) == run(capsys, *argv, "--seed", "0")
    assert run(capsys, *argv)[1] == json.dumps(
        banseq.random_problem(4, 2, 2, 0).to_json_dict(), sort_keys=True) + "\n"


# Ban-problem files are read by banseq alone.  Every generator object these
# tests write, with the --cap it is loaded under: the problem it names,
# built by its constructor, or the error text the CLI prints for it.
VC8 = {"universe": 8, "sets": ["00000000", "10000000", "01000000"]}
GENERATOR_OBJECTS = [
    ({"generator": "parity", "n": 4}, None, lambda: banseq.parity_problem(4)),
    ({"generator": "parity", "n": 3}, None, lambda: banseq.parity_problem(3)),
    ({"generator": "parity", "n": 22}, None, lambda: banseq.parity_problem(22)),
    ({"generator": "parity", "n": 40, "seed": 0}, None, lambda: banseq.parity_problem(40)),
    ({"generator": "random", "n": 4, "k": 2, "seed": 8}, None,
     lambda: banseq.random_problem(4, 2, 2, 8)),
    ({"generator": "random", "n": 6, "k": 2}, 960, lambda: banseq.random_problem(6, 2, 2, 0)),
    ({"generator": "random", "n": 3, "k": 1, "seed": 5}, None,
     lambda: banseq.random_problem(3, 1, 2, 5)),
    ({"generator": "random", "n": 3, "k": 1, "j": 11, "density": 0.0, "seed": 2}, None,
     lambda: banseq.random_problem(3, 1, 11, 2, 0.0)),
    ({"generator": "from_vc", "m": 2, "system": VC8}, 512,
     lambda: banseq.from_vc(SetSystem.from_json_dict(VC8), 2)),
    ({"generator": "random", "n": 6, "k": 2}, 100,
     "resource cap: C(n,k) * j^n table entries = 960 exceeds cap 100"),
    ({"generator": "random", "n": 5, "k": 2, "seed": 0}, 319,
     "resource cap: C(n,k) * j^n table entries = 320 exceeds cap 319"),
    ({"generator": "random", "n": 30, "k": 2}, None,
     "resource cap: C(n,k) * j^n table entries = 467077693440 exceeds cap 4194304"),
    ({"generator": "from_vc", "m": 15, "system": {"universe": 30, "sets": ["0" * 30]}}, None,
     "resource cap: C(n,m) * 2^m from_vc row entries = 5082890895360 exceeds cap 4194304"),
    ({"generator": "from_vc", "m": 2, "system": {"universe": 53, "sets": ["0" * 53]}}, None,
     "resource cap: C(n,m) * 2^n from_vc table entries (numpy's index limit) = "
     "12411920573033086976 exceeds cap 9223372036854775807"),
    ({"generator": "random", "k": 2}, None,
     "input error: malformed problem generator object: 'n'"),
    ({"generator": "parity"}, None, "input error: malformed problem generator object: 'n'"),
    ({"generator": "from_vc", "m": 2}, None,
     "input error: malformed problem generator object: 'system'"),
    ({"generator": "from_vc", "system": {"universe": 3, "sets": ["100", "110"]}}, None,
     "input error: malformed problem generator object: 'm'"),
    ({"generator": "from_vc", "system": 5, "m": 2}, None,
     "input error: malformed set-system object: 'int' object is not subscriptable"),
    ({"generator": "nosuch", "n": 3}, None, "input error: unknown problem generator 'nosuch'"),
    (["generator"], None, "input error: malformed ban-problem object: "
                          "list indices must be integers or slices, not str"),
    (5, None, "input error: malformed ban-problem object: 'int' object is not subscriptable"),
    ({"generator": "parity", "n": "x"}, None, "input error: n must be an integer, got 'x'"),
    ({"generator": "parity", "n": "3"}, None, "input error: n must be an integer, got '3'"),
    ({"generator": "parity", "n": 3.7}, None, "input error: n must be an integer, got 3.7"),
    ({"generator": "parity", "n": True}, None, "input error: n must be an integer, got True"),
    ({"generator": "parity", "n": 3.0}, None, "input error: n must be an integer, got 3.0"),
    ({"generator": "random", "n": "x", "k": 2}, None,
     "input error: n must be an integer, got 'x'"),
    ({"generator": "random", "n": -1, "k": 1}, None, "input error: n must be at least 1, got -1"),
    ({"generator": "random", "n": 0, "k": -1}, None, "input error: n must be at least 1, got 0"),
    ({"generator": "random", "n": 3, "k": "2"}, None,
     "input error: k must be an integer, got '2'"),
    ({"generator": "random", "n": 3, "k": 2, "j": 2.0}, None,
     "input error: j must be an integer, got 2.0"),
    ({"generator": "random", "n": 3, "k": 2, "seed": "1"}, None,
     "input error: seed must be an integer, got '1'"),
    ({"generator": "random", "n": 3, "k": 2, "density": "nan"}, None,
     "input error: density must be a number in [0, 1], got 'nan'"),
    ({"generator": "random", "n": 3, "k": 2, "density": 1.5}, None,
     "input error: density must be a number in [0, 1], got 1.5"),
    ({"generator": "random", "n": 3, "k": 2, "density": True}, None,
     "input error: density must be a number in [0, 1], got True"),
    ({"generator": "from_vc", "m": "1", "system": {"universe": 2, "sets": ["00"]}}, None,
     "input error: m must be an integer, got '1'"),
]


@pytest.mark.parametrize("data, cap, expected", GENERATOR_OBJECTS)
def test_generator_objects_load_through_the_library_reader(capsys, monkeypatch, tmp_path,
                                                           data, cap, expected):
    """The CLI loads the problem that ``BanProblem.from_json_dict(data,
    cap)`` returns, or prints the text of the error it raises."""
    monkeypatch.delenv("SHATTERLAB_CAP", raising=False)
    loaded = []
    monkeypatch.setattr(banseq, "solutions",
                        lambda problem, cap=None: loaded.append(problem) or ([], 0))
    path = write_json(tmp_path, "gen.json", data)
    code, out, err = run(capsys, "ban", "solve", path, *([] if cap is None else ["--cap", str(cap)]))
    if isinstance(expected, str):
        assert (code, out, err) == (2 if expected.startswith("input") else 3, "", expected + "\n")
        with pytest.raises(ShatterLabError) as exc:
            banseq.BanProblem.from_json_dict(data, cap)
        assert expected.endswith(f": {exc.value}")
        return
    problem, built = banseq.BanProblem.from_json_dict(data, cap), expected()
    assert code == 0 and err == "" and len(loaded) == 1
    assert repr(loaded[0]) == repr(problem) == repr(built)
    if problem.n <= 8:
        assert loaded[0] == problem == built


@pytest.mark.parametrize("argv, data", [
    (("solve", "--list"), {"generator": "random", "n": 3, "k": 1, "j": 11, "density": 0.0,
                           "seed": 2}),
    (("solve", "--list", "--format", "csv"), {"generator": "random", "n": 3, "k": 1, "j": 11,
                                              "density": 0.0, "seed": 2}),
    (("hereditary",), {"generator": "random", "n": 4, "k": 3, "j": 11, "density": 0.0,
                       "seed": 1}),
], ids=["list-json", "list-csv", "witness"])
def test_sequences_past_one_digit_per_entry_are_refused(capsys, tmp_path, argv, data):
    """At j = 11, (1, 0, 10) and (10, 1, 0) would both read "1010": one
    solution printed twice, or one witness assignment lost."""
    path = write_json(tmp_path, "j11.json", data)
    code, out, err = run(capsys, "ban", *argv, path)
    assert (code, out) == (2, "")
    assert err == "input error: string serialization supports alphabets up to 10\n"


def old_text(seq):
    """A sequence as the CLI joined it before banseq wrote it."""
    return "".join(str(v) for v in seq)


@pytest.mark.parametrize("j", [2, 3, 10])
def test_sequence_texts_match_the_per_entry_join(capsys, tmp_path, j):
    """``--list``, the witness and ``ban gen`` write at j <= 10 the bytes
    that the CLI's own joins wrote."""
    data = {"generator": "random", "n": 3, "k": 2, "j": j, "density": 0.05, "seed": 3}
    path = write_json(tmp_path, "rand.json", data)
    problem = banseq.BanProblem.from_json_dict(data)
    sols, banned = banseq.solutions(problem)
    payload = {"n": 3, "k": 2, "j": j, "solutions": len(sols), "banned": banned,
               "trivial_upper_bound": banseq.trivial_upper_bound(problem),
               "sequences": [old_text(s) for s in sols]}
    assert run(capsys, "ban", "solve", "--list", path) == (
        0, json.dumps(payload, sort_keys=True) + "\n", "")
    assert run(capsys, "ban", "solve", "--list", "--format", "csv", path) == (
        0, "\n".join(["sequence"] + payload["sequences"]) + "\n", "")
    hereditary, witness = banseq.is_hereditary(problem)
    assert not hereditary
    old = {"S": list(witness.S),
           "assignments": {old_text(z): old_text(x) for z, x in witness.assignments.items()}}
    assert witness.to_json_dict() == old
    assert run(capsys, "ban", "hereditary", path) == (
        0, json.dumps({"hereditary": False, "witness": old}, sort_keys=True) + "\n", "")
    patterns = list(itertools.product(range(j), repeat=2))
    bans = [{"S": list(S), "X": old_text(X),
             "banned": [old_text(z) for z in patterns if z in problem.ban_set(S, X)]}
            for S in itertools.combinations(range(3), 2) for X in itertools.product(range(j))]
    assert problem.to_json_dict() == {"n": 3, "k": 2, "j": j, "bans": bans}


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


def test_mc_vcthm_csv(capsys):
    code, out, _ = run(capsys, "mc", "vcthm", "--uniform", "4", "--n", "5",
                       "--epsilon", "1/4", "--trials", "3", "--seed", "1",
                       "--format", "csv", "thresholds:4")
    assert code == 0
    assert out.splitlines() == ["trial,n,epsilon,deviation,exceeded", "0,5,1/4,1/10,0",
                                "1,5,1/4,7/20,1", "2,5,1/4,1/2,1"]


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


@pytest.mark.parametrize("argv, text", [
    (["weaklaw"], "one of the arguments --space --uniform is required"),
    (["vcthm", "--space", "{file}", "--uniform", "4", "thresholds:4"],
     "not allowed with argument"),
], ids=["neither", "both"])
def test_mc_space_from_exactly_one_of_space_and_uniform(capsys, tmp_path, argv, text):
    path = write_json(tmp_path, "space.json", {"points": 4, "weights": ["1/4"] * 4})
    argv = [path if a == "{file}" else a for a in argv]
    code, _, err = run(capsys, "mc", *argv, "--n", "10", "--epsilon", "1/4", "--trials", "20")
    assert code == 2 and text in err
    assert "Traceback" not in err


def test_set_system_name_that_is_not_a_string_exits_2(capsys, tmp_path):
    named = write_json(tmp_path, "named.json", {"universe": 1, "sets": ["1"], "name": [1]})
    code, _, err = run(capsys, "sys", "dim", "--kind", "vc", named)
    assert code == 2 and "input error: set-system 'name' must be a string" in err


def test_a_missing_ban_problem_file_is_refused_as_every_missing_file(capsys, tmp_path):
    code, out, err = run(capsys, "ban", "solve", str(tmp_path / "missing.json"))
    assert code == 2 and out == "" and "cannot read" in err


def test_exit_codes(capsys, tmp_path):
    # invalid input: missing file
    code, _, err = run(capsys, "sys", "dim", "--kind", "vc", "missing.json")
    assert code == 2 and "input error" in err
    # a directory in place of an input file
    code, _, err = run(capsys, "sys", "dim", "--kind", "vc", str(tmp_path))
    assert code == 2 and "cannot read" in err
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


# Each command-made exit 1 below is forced by a patched library call: the
# stdout a command writes before its check stays, and stderr is one line.

def assert_one_verification_line(err, text):
    assert err.startswith("verification failure: ") and err.count("\n") == 1, err
    assert err.endswith("\n") and text in err
    assert "Traceback" not in err


def test_sys_audit_failed_rows_exit_1(capsys, monkeypatch):
    report = dims.BoundAuditReport()
    report.add("vc_sauer_shelah", {"n": 3}, 9, 8, False)
    report.add("thicket", {"n": 3}, 1, 2, True)
    report.add("op_rank", {"s": 1, "n": 3}, 5, 4, False)
    monkeypatch.setattr(dims, "audit_bounds", lambda *args, **kwargs: report)
    code, out, err = run(capsys, "sys", "audit", "--n", "3", "powerset:3")
    assert code == 1
    assert json.loads(out) == report.rows
    assert err == ("verification failure: bound failed: vc_sauer_shelah {'n': 3}; "
                   "bound failed: op_rank {'s': 1, 'n': 3}\n")


def test_ban_solve_above_trivial_bound_exit_1(capsys, monkeypatch, tmp_path):
    path = write_json(tmp_path, "parity.json", {"generator": "parity", "n": 4})
    monkeypatch.setattr(banseq, "trivial_upper_bound", lambda problem: 0)
    code, out, err = run(capsys, "ban", "solve", path)
    assert code == 1 and out == ""
    assert_one_verification_line(err, "solution count 8 exceeds trivial bound 0")


@pytest.mark.parametrize("sets, text", [
    (({1, 2}, {2}), "extracted clique is invalid at (1,2)"),
    (({2}, {0, 1, 2}), "extracted independent set is invalid at (0,1)"),
])
def test_graph_extract_invalid_set_exit_1(capsys, monkeypatch, tmp_path, sets, text):
    path = write_json(tmp_path, "g.json", {"vertices": 3, "edges": [[0, 1]]})
    monkeypatch.setattr(typetree, "extract_clique_or_independent", lambda tree: sets)
    code, out, err = run(capsys, "graph", "extract", path)
    assert code == 1 and out == ""
    assert_one_verification_line(err, text)


def test_graph_heightcheck_violated_exit_1(capsys, monkeypatch, tmp_path):
    path = write_json(tmp_path, "g.json", {"vertices": 3, "edges": [[0, 1]]})
    report = {"applicable": True, "tree_rank": 2, "height": 4, "n": 3,
              "lhs": 3, "rhs": 4, "pass": False}
    monkeypatch.setattr(typetree, "check_height_bound", lambda *args, **kwargs: report)
    code, out, err = run(capsys, "graph", "heightcheck", path)
    assert code == 1
    assert out == json.dumps(report, sort_keys=True) + "\n"
    assert_one_verification_line(err, "height bound violated")


@pytest.mark.parametrize("name, argv", [
    ("run_weak_law", ("mc", "weaklaw", "--set", "0,1")),
    ("run_vc_theorem", ("mc", "vcthm", "thresholds:4")),
])
def test_mc_exceedance_above_bound_exit_1(capsys, monkeypatch, name, argv):
    argv += ("--uniform", "4", "--n", "8", "--epsilon", "1/4", "--trials", "10")
    code, passed, _ = run(capsys, *argv)
    assert code == 0
    run_experiment = getattr(thicketvc, name)
    monkeypatch.setattr(thicketvc, name, lambda *args, **kwargs: dataclasses.replace(
        run_experiment(*args, **kwargs), passed=False))
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert json.loads(out) == {**json.loads(passed), "pass": False}
    assert_one_verification_line(err, "empirical exceedance rate above the theoretical bound")


def test_cap_env_override(capsys, monkeypatch):
    monkeypatch.setenv("SHATTERLAB_CAP", "3")
    code, _, err = run(capsys, "sys", "dim", "--kind", "vc", "powerset:4")
    assert code == 3
    monkeypatch.setenv("SHATTERLAB_CAP", "10")
    code, out, _ = run(capsys, "sys", "dim", "--kind", "vc", "powerset:4")
    assert code == 0


@pytest.mark.parametrize("value", ["abc", "5.0", "1e3"])
def test_cap_env_not_an_integer(capsys, monkeypatch, value):
    monkeypatch.setenv("SHATTERLAB_CAP", value)
    code, out, err = run(capsys, "sys", "dim", "--kind", "vc", "powerset:3")
    assert code == 2 and "input error" in err and out == ""
    assert "Traceback" not in err


def test_cap_flag_wins_over_junk_env(capsys, monkeypatch):
    monkeypatch.setenv("SHATTERLAB_CAP", "abc")
    code, out, _ = run(capsys, "sys", "dim", "--kind", "vc", "--cap", "5", "powerset:3")
    assert code == 0 and json.loads(out)["dimension"] == "3"


@pytest.mark.parametrize("argv", [
    ["sys", "dim", "--kind", "vc", "powerset:40"],
    ["sys", "dim", "--kind", "thicket", "all_subsets_of_size_at_most:40:1"],
    ["mc", "vcthm", "--uniform", "8", "--n", "10", "--epsilon", "1/4",
     "--trials", "10", "powerset:40"],
], ids=["powerset", "all_subsets_of_size_at_most", "vcthm-powerset"])
def test_exponential_shorthands_refused_before_building(capsys, argv):
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert code == 3 and "resource cap" in err and out == ""
    assert time.perf_counter() - start < 1


MC_HUGE = [
    ["mc", "weaklaw", "--uniform", "4", "--set", "0", "--n", "5", "--epsilon", "1/4",
     "--trials", str(10 ** 15)],
    ["mc", "vcthm", "--uniform", "8", "--n", "5", "--epsilon", "1/4",
     "--trials", str(10 ** 15), "thresholds:8"],
]


@pytest.mark.parametrize("argv", MC_HUGE, ids=["weaklaw", "vcthm"])
def test_mc_trials_refused_before_allocating(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 3 and "resource cap" in err and out == ""
    assert "Traceback" not in err


def test_mc_trials_cap_flag(capsys):
    # thresholds:3 has 4 sets, so 5 trials make 20 (trial, set) entries
    argv = ["mc", "vcthm", "--uniform", "3", "--n", "5", "--epsilon", "1/4",
            "--trials", "5", "thresholds:3"]
    code, out, err = run(capsys, *argv, "--cap", "19")
    assert code == 3 and "resource cap" in err and out == ""
    code, out, _ = run(capsys, *argv, "--cap", "20")
    assert code == 0 and json.loads(out)["trials"] == 5


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
    {"lines": [{"normal": [1, 0, 7], "offset": 0}, {"normal": [0, 1], "offset": 1}]},
    {"lines": [{"normal": "12", "offset": 0}, {"normal": [0, 1], "offset": 1}]},
    [{"normal": [1, 3], "offset": 0}],
    {"lines": [{"normal": [1, 0]}]},
    {"lines": 5},
    {"halfspaces": [{"normal": [[1], 2], "offset": 0}]},
    b'{"lines": [{"normal": [1e400, 1], "offset": 0}]}',
    b'{"lines": [{"normal": [1, 2], "offset": -Infinity}]}',
    b'{"lines": [{"normal": [NaN, 2], "offset": 0}]}',
    {"lines": [{"normal": [True, False], "offset": True}, {"normal": [0, 1], "offset": 1}]},
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
    ("--generator", "parity", "--n", "4", "--cap", "63"),
])
def test_ban_gen_table_cap(capsys, argv):
    code, out, err = run(capsys, "ban", "gen", *argv)
    assert code == 3 and "resource cap" in err and out == ""


def test_ban_gen_lazy_generator_within_table_cap(capsys):
    # C(4,1) * 2^4 = 64 table entries
    code, out, _ = run(capsys, "ban", "gen", "--generator", "parity",
                       "--n", "4", "--cap", "64")
    assert code == 0 and len(json.loads(out)["bans"]) == 4 * 8


@pytest.mark.parametrize("verb", [("solve",), ("hereditary",),
                                  ("reduce", "--which", "hat")])
def test_random_generator_file_table_cap(capsys, tmp_path, verb):
    # C(6,2) * 2^6 = 960 table entries
    path = write_json(tmp_path, "rand.json", {"generator": "random", "n": 6, "k": 2})
    code, out, err = run(capsys, "ban", *verb, "--cap", "100", path)
    assert code == 3 and "resource cap" in err and out == ""
    code, _, _ = run(capsys, "ban", *verb, "--cap", "960", path)
    assert code == 0


def test_large_random_generator_file_refused_before_building(capsys, tmp_path):
    path = write_json(tmp_path, "rand.json", {"generator": "random", "n": 30, "k": 2})
    start = time.perf_counter()
    code, out, err = run(capsys, "ban", "solve", path)
    assert code == 3 and "resource cap" in err and out == ""
    assert time.perf_counter() - start < 1


def test_lazy_generator_file_refused_before_filling(capsys, tmp_path):
    # 2^22 sequences pass the default enumeration cap; solving would fill
    # the table's C(22,1) * 2^22 entries, which do not
    path = write_json(tmp_path, "parity.json", {"generator": "parity", "n": 22})
    start = time.perf_counter()
    code, out, err = run(capsys, "ban", "solve", path)
    assert code == 3 and "resource cap" in err and out == ""
    assert time.perf_counter() - start < 1


def test_large_from_vc_file_refused_before_building(capsys, tmp_path):
    # C(30,15) * 2^15 row entries, far above the default cap
    path = write_json(tmp_path, "vc.json", {
        "generator": "from_vc", "m": 15,
        "system": {"universe": 30, "sets": ["0" * 30]}})
    start = time.perf_counter()
    code, out, err = run(capsys, "ban", "hereditary", path)
    assert code == 3 and "resource cap" in err and out == ""
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("universe", [53, 60])
@pytest.mark.parametrize("argv", [("ban", "solve"), ("ban", "hereditary"),
                                  ("ban", "reduce", "--which", "hat")])
def test_from_vc_file_past_numpy_index_range_refused(capsys, tmp_path, argv, universe):
    # C(n,2) * 2^n broadcast table entries exceed 2^63 - 1 from n = 53 on,
    # though the C(n,2) * 2^2 rows pass the row cap
    path = write_json(tmp_path, "vc.json", {
        "generator": "from_vc", "m": 2,
        "system": {"universe": universe, "sets": ["0" * universe]}})
    code, out, err = run(capsys, *argv, path)
    assert code == 3 and out == "" and "Traceback" not in err
    assert err.startswith("resource cap: C(n,m) * 2^n from_vc table entries")
    size = universe * (universe - 1) // 2 << universe
    assert f"= {size} exceeds cap {2 ** 63 - 1}" in err


@pytest.mark.parametrize("which,entries", [("hat", 896), ("prime", 2688)])
def test_ban_reduce_output_cap(capsys, tmp_path, which, entries):
    # 2^8 = 256 source sequences pass --cap 512; the reduced tables hold
    # C(7,1) * 2^7 = 896 (hat) and C(7,2) * 2^7 = 2688 (prime) entries
    path = write_json(tmp_path, "vc.json", {
        "generator": "from_vc", "m": 2,
        "system": {"universe": 8, "sets": ["00000000", "10000000", "01000000"]}})
    code, out, err = run(capsys, "ban", "reduce", "--which", which, "--cap", "512", path)
    assert code == 3 and "resource cap" in err and out == ""
    code, out, _ = run(capsys, "ban", "reduce", "--which", which, "--cap", str(entries), path)
    reduced = json.loads(out)
    assert code == 0 and len(reduced["bans"]) * 2 ** reduced["k"] == entries


def test_lazy_generator_files_load_uncapped(capsys, tmp_path):
    # 2^22 sequences are within the default enumeration cap, the table's
    # C(22,1) * 2^22 entries are not; the witness search reads a few
    # entries of the lazy problem and never builds the table
    path = write_json(tmp_path, "parity.json", {"generator": "parity", "n": 22})
    code, out, _ = run(capsys, "ban", "hereditary", path)
    assert code == 0 and json.loads(out)["hereditary"] is False


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


@pytest.mark.parametrize("verb", ["typetree", "treerank", "extract", "heightcheck"])
@pytest.mark.parametrize("data", [
    {"vertices": -1, "edges": []},
    {"vertices": 3, "edges": [[0.5, 1]]},
    {"vertices": 3, "edges": [[0, True]]},
])
def test_graph_negative_size_or_non_int_endpoint(capsys, tmp_path, verb, data):
    path = write_json(tmp_path, "g.json", data)
    code, _, err = run(capsys, "graph", verb, path)
    assert code == 2 and "input error" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("verb", ["treerank", "heightcheck"])
def test_graph_rank_search_past_its_memo_state_cap_exit_3(capsys, tmp_path, verb):
    path = write_json(tmp_path, "g.json", HEIGHT_BOUND_COUNTEREXAMPLE)
    code, out, err = run(capsys, "graph", verb, "--cap", "1", path)
    assert (code, out) == (3, "")
    assert err == "resource cap: tree rank memo states = 2 exceeds cap 1\n"
    code, out, _ = run(capsys, "graph", "treerank", "--cap", "16", path)
    assert code == 0 and json.loads(out) == {"exact": True, "tree_rank": 2}


SPACE_ARGV = ["mc", "weaklaw", "--n", "4", "--epsilon", "1/4", "--trials", "5",
              "--space"]


@pytest.mark.parametrize("argv, data", [
    (["sys", "dim", "--kind", "vc", "{file}"], {"universe": 2, "sets": [1]}),
    (["sys", "dim", "--kind", "vc", "{file}"], {"universe": 1, "sets": "01"}),
    (["sys", "dim", "--kind", "vc", "halfspace_incidence:3"], None),
    (["sys", "dim", "--kind", "vc", "halfspace_dual:3"], None),
    (["mc", "weaklaw", "--uniform", "4", "--set", "a", "--n", "4",
      "--epsilon", "1/4", "--trials", "5"], None),
    (["ban", "gen", "--generator", "random", "--n", "-1", "--k", "1"], None),
    (["ban", "gen", "--generator", "random", "--n", "0", "--k", "-1"], None),
    (["ban", "solve", "{file}"], {"generator": "random", "n": -1, "k": 1}),
    (["ban", "solve", "{file}"], {"n": -1, "k": 1, "j": 2, "bans": []}),
    (SPACE_ARGV + ["{file}"], b'{"points": 2, "weights": [1e400, 0]}'),
    (SPACE_ARGV + ["{file}"], b'{"points": 2, "weights": [Infinity, 0]}'),
    (SPACE_ARGV + ["{file}"], {"points": 2, "weights": ["1/0", "1"]}),
    (SPACE_ARGV + ["{file}"], {"points": 2, "weights": [True, False]}),
    pytest.param(["sys", "dim", "--kind", "vc", "{file}"],
                 b'\xff{"universe": 1, "sets": []}', id="not-utf8"),
    pytest.param(["sys", "dim", "--kind", "vc", "{file}"], b"[" * 100_000,
                 id="deep-nesting"),
    pytest.param(["sys", "dim", "--kind", "vc", "{file}"],
                 b'{"universe": 1' + b"0" * 5000 + b"}", id="5001-digit-integer"),
])
def test_inputs_that_raised_exit_2(capsys, tmp_path, argv, data):
    if data is not None:
        path = write_json(tmp_path, "in.json", data)
        argv = [path if a == "{file}" else a for a in argv]
    code, _, err = run(capsys, *argv)
    assert code == 2 and "input error" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("spec", ["powerset:2.7", "powerset:x", "powerset:",
                                  "powerset:3:1", "all_subsets_of_size_at_most:4:-1"])
def test_generator_shorthand_fields_must_be_integers(capsys, spec):
    code, _, err = run(capsys, "sys", "dim", "--kind", "vc", spec)
    assert code == 2 and "input error" in err
    assert "Traceback" not in err


def test_negative_cap_refuses_every_size(capsys):
    code, out, err = run(capsys, "sys", "dim", "--kind", "vc", "--cap", "-1", "powerset:1")
    assert code == 3 and "resource cap" in err and out == ""


def _table_with_S(first):
    bans = [{"S": S, "X": X, "banned": ["1"]}
            for S in ([0], [1]) for X in ("0", "1")]
    bans[0]["S"] = bans[1]["S"] = first
    return {"n": 2, "k": 1, "j": 2, "bans": bans}


@pytest.mark.parametrize("argv, data", [
    (["ban", "solve"], {"generator": "parity", "n": "3"}),
    (["ban", "solve"], {"generator": "parity", "n": 3.7}),
    (["ban", "solve"], {"generator": "parity", "n": True}),
    (["ban", "solve"], {"generator": "parity", "n": 3.0}),
    (["ban", "solve"], {"generator": "random", "n": 3, "k": "2"}),
    (["ban", "solve"], {"generator": "random", "n": 3, "k": 2, "j": 2.0}),
    (["ban", "solve"], {"generator": "random", "n": 3, "k": 2, "seed": "1"}),
    (["ban", "solve"], {"generator": "random", "n": 3, "k": 2, "density": "nan"}),
    (["ban", "solve"], {"generator": "random", "n": 3, "k": 2, "density": 1.5}),
    (["ban", "solve"], {"generator": "random", "n": 3, "k": 2, "density": True}),
    (["ban", "solve"], {"generator": "from_vc", "m": "1",
                        "system": {"universe": 2, "sets": ["00"]}}),
    (["ban", "solve"], _table_with_S([0.5])),
    (["ban", "solve"], _table_with_S([False])),
    (["ban", "solve"], dict(_table_with_S([0]), n="2")),
    (["ban", "solve"], {"n": 1, "k": 1, "j": 2,
                        "bans": [{"S": [0], "X": "", "banned": [[0.5]]}]}),
    (["sys", "dim", "--kind", "vc"], {"universe": 2.5, "sets": ["01"]}),
    (["graph", "treerank"], {"vertices": "3", "edges": [[0, 1]]}),
    (SPACE_ARGV, {"points": "2", "weights": ["1/2", "1/2"]}),
])
def test_integer_fields_must_be_json_integers(capsys, tmp_path, argv, data):
    path = write_json(tmp_path, "in.json", data)
    code, _, err = run(capsys, *argv, path)
    assert code == 2 and "input error" in err
    assert "Traceback" not in err


# Long outputs: row (c)'s rhs is about 3^20000 (9,543 digits) and the region
# count 2^20000 (6,021 digits), past the interpreter's 4,300-digit limit.
# geom regions has no CSV form, so it takes no --format.
AUDIT_20000 = ("sys", "audit", "--s", "2", "--r", "1", "--n", "20000", "thresholds:4")
LONG_OUTPUTS = [(AUDIT_20000 + ("--format", "json"), 9543),
                (AUDIT_20000 + ("--format", "csv"), 9543),
                (("geom", "regions", "--r", "20000", "--s", "20000"), 6021)]


@pytest.mark.parametrize("argv, digits", LONG_OUTPUTS, ids=["audit-json", "audit-csv", "regions"])
def test_integers_past_the_digit_limit_are_a_resource_cap(capsys, monkeypatch, argv, digits):
    monkeypatch.delenv("SHATTERLAB_CAP", raising=False)
    limit = sys.get_int_max_str_digits()
    code, out, err = run(capsys, *argv)
    assert (code, out) == (3, "")
    assert err == f"resource cap: output integer digits = {digits} exceeds cap {limit}\n"
    assert sys.get_int_max_str_digits() == limit
    code, out, err = run(capsys, *argv, "--cap", "10000")
    assert code == 0 and err == "" and out
    assert sys.get_int_max_str_digits() == limit
    monkeypatch.setenv("SHATTERLAB_CAP", "10000")
    assert run(capsys, *argv)[0] == 0
    assert run(capsys, *argv, "--cap", "6000")[:2] == (3, "")


def test_digit_cap_counts_the_longest_integer(capsys):
    assert run(capsys, "geom", "regions", "--r", "3", "--s", "5", "--cap", "1")[:2] == (3, "")
    code, out, _ = run(capsys, "geom", "regions", "--r", "3", "--s", "5", "--cap", "2")
    assert code == 0 and json.loads(out)["regions"] == 26


# Dispatch: main parses "NOUN VERB ARGS" with the verb's own parser.  With
# the leaf table emptied, every argv goes through the nested parser, which
# is the oracle.  {name} stands for a file written by dispatch_files.
LEAVES = {("sys", "dim"), ("sys", "shatter"), ("sys", "audit"),
          ("ban", "solve"), ("ban", "hereditary"), ("ban", "reduce"), ("ban", "maxsol"),
          ("ban", "gen"), ("graph", "typetree"), ("graph", "treerank"),
          ("graph", "extract"), ("graph", "heightcheck"), ("mc", "weaklaw"),
          ("mc", "vcthm"), ("geom", "regions"), ("geom", "cells")}
MC = ("--uniform", "4", "--n", "10", "--epsilon", "1/4", "--trials", "20")
DISPATCH_ARGVS = [
    # every (noun, verb) with valid arguments
    ("sys", "dim", "--kind", "vc", "powerset:3"),
    ("sys", "shatter", "--kind", "thicket", "--n", "2", "thresholds:3"),
    ("sys", "audit", "--s", "1", "--n", "3", "--format", "csv", "powerset:3"),
    ("ban", "solve", "--list", "{parity}"),
    ("ban", "hereditary", "{parity}"),
    ("ban", "reduce", "--which", "hat", "{parity}"),
    ("ban", "maxsol", "--n", "3", "--k", "1"),
    ("ban", "gen", "--generator", "random", "--n", "3", "--k", "1", "--seed", "4"),
    ("graph", "typetree", "--shuffle", "--seed", "3", "{graph}"),
    ("graph", "treerank", "{graph}"),
    ("graph", "extract", "{graph}"),
    ("graph", "heightcheck", "{graph}"),
    ("mc", "weaklaw", *MC, "--set", "0,1"),
    ("mc", "vcthm", *MC, "--quiet", "thresholds:4"),
    ("geom", "regions", "--r", "2", "--s", "3"),
    ("geom", "cells", "{lines}"),
    # help at each level
    (), ("-h",), ("--help",), ("--he",), ("sys",), ("sys", "-h"), ("mc", "--help"),
    ("sys", "dim", "-h"), ("mc", "vcthm", "--help"), ("ban", "gen", "--kind", "vc", "-h"),
    # unknown noun or verb, missing verb
    ("nosuch", "dim"), ("sys", "nosuch"), ("geom",), ("Sys", "dim", "powerset:3"),
    # trailing extra arguments
    ("sys", "dim", "--kind", "vc", "powerset:3", "extra"),
    ("geom", "regions", "--r", "2", "--s", "3", "--bogus"),
    # options a verb does not read
    ("geom", "regions", "--r", "2", "--s", "3", "--format", "csv", "--seed", "9"),
    ("graph", "treerank", "--shuffle", "--seed", "3", "{graph}"),
    ("ban", "maxsol", "--n", "3", "--k", "1", "--format", "csv"),
    ("sys", "dim", "--kind", "vc", "--seed", "1", "powerset:3"),
    ("ban", "hereditary", "--format=json", "{parity}"),
    ("ban", "maxsol", "--n", "3", "--k", "1", "--x=1", "-q"),
    ("geom", "regions", "--r", "2", "--", "--s", "3"),
    # abbreviated options, --opt=value and a -- separator
    ("mc", "weaklaw", "--uniform", "4", "--n", "10", "--eps", "1/4", "--tri", "20"),
    ("mc", "vcthm", "--uni=4", "--n=10", "--epsilon=1/4", "--trials=20", "thresholds:4"),
    ("sys", "dim", "--kind=vc", "--", "powerset:3"),
    ("sys", "dim", "--k", "op", "--s", "2", "powerset:4"),
    ("mc", "weaklaw", *MC, "--s", "0"),
    # an option before the verb, and bad option values
    ("sys", "--cap", "5", "dim", "--kind", "vc", "powerset:3"),
    ("sys", "dim", "--kind", "nosuch", "powerset:3"),
    ("geom", "regions", "--r", "two", "--s", "3"),
    # a space from neither or both of --space and --uniform
    ("mc", "weaklaw", "--n", "10", "--epsilon", "1/4", "--trials", "20"),
    ("mc", "vcthm", "--space", "{space}", *MC, "thresholds:4"),
    # the cli-queries benchmark's malformed inputs
    ("sys", "dim", "--kind", "vc", "{bad_sets}"),
    ("ban", "solve", "{missing}"),
    ("sys", "dim", "--kind", "vc", "{bad_json}"),
    ("sys", "dim", "--kind", "vc", "nosuch:3"),
    ("sys", "dim"),
    ("graph", "treerank", "{self_loop}"),
    ("ban", "solve", "{short_table}"),
]


@pytest.fixture
def dispatch_files(tmp_path):
    files = {"parity": {"generator": "parity", "n": 3},
             "graph": {"vertices": 5, "edges": [[0, 1], [1, 2], [2, 3], [0, 4]]},
             "lines": {"lines": [{"normal": [1, 0], "offset": 0},
                                 {"normal": [0, 1], "offset": 0},
                                 {"normal": [1, 1], "offset": 1}]},
             "bad_sets": {"universe": 3, "sets": ["01", "1111"]},
             "bad_json": b"{\"universe\": [[",
             "self_loop": {"vertices": 3, "edges": [[1, 1]]},
             "space": {"points": 4, "weights": ["1/4"] * 4},
             "short_table": {"n": 4, "k": 2, "j": 2, "bans": []}}
    paths = {name: write_json(tmp_path, f"{name}.json", data) for name, data in files.items()}
    paths["missing"] = str(tmp_path / "missing.json")
    return paths


def test_leaf_table_names_every_verb():
    assert set(build_parser().leaves) == LEAVES


def test_a_leaf_argv_skips_the_nested_parser(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("nested parser used")

    monkeypatch.setattr(build_parser(), "parse_args", refuse)
    assert run(capsys, "geom", "regions", "--r", "2", "--s", "1") == (
        0, '{"r": 2, "regions": 2, "s": 1}\n', "")


@pytest.mark.parametrize("argv", DISPATCH_ARGVS, ids=" ".join)
def test_leaf_dispatch_matches_the_nested_parser(capsys, monkeypatch, dispatch_files, argv):
    argv = [arg.format(**dispatch_files) for arg in argv]
    dispatched = run(capsys, *argv)
    monkeypatch.setattr(build_parser(), "leaves", {})
    assert run(capsys, *argv) == dispatched


# Each verb's options besides -h/--help: --cap and --quiet on every verb,
# since _emit reads both, and beyond them only the options its command reads.
EVERY_VERB = {"--cap", "--quiet"}
MC_OPTIONS = {"--format", "--seed", "--space", "--uniform", "--n", "--epsilon", "--trials"}
GRAPH_ORDER = {"--shuffle", "--seed"}
VERB_OPTIONS = {
    ("sys", "dim"): {"--kind", "--s"},
    ("sys", "shatter"): {"--kind", "--n", "--s"},
    ("sys", "audit"): {"--format", "--s", "--r", "--n"},
    ("ban", "solve"): {"--format", "--list"},
    ("ban", "hereditary"): set(),
    ("ban", "reduce"): {"--which"},
    ("ban", "maxsol"): {"--n", "--k"},
    ("ban", "gen"): {"--generator", "--n", "--k", "--j", "--seed"},
    ("graph", "typetree"): GRAPH_ORDER,
    ("graph", "treerank"): set(),
    ("graph", "extract"): GRAPH_ORDER,
    ("graph", "heightcheck"): GRAPH_ORDER,
    ("mc", "weaklaw"): MC_OPTIONS | {"--set"},
    ("mc", "vcthm"): MC_OPTIONS,
    ("geom", "regions"): {"--r", "--s"},
    ("geom", "cells"): set(),
}
# Each verb with arguments it runs on and exits 0; reduce_hat needs k >= 2,
# which the parity file lacks.
VALID_ARGVS = {tuple(argv[:2]): argv for argv in DISPATCH_ARGVS[:16]}
VALID_ARGVS["ban", "reduce"] = ("ban", "reduce", "--which", "prime", "{parity}")
# The (verb, option) slots that every verb once took and nothing read.
DROPPED = [(verb, option) for verb in sorted(LEAVES) for option in ("--format", "--seed")
           if option not in VERB_OPTIONS[verb]] + [(("graph", "treerank"), "--shuffle")]
OPTION_ARGS = {"--format": ("--format", "json"), "--seed": ("--seed", "0"),
               "--shuffle": ("--shuffle",)}


def test_each_verb_takes_only_the_options_it_reads():
    declared = {verb: {option for action in leaf._actions for option in action.option_strings}
                - {"-h", "--help"} for verb, leaf in build_parser().leaves.items()}
    assert declared == {verb: options | EVERY_VERB for verb, options in VERB_OPTIONS.items()}
    assert sum(map(len, declared.values())) == 74
    assert len(DROPPED) == 23


def run_both_paths(capsys, monkeypatch, argv):
    """``run`` through the leaf fast path and through the nested parser, which
    must agree; the fast path's result."""
    dispatched = run(capsys, *argv)
    with monkeypatch.context() as patch:
        patch.setattr(build_parser(), "leaves", {})
        assert run(capsys, *argv) == dispatched
    return dispatched


@pytest.mark.parametrize("verb, option", DROPPED,
                         ids=[" ".join((*verb, option)) for verb, option in DROPPED])
def test_an_option_the_verb_does_not_read_is_refused(capsys, monkeypatch, dispatch_files, verb,
                                                     option):
    argv = [arg.format(**dispatch_files) for arg in VALID_ARGVS[verb]]
    assert run(capsys, *argv)[0] == 0
    code, out, err = run_both_paths(capsys, monkeypatch, [*argv, *OPTION_ARGS[option]])
    assert (code, out) == (2, "")
    assert f"unrecognized arguments: {option}" in err


# Options a verb declares but refuses in a combination where it reads
# nothing of them, with the error line each refusal prints.
REFUSED = [
    (("sys", "dim", "--kind", "vc", "--s", "2", "powerset:3"),
     "input error: --kind vc has s = 1, got --s 2"),
    (("sys", "dim", "--kind", "thicket", "--s", "0", "powerset:3"),
     "input error: --kind thicket has s = 1, got --s 0"),
    (("sys", "shatter", "--kind", "vc", "--s", "7", "--n", "2", "powerset:3"),
     "input error: --kind vc has s = 1, got --s 7"),
    (("sys", "shatter", "--kind", "thicket", "--n", "2", "--s", "2", "powerset:3"),
     "input error: --kind thicket has s = 1, got --s 2"),
    (("ban", "gen", "--generator", "parity", "--n", "3", "--k", "2"),
     "input error: the parity generator takes --n only, got --k"),
    (("ban", "gen", "--generator", "parity", "--n", "3", "--j", "3", "--seed", "0"),
     "input error: the parity generator takes --n only, got --j, --seed"),
    (("ban", "gen", "--generator", "parity", "--n", "3", "--k", "2", "--j", "5", "--seed", "7"),
     "input error: the parity generator takes --n only, got --k, --j, --seed"),
    (("ban", "gen", "--generator", "from_vc", "--n", "3"),
     "argument --generator: invalid choice: 'from_vc' (choose from 'parity', 'random')"),
    (("ban", "solve", "--format", "csv", "{parity}"),
     "input error: ban solve writes CSV only with --list"),
    (("graph", "typetree", "--seed", "3", "{graph}"),
     "input error: --seed orders the vertices only with --shuffle"),
    (("graph", "heightcheck", "--seed", "0", "{graph}"),
     "input error: --seed orders the vertices only with --shuffle"),
]


@pytest.mark.parametrize("argv, text", REFUSED, ids=[" ".join(argv) for argv, _ in REFUSED])
def test_an_option_its_command_would_not_read_is_refused(capsys, monkeypatch, dispatch_files,
                                                         argv, text):
    argv = [arg.format(**dispatch_files) for arg in argv]
    code, out, err = run_both_paths(capsys, monkeypatch, argv)
    assert (code, out) == (2, "")
    assert text in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ("sys", "dim", "--kind", "vc", "--s", "1", "powerset:3"),
    ("sys", "shatter", "--kind", "thicket", "--s", "1", "--n", "2", "thresholds:3"),
    ("graph", "typetree", "--shuffle", "{graph}"),
], ids=" ".join)
def test_the_accepted_forms_of_those_options_still_run(capsys, dispatch_files, argv):
    code, out, err = run(capsys, *[arg.format(**dispatch_files) for arg in argv])
    assert code == 0 and err == "" and json.loads(out)
