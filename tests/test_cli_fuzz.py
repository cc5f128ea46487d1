"""Hypothesis fuzz of the CLI contract: every invocation, well formed or
not, exits 0, 1, 2 or 3 without a traceback, and exits 1 or 3 with exactly
one stderr line, which names the failure's kind.

Inputs stay small (n <= 6, universes <= 6, ``maxsol --n`` <= 4) so the
derandomized run takes a few seconds; it explores malformed JSON fields,
missing keys, wrong types and out-of-range values, under an unset, an
integer or a junk ``SHATTERLAB_CAP``.  The graph verbs also draw the
10-vertex graph on which the checked height bound fails, so exit 1 and its
one stderr line come up in the fuzz itself."""

import contextlib
import io
import itertools
import json
import os

import pytest
from hypothesis import given, settings, strategies as st

from shatterlab.cli import main

from families import HEIGHT_BOUND_COUNTEREXAMPLE

FILE = "{file}"

# Exit code -> the prefix of the one stderr line that comes with it.
ONE_LINE_PREFIXES = {1: "verification failure: ", 3: "resource cap: "}

# The string OVERFLOW is written into the file as the bare number 1e400,
# which overflows a float; json.dumps writes inf and nan as Infinity and NaN.
OVERFLOW = "1e400"
JUNK = st.one_of(st.none(), st.booleans(), st.integers(-2, 7),
                 st.floats(-2, 7), st.sampled_from([float("nan"), float("inf"), -float("inf")]),
                 st.just(OVERFLOW), st.text("01a-", max_size=4),
                 st.lists(st.integers(0, 3), max_size=2), st.just({}))


def pick(draw, junk, good, bad=JUNK):
    """A good value, or with ``junk`` set a good or a bad one."""
    return draw(st.one_of(good, good, bad) if junk else good)


def obj(draw, junk, **fields):
    """A JSON object of good values; with ``junk`` set any field may also
    be missing or bad."""
    out = {}
    for key, good in fields.items():
        if not junk or draw(st.integers(0, 5)):
            out[key] = pick(draw, junk, good)
    return out


@st.composite
def system(draw, junk):
    universe = pick(draw, junk, st.integers(0, 6), st.integers(-2, 7))
    width = universe if type(universe) is int and universe >= 0 else 3
    bits = st.text("01", min_size=width, max_size=width)
    return obj(draw, junk, universe=st.just(universe),
               sets=st.lists(bits if not junk else st.one_of(bits, JUNK), max_size=6))


GOOD_SHORTHANDS = ["powerset:3", "thresholds:4", "intervals:5",
                   "singletons_with_empty:2", "all_subsets_of_size_at_most:4:2"]
BAD_SHORTHANDS = ["powerset:-1", "powerset:x", "powerset:", "halfspace_incidence:3",
                  "halfspace_dual:", "nosuch:1", "powerset", "intervals:6:1"]


@st.composite
def system_arg(draw, junk):
    """A shorthand, or a set-system file, as (argument, file data)."""
    if draw(st.booleans()):
        return pick(draw, junk, st.sampled_from(GOOD_SHORTHANDS),
                    st.sampled_from(BAD_SHORTHANDS)), None
    return FILE, draw(system(junk))


@st.composite
def sys_call(draw):
    junk = draw(st.booleans())
    verb = draw(st.sampled_from(["dim", "shatter", "audit"]))
    spec, data = draw(system_arg(junk))
    num = st.integers(-1, 3).map(str)
    argv = ["sys", verb]
    arity = st.sampled_from(["1", "2"])
    if verb != "audit":
        kind = pick(draw, junk, st.sampled_from(["vc", "thicket", "op"]), st.just("nosuch"))
        argv += ["--kind", kind]
        if kind != "op":
            # the VC and thicket kinds take s = 1 alone
            arity = st.just("1")
    argv += ["--s", pick(draw, junk, arity, num)]
    if verb == "audit":
        argv += ["--r", pick(draw, junk, st.sampled_from(["1", "2"]), num),
                 "--format", draw(FORMAT)]
    if verb != "dim":
        argv += ["--n", pick(draw, junk, st.integers(0, 3).map(str), num)]
    return argv + draw(CAP) + [spec], data


@st.composite
def generator(draw, junk):
    kind = pick(draw, junk, st.sampled_from(["parity", "random", "from_vc"]),
                st.just("nosuch"))
    n = pick(draw, junk, st.integers(1, 6), st.integers(-1, 7))
    size = n if type(n) is int and n >= 1 else 1
    fields = {"generator": st.just(kind), "n": st.just(n),
              "k": st.integers(1, size), "j": st.integers(2, 4),
              "seed": st.integers(0, 9), "density": st.floats(0, 1)}
    if kind == "from_vc":
        vc = draw(system(junk))
        universe = vc.get("universe")
        top = universe if type(universe) is int and universe >= 1 else 1
        fields = {"generator": st.just(kind), "system": st.just(vc),
                  "m": st.integers(1, top)}
    return obj(draw, junk, **fields)


@st.composite
def full_table(draw, junk):
    """A complete ban table of n <= 3; with ``junk`` set, possibly one bad
    field in one entry."""
    n = draw(st.integers(1, 3))
    k = draw(st.integers(1, n))
    j = draw(st.integers(2, 3))
    patterns = ["".join(map(str, z)) for z in itertools.product(range(j), repeat=k)]
    bans = [{"S": list(S), "X": "".join(map(str, X)),
             "banned": draw(st.lists(st.sampled_from(patterns), min_size=1,
                                     max_size=2, unique=True))}
            for S in itertools.combinations(range(n), k)
            for X in itertools.product(range(j), repeat=n - k)]
    if junk:
        entry = draw(st.sampled_from(bans))
        entry[draw(st.sampled_from(["S", "X", "banned"]))] = draw(JUNK)
    return {"n": n, "k": k, "j": j, "bans": bans}


@st.composite
def ban_call(draw):
    junk = draw(st.booleans())
    verb = draw(st.sampled_from(["solve", "hereditary", "reduce", "maxsol", "gen"]))
    num = st.integers(-1, 6).map(str)
    if verb == "maxsol":
        n = pick(draw, junk, st.integers(1, 4), st.integers(-1, 4))
        k = pick(draw, junk, st.integers(1, max(n, 1)), st.integers(-1, 5))
        return ["ban", "maxsol", "--n", str(n), "--k", str(k)] + draw(CAP), None
    if verb == "gen":
        kind = pick(draw, junk, st.sampled_from(["parity", "random"]),
                    st.sampled_from(["from_vc", "nosuch"]))
        n = pick(draw, junk, st.integers(1, 6), st.integers(-1, 6))
        argv = ["ban", "gen", "--generator", kind, "--n", str(n)]
        # parity takes --n only
        if kind != "parity" or (junk and draw(st.booleans())):
            argv += ["--k", pick(draw, junk, st.integers(1, max(n, 1)).map(str), num),
                     "--j", pick(draw, junk, st.integers(2, 4).map(str), num),
                     *draw(st.sampled_from([[], ["--seed", "3"]]))]
        return argv + draw(CAP), None
    argv = ["ban", verb]
    if verb == "solve" and draw(st.booleans()):
        argv += ["--list", "--format", draw(FORMAT)]
    if verb == "reduce":
        argv += ["--which", draw(st.sampled_from(["hat", "prime"]))]
    data = draw(st.one_of(generator(junk), full_table(junk)))
    if junk and not draw(st.integers(0, 5)):
        data = draw(JUNK)
    return argv + draw(CAP) + [FILE], data


@st.composite
def graph_call(draw):
    junk = draw(st.booleans())
    vertices = pick(draw, junk, st.integers(1, 6), st.integers(-1, 7))
    top = vertices - 1 if type(vertices) is int and vertices >= 1 else 0
    end = st.integers(0, top)
    pairs = []
    if top:
        pairs.append(st.tuples(end, end).filter(lambda e: e[0] != e[1]).map(list))
    if junk:
        pairs.append(st.lists(st.one_of(end, JUNK), max_size=3))
    edges = st.lists(st.one_of(*pairs), max_size=8) if pairs else st.just([])
    data = obj(draw, junk, vertices=st.just(vertices), edges=edges)
    if not draw(st.integers(0, 3)):
        # exit 1 unless a cap refuses the tree-rank search's 16 memo states
        return ["graph", "heightcheck"] + draw(CAP) + [FILE], HEIGHT_BOUND_COUNTEREXAMPLE
    argv = ["graph", draw(st.sampled_from(["typetree", "treerank", "extract",
                                            "heightcheck"]))]
    if argv[1] != "treerank" and draw(st.booleans()):
        argv += ["--shuffle", "--seed", draw(st.integers(0, 9).map(str))]
    return argv + draw(CAP) + [FILE], data


@st.composite
def mc_call(draw):
    junk = draw(st.booleans())
    verb = draw(st.sampled_from(["weaklaw", "vcthm"]))
    argv, data = ["mc", verb], None
    good_points = st.integers(1, 6)
    if verb == "vcthm":
        spec = pick(draw, junk, st.sampled_from(GOOD_SHORTHANDS), st.sampled_from(BAD_SHORTHANDS))
        if spec in GOOD_SHORTHANDS:
            # a space on the family's universe, so that the run can pass
            good_points = st.just(int(spec.split(":")[1]))
    points = pick(draw, junk, good_points, st.integers(-1, 6))
    if draw(st.booleans()):
        argv += ["--uniform", str(points)]
    else:
        argv += ["--space", FILE]
        count = max(points, 0)
        # good weights are shares p / total of small integers, not all 0, so
        # they sum to exactly 1; a junk draw may take independent weights,
        # which seldom do
        parts = st.lists(st.integers(0, 3), min_size=count, max_size=count)
        weights = parts.filter(lambda ps: any(ps) or not ps).map(
            lambda ps: [f"{p}/{sum(ps)}" for p in ps])
        if junk:
            weight = st.one_of(st.sampled_from(["1/2", "1/4", "0", "1/3"]), JUNK)
            weights = st.one_of(weights, st.lists(weight, min_size=count, max_size=count))
        data = obj(draw, junk, points=st.just(points), weights=weights)
        if junk and not draw(st.integers(0, 5)):
            argv.remove("--space")
            argv.remove(FILE)
    if verb == "weaklaw":
        argv.append("--set=" + pick(draw, junk, st.sampled_from(["", "0", "0,1"]),
                                    st.sampled_from(["a", "1,,2", "7", "-1"])))
    argv += ["--n", str(pick(draw, junk, st.integers(1, 6), st.integers(-1, 6))),
             "--epsilon=" + pick(draw, junk, st.sampled_from(["1/4", "1/2", "0.3"]),
                                 st.sampled_from(["0", "-1", "abc", "1/0"])),
             "--trials", str(pick(draw, junk, st.integers(1, 20), st.integers(-1, 20))),
             "--seed", draw(st.integers(0, 9).map(str)), "--format", draw(FORMAT)]
    if verb == "vcthm":
        argv.append(spec)
    return argv, data


@st.composite
def geom_call(draw):
    junk = draw(st.booleans())
    if draw(st.booleans()):
        return ["geom", "regions",
                "--r", str(pick(draw, junk, st.integers(1, 3), st.integers(-1, 3))),
                "--s", str(pick(draw, junk, st.integers(0, 6), st.integers(-1, 6)))], None
    coord = st.integers(-3, 3)
    normal = st.tuples(coord, coord).filter(any).map(list)
    line = st.fixed_dictionaries({"normal": normal, "offset": coord})
    if junk:
        bad_normal = st.one_of(JUNK, st.lists(st.one_of(coord, JUNK), min_size=2, max_size=2))
        line = st.one_of(line, st.builds(lambda d: d, st.fixed_dictionaries(
            {}, optional={"normal": st.one_of(normal, bad_normal),
                          "offset": st.one_of(coord, JUNK)})))
    data = {"lines": draw(st.lists(line, max_size=4))}
    if junk and not draw(st.integers(0, 5)):
        data = draw(st.one_of(JUNK, st.lists(line, max_size=2)))
    return ["geom", "cells", FILE], data


CAP = st.sampled_from([[], [], [], ["--cap", "1"], ["--cap", "40"], ["--cap", "-1"]])
# --format, drawn on the verbs with a CSV form: sys audit, ban solve --list
# and the mc verbs, whose csv runs keep every trial's rows.
FORMAT = st.sampled_from(["json", "csv"])
# None leaves SHATTERLAB_CAP unset
ENV_CAP = st.one_of(st.none(), st.integers(0, 40).map(str),
                    st.sampled_from(["", "abc", "5.0", "1e3", "-", "0x10"]))
CALLS = st.one_of(sys_call(), ban_call(), graph_call(), mc_call(), geom_call())


@pytest.fixture(scope="module")
def input_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input.json"


def run_cli(input_path, argv, data, env_cap=None):
    """(exit code, stderr) of ``main(argv)`` with FILE in ``argv`` standing
    for a file holding ``data`` as JSON, under ``SHATTERLAB_CAP`` set to
    ``env_cap`` (None leaves it unset)."""
    if FILE in argv:
        input_path.write_text(json.dumps(data).replace(f'"{OVERFLOW}"', OVERFLOW))
    argv = [str(input_path) if a == FILE else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    saved = os.environ.pop("SHATTERLAB_CAP", None)
    if env_cap is not None:
        os.environ["SHATTERLAB_CAP"] = env_cap
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        os.environ.pop("SHATTERLAB_CAP", None)
        if saved is not None:
            os.environ["SHATTERLAB_CAP"] = saved
    return code, err.getvalue()


@settings(derandomize=True, max_examples=400, deadline=None, database=None)
@given(call=CALLS, env_cap=ENV_CAP)
def test_cli_exit_codes_and_messages(input_path, call, env_cap):
    argv, data = call
    code, stderr = run_cli(input_path, argv, data, env_cap)
    assert code in (0, 1, 2, 3), (argv, data, code)
    assert "Traceback" not in stderr
    if code in ONE_LINE_PREFIXES:
        assert stderr.startswith(ONE_LINE_PREFIXES[code]), (argv, data, stderr)
        assert stderr.count("\n") == 1 and stderr.endswith("\n"), (argv, data, stderr)


def _line(normal=(1, 2), offset=0):
    return {"lines": [{"normal": list(normal), "offset": offset},
                      {"normal": [0, 1], "offset": 1}]}


# Each field the CLI reads as a float, as (argv, data of the non-finite value).
FLOAT_FIELDS = {
    "weight": (["mc", "weaklaw", "--space", FILE, "--set", "0", "--n", "4",
                "--epsilon", "1/4", "--trials", "5"],
               lambda v: {"points": 2, "weights": [v, "1/2"]}),
    "normal": (["geom", "cells", FILE], lambda v: _line(normal=(1, v))),
    "offset": (["geom", "cells", FILE], lambda v: _line(offset=v)),
    "density": (["ban", "solve", FILE],
                lambda v: {"generator": "random", "n": 3, "k": 1, "density": v}),
}


@pytest.mark.parametrize("value", [float("nan"), float("inf"), OVERFLOW],
                         ids=["NaN", "Infinity", OVERFLOW])
@pytest.mark.parametrize("field", FLOAT_FIELDS)
def test_cli_refuses_non_finite_numbers(input_path, field, value):
    """The fixed companion of the fuzz: it seldom draws a non-finite number
    into a field read as a float, so each such field gets NaN, Infinity and
    1e400 here."""
    argv, data_of = FLOAT_FIELDS[field]
    code, stderr = run_cli(input_path, argv, data_of(value))
    assert code == 2, (field, value, stderr)
    assert "Traceback" not in stderr
