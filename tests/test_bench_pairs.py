"""The summary and timing steps of tools/bench_pairs.py on synthetic records."""

import importlib.util
import json
import subprocess
import time
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

SPEC = [{"name": "items_per_s", "better": "higher", "bound": 0.25},
        {"name": "setup_s", "better": "lower", "bound": 0.25}]


def record(workload, pair, side, items_per_s, setup_s, correct=True, failed=0, trace=0):
    metrics = {"items_per_s": {"value": items_per_s, "unit": "1/s"},
               "setup_s": {"value": setup_s, "unit": "s"}}
    return {"workload": workload, "seed": 0, "trace": trace, "pair": pair, "side": side,
            "position": 0, "returncode": 0, "report": None,
            "result": {"correct": correct, "attempted": 10, "failed": failed,
                       "metrics": metrics}}


def test_summary_reads_medians_quartiles_wins_and_worsening():
    runs = []
    # parent 100, 110, 120, 130 items/s; change 150, 100, 200, 180
    for pair, (p, c) in enumerate([(100, 150), (110, 100), (120, 200), (130, 180)]):
        runs += [record("w", pair, "parent", p, 1.0), record("w", pair, "change", c, 1.5)]
    (row,) = bench_pairs.summarize(runs, SPEC, ["parent", "change"])
    assert (row["workload"], row["pairs"], row["sides"]) == ("w", 4, ["parent", "change"])
    assert row["correct"] and row["failed"] == 0
    items = row["metrics"]["items_per_s"]
    assert items["parent"] == {"median": 115.0, "q1": 107.5, "q3": 122.5,
                               "values": [100, 110, 120, 130]}
    assert items["change"]["median"] == 165.0
    assert items["change"]["values"] == [150, 100, 200, 180]
    assert items["b_better_pairs"] == 3
    assert items["relative_worsening"] == pytest.approx((115 - 165) / 115)
    assert items["within_bound"]
    setup = row["metrics"]["setup_s"]
    assert setup["b_better_pairs"] == 0
    assert setup["relative_worsening"] == pytest.approx(0.5)
    assert not setup["within_bound"]


def test_summary_groups_by_workload_and_trace_and_names_the_sides():
    runs = [record("a", 0, "parent", 10, 1.0), record("a", 0, "parent2", 10, 1.0),
            record("b", 0, "parent2", 12, 1.0), record("b", 0, "parent", 11, 1.0),
            record("a", 0, "parent", 9, 1.0, trace=1),
            record("a", 0, "parent2", 9, 1.0, trace=1)]
    rows = bench_pairs.summarize(runs, SPEC, ["parent", "parent2"])
    assert [(r["workload"], r["trace"]) for r in rows] == [("a", 0), ("b", 0), ("a", 1)]
    a, b, _ = rows
    assert a["metrics"]["items_per_s"]["b_better_pairs"] == 0  # a tie wins nothing
    assert a["metrics"]["items_per_s"]["relative_worsening"] == 0
    assert b["metrics"]["items_per_s"]["b_better_pairs"] == 1
    assert b["metrics"]["items_per_s"]["parent2"]["values"] == [12]


def test_summary_marks_failed_and_missing_runs():
    runs = [record("w", 0, "parent", 10, 1.0), record("w", 0, "change", 12, 1.0, failed=2,
                                                      correct=False),
            record("w", 1, "change", 11, 1.0), dict(record("w", 1, "parent", 0, 0),
                                                    result=None, returncode=1)]
    (row,) = bench_pairs.summarize(runs, SPEC, ["parent", "change"])
    assert not row["correct"] and row["failed"] == 2
    items = row["metrics"]["items_per_s"]
    assert items["parent"]["values"] == [10] and items["change"]["values"] == [12, 11]
    assert items["b_better_pairs"] == 1  # the pair without a parent result counts for neither

    (empty,) = bench_pairs.summarize([dict(record("w", 0, "parent", 1, 1), result=None)],
                                     SPEC, ["parent", "change"])
    assert empty["metrics"]["items_per_s"]["relative_worsening"] is None
    assert not empty["metrics"]["items_per_s"]["within_bound"]


def kind_record(workload, rnd, side, kinds):
    return {"workload": workload, "round": rnd, "side": side, "position": 0,
            "returncode": 0 if kinds is not None else 1, "kinds": kinds}


SIDES = ["parent", "change", "parent2"]


def test_kind_summary_reads_best_times_and_ratios_per_kind():
    records = []
    # two rounds; kind "vc" 3x faster at the change, "tree" unchanged
    for rnd, (p, c, p2) in enumerate([((3.0, 1.0), (1.1, 1.0), (3.3, 1.1)),
                                      ((3.3, 1.2), (1.0, 0.9), (3.0, 1.0))]):
        for side, (vc, tree) in zip(SIDES, (p, c, p2)):
            records.append(kind_record("w", rnd, side, {"vc": vc, "tree": tree}))
    (row,) = bench_pairs.summarize_kinds(records, SIDES)
    assert (row["workload"], row["rounds"], row["sides"], row["complete"]) == (
        "w", 2, SIDES, True)
    assert list(row["kinds"]) == ["vc", "tree", "total"]
    vc = row["kinds"]["vc"]
    assert vc["parent"] == {"best": 3.0, "values": [3.0, 3.3]}
    assert vc["change"]["best"] == 1.0 and vc["parent2"]["best"] == 3.0
    assert vc["change/parent"] == pytest.approx(1 / 3)
    assert vc["parent2/parent"] == pytest.approx(1.0)
    tree = row["kinds"]["tree"]
    assert tree["change/parent"] == pytest.approx(0.9)
    assert tree["parent2/parent"] == pytest.approx(1.0)
    total = row["kinds"]["total"]
    assert total["parent"]["values"] == pytest.approx([4.0, 4.5])
    assert total["change"]["best"] == pytest.approx(1.9)
    assert total["change/parent"] == pytest.approx(1.9 / 4.0)


def test_kind_summary_groups_by_workload_and_marks_missing_times():
    records = [kind_record("a", 0, "parent", {"x": 2.0}),
               kind_record("a", 0, "change", None),
               kind_record("a", 0, "parent2", {"x": 2.2}),
               kind_record("b", 0, "parent2", {"y": 1.0}),
               kind_record("b", 0, "change", {"y": 0.5}),
               kind_record("b", 0, "parent", {"y": 1.0})]
    a, b = bench_pairs.summarize_kinds(records, SIDES)
    assert (a["workload"], a["complete"], b["workload"], b["complete"]) == (
        "a", False, "b", True)
    x = a["kinds"]["x"]
    assert x["change"] == {"best": None, "values": []}
    assert x["change/parent"] is None
    assert x["parent2/parent"] == pytest.approx(1.1)
    assert b["kinds"]["y"]["change/parent"] == pytest.approx(0.5)

    (none,) = bench_pairs.summarize_kinds([kind_record("c", 0, "parent", None)], SIDES)
    assert not none["complete"]
    assert none["kinds"]["total"]["change/parent"] is None


class CachingItem:
    """An item whose first call fills a cache on its input and sleeps; later
    calls on the same object return at once."""

    def __init__(self, label):
        self.label, self.calls = label, 0

    def call(self):
        self.calls += 1
        if self.calls == 1:
            time.sleep(0.01)


def test_best_item_times_builds_the_items_afresh_for_every_pass():
    built = []

    def build():
        items = [CachingItem("a"), CachingItem("b"), CachingItem("a")]
        built.append(items)
        return items

    labels, best = bench_pairs.best_item_times(build, 3)
    assert labels == ["a", "b", "a"]
    assert len(built) == 3
    assert all(item.calls == 1 for items in built for item in items)
    # every pass read a cold cache, so no best time is a warm read
    assert len(best) == 3 and min(best) >= 0.01


def test_summary_lines_read_the_summary_rows():
    runs = []
    for pair, (p, c) in enumerate([(100, 150), (110, 100), (120, 200)]):
        runs += [record("w", pair, "parent", p, 1.0), record("w", pair, "change", c, 1.5)]
    rows = bench_pairs.summarize(runs, SPEC, ["parent", "change"])
    rows += bench_pairs.summarize(
        [record("w", 0, "parent", 100, 1.0), record("w", 0, "parent2", 99, 1.0)],
        SPEC, ["parent", "parent2"])
    records = [kind_record("w", 0, "parent", {"vc": 3.0, "tree": 1.0}),
               kind_record("w", 0, "change", {"vc": 1.0, "tree": 1.0}),
               kind_record("w", 0, "parent2", None)]
    kind_rows = bench_pairs.summarize_kinds(records, SIDES)
    assert bench_pairs.summary_lines(rows, kind_rows) == [
        "w trace 0: 3 pairs, correct, 0 failed",
        "  items_per_s  parent 110  change 150  change better in 2/3  within bound",
        "  setup_s      parent 1  change 1.5  change better in 0/3  OUT OF BOUND",
        "w trace 0: 1 pairs, correct, 0 failed",
        "  items_per_s  parent 100  parent2 99  parent2 better in 0/1  within bound",
        "  setup_s      parent 1  parent2 1  parent2 better in 0/1  within bound",
        "w kinds: 1 rounds, INCOMPLETE",
        "  kind    change/parent  parent2/parent",
        "  vc             0.3333               -",
        "  tree                1               -",
        "  total             0.5               -",
    ]
    assert bench_pairs.summary_lines([], []) == []


def with_report(run, items_per_s, p50_ms, tail_ms, factor):
    raw = {"items_per_s": items_per_s, "item_p50_ms": p50_ms, "item_tail_ms": tail_ms}
    return dict(run, report={"raw": raw, "speed": {"factor": factor, "samples": 8}})


def test_summary_reads_raw_medians_and_speed_factors_from_the_reports():
    runs = []
    # scaled items/s = raw / factor: the change reads +30% scaled, +10% raw
    for pair, (factor_p, factor_c) in enumerate([(1.0, 0.85), (1.1, 0.9), (0.9, 0.8)]):
        runs += [with_report(record("w", pair, "parent", 100 / factor_p, 1.0),
                             100 + pair, 6.0 + pair, 36.0, factor_p),
                 with_report(record("w", pair, "change", 110 / factor_c, 1.0),
                             110 + pair, 5.5, 28.0 + pair, factor_c)]
    # a run without a report, as when bench/run.py printed nothing
    runs.append(dict(record("w", 3, "change", 1, 1.0), report=None))
    # a traced report carries a speed factor but no raw item metrics
    traced = [dict(record("w", 0, "parent", 1, 1.0, trace=1),
                   report={"speed": {"factor": 1.2, "samples": 8}})]
    row, traced_row = bench_pairs.summarize(runs + traced, SPEC, ["parent", "change"])
    assert row["raw"] == {
        "parent": {"items_per_s": 101, "item_p50_ms": 7.0, "item_tail_ms": 36.0,
                   "speed_factor": 1.0},
        "change": {"items_per_s": 111, "item_p50_ms": 5.5, "item_tail_ms": 29.0,
                   "speed_factor": 0.85}}
    assert traced_row["raw"]["parent"] == {"items_per_s": None, "item_p50_ms": None,
                                           "item_tail_ms": None, "speed_factor": 1.2}
    assert traced_row["raw"]["change"]["speed_factor"] is None
    lines = bench_pairs.summary_lines([row, traced_row], [])
    assert lines[3:7] == [
        "  raw items_per_s   parent 101  change 111",
        "  raw item_p50_ms   parent 7  change 5.5",
        "  raw item_tail_ms  parent 36  change 29",
        "  speed factor      parent 1  change 0.85",
    ]
    assert lines[-1] == "  speed factor      parent 1.2  change -"


def test_seed_reaches_every_run_and_the_recorded_command(tmp_path, monkeypatch):
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
    (tmp_path / "change" / "BENCHMARK.json").write_text(json.dumps(
        {"end_to_end": SPEC, "run_seconds": 3}))
    commands = []
    result = {"correct": True, "attempted": 10, "failed": 0,
              "metrics": {"items_per_s": {"value": 10.0}, "setup_s": {"value": 1.0}}}

    def fake_run(command, **kwargs):
        commands.append(command)
        if "--time-kinds" in command:
            stdout = json.dumps({"vc": 1.0})
        else:
            machine = {"cpu": "x", "nproc": 2, "numpy": "2", "python": "3"}
            stdout = json.dumps({"machine": machine}) + "\n" + json.dumps(result)
        return subprocess.CompletedProcess(command, 0, stdout=stdout, stderr="")

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    monkeypatch.chdir(tmp_path)

    def main(*extra):
        commands.clear()
        assert bench_pairs.main(["--parent", "parent", "--change", "change",
                                 "--label", "s", "--what", "seed", "--pairs", "w=1",
                                 "--traced", "w", "--kinds", "w=1", *extra]) == 0
        return json.loads((tmp_path / "BENCH_s.json").read_text())

    doc = main("--seed", "1")
    runs = [c for c in commands if "bench/run.py" in c]
    kinds = [c for c in commands if "--time-kinds" in c]
    assert len(runs) == 4 and len(kinds) == 3
    assert all(c[c.index("--seed") + 1] == "1" for c in runs)
    assert all(c[-1] == "1" for c in kinds)
    assert "--seed 1 " in doc["command"] and "seed-1 cycles" in doc["kinds_procedure"]
    assert {run["seed"] for run in doc["runs"] + doc["traced"]} == {1}
    assert doc["summary"][0]["seed"] == 1
    doc = main()
    assert "--seed 0 " in doc["command"]
    assert all(c[c.index("--seed") + 1] == "0" for c in commands if "bench/run.py" in c)
