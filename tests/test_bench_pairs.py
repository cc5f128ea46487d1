"""The summary step of tools/bench_pairs.py on synthetic run records."""

import importlib.util
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
