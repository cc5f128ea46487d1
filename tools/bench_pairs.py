"""Run the benchmark on a parent and a change checkout in alternating pairs
and write the runs and their summary as one BENCH_<label>.json.

    python3 tools/bench_pairs.py --parent ../parent --change ../change \\
        --label my-change --what "what the change does" \\
        --pairs set-audit=10 --pairs mc-tail=5 --traced set-audit --aa mc-tail

Both checkouts are git clones of their commit.  Each run is
``python3 bench/run.py --workload W --seed S --seconds T --trace 0|1`` from
the root of one checkout, with S the ``--seed`` (default 0, the seed whose
results ``bench/reference.json`` digests; a run at another seed checks no
digest), one process at a time, with T the change's
``BENCHMARK.json`` ``run_seconds``.  Pair p runs the parent first when p is
even and the change first when p is odd.  ``--traced`` adds one
``--trace 1`` pair per named workload.  ``--aa`` adds one pair per named
workload of the parent against a fresh ``git clone`` of it, made beside it
as ``<parent>-aa`` and removed afterwards: the A/A control, which shows the
spread two identical sides read.  The metric bounds come from the same
``BENCHMARK.json``.  The file is written to the current directory and
rewritten after every run, so an interrupted run keeps the runs it made.

``--kinds WORKLOAD=R`` times each item kind of the workload in-process, in
R rounds.  A round starts one timing process per side: the parent, the
change, and the parent again as "parent2", the A/A control.  Round r starts
with side r mod 3.  Each process imports the library from its checkout's
``src`` and builds the first KIND_CYCLES cycles of seed-S items from its
checkout's ``bench/workloads.py``, writing no file there.  It times every
item best of KIND_REPEATS passes with ``time.perf_counter``, building the
items afresh for each pass, and a kind's time is the sum over its items.
The summary gives each side's times and best time per kind over the
rounds, and the change/parent and parent2/parent ratios beside each other:
each the median over rounds of the ratio of the two sides' times within
one round.  Beside each kind's ratio stands its "relative" ratio, the
median over rounds of the kind's ratio in a round divided by the median
of all kinds' ratios in that round, so a process that ran every kind
slower moves no kind's relative ratio; the plain ratios and the total
still show a change that slows every kind.

After the last write, the summaries are printed to stderr as plain text
(``summary_lines``).
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

# The default seed, whose results bench/reference.json digests, so every
# run at it also checks that no result changed.
SEED = 0
# Per-kind timing: cycles of items per process, and passes over them.  On
# cli-queries, 10 passes read A/A ratios 0.035-0.099 wide over the kinds in
# three 6-round runs, where 3 passes read 0.081-0.144 (2-vCPU Xeon).
KIND_CYCLES = 8
KIND_REPEATS = 10
# Unscaled item metrics that bench/run.py keeps in each run's report line
# ("raw"), beside the speed factor it scaled them by.
RAW_METRICS = ("items_per_s", "item_p50_ms", "item_tail_ms")


def _spread(values):
    if not values:
        return {"median": None, "q1": None, "q3": None, "values": values}
    q1, median, q3 = (float(q) for q in np.percentile(values, [25, 50, 75]))
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def _better(a, b, better):
    return b > a if better == "higher" else b < a


def _raw_medians(group, side):
    reports = [run["report"] for run in group if run["side"] == side and run["report"]]
    out = {name: _spread([r["raw"][name] for r in reports if "raw" in r])["median"]
           for name in RAW_METRICS}
    out["speed_factor"] = _spread(
        [r["speed"]["factor"] for r in reports if "speed" in r])["median"]
    return out


def summarize(runs, spec, sides):
    """One row per (workload, seed, trace) of ``runs``, in order of first
    appearance.  Per end-to-end metric of ``spec`` (BENCHMARK.json's
    ``end_to_end`` entries): each side's median and quartiles (numpy linear
    percentiles) over its per-pair values, the pairs in which side b =
    ``sides[1]`` read better than side a = ``sides[0]``, b's median relative
    worsening against a's, and whether it lies within the metric's bound.
    A run without a result counts in neither side's values and makes the
    row incorrect.  ``raw`` holds each side's medians over its run reports
    of the unscaled RAW_METRICS and of the speed factor, None where no
    report has the value."""
    a, b = sides
    groups = {}
    for run in runs:
        groups.setdefault((run["workload"], run["seed"], run["trace"]), []).append(run)
    rows = []
    for (workload, seed, trace), group in groups.items():
        by_pair = {}
        for run in group:
            by_pair.setdefault(run["pair"], {})[run["side"]] = run["result"]
        results = [r for r in (run["result"] for run in group) if r is not None]
        row = {"workload": workload, "seed": seed, "trace": trace,
               "pairs": len(by_pair), "sides": [a, b],
               "correct": len(results) == len(group) and all(r["correct"] for r in results),
               "failed": sum(r["failed"] for r in results), "metrics": {},
               "raw": {side: _raw_medians(group, side) for side in sides}}
        for metric in spec:
            name, better = metric["name"], metric["better"]
            values = {side: [pair[side]["metrics"][name]["value"]
                             for _, pair in sorted(by_pair.items())
                             if pair.get(side) is not None]
                      for side in sides}
            entry = {side: _spread(values[side]) for side in sides}
            entry["b_better_pairs"] = sum(
                1 for pair in by_pair.values()
                if pair.get(a) is not None and pair.get(b) is not None
                and _better(pair[a]["metrics"][name]["value"],
                            pair[b]["metrics"][name]["value"], better))
            ma, mb = entry[a]["median"], entry[b]["median"]
            if ma is None or mb is None:
                entry["relative_worsening"], entry["within_bound"] = None, False
            else:
                worse = (ma - mb if better == "higher" else mb - ma)
                entry["relative_worsening"] = worse / ma if ma else 0.0
                entry["within_bound"] = entry["relative_worsening"] <= metric["bound"]
            row["metrics"][name] = entry
        rows.append(row)
    return rows


def summarize_kinds(records, sides):
    """One row per workload of ``records``, in order of first appearance.
    Per item kind, and for the sum of all kinds ("total"), each side's
    per-process times over the rounds and their best, and for each later
    side the median over rounds of its time's ratio to the time of
    ``sides[0]`` in the same round, so one fast or slow process moves one
    ratio of the median rather than the summary.  Each kind but "total"
    also gets ``"<side>/<base> relative"``: the median over rounds of its
    ratio in a round over the median of all kinds' ratios in that round,
    which a whole process's speed does not move.  A record without times
    counts in no side's values and makes the row incomplete; a round
    without both times gives no ratio."""
    base = sides[0]
    groups = {}
    for record in records:
        groups.setdefault(record["workload"], []).append(record)
    rows = []
    for workload, group in groups.items():
        timed = [(r["round"], r["side"], {**r["kinds"], "total": sum(r["kinds"].values())})
                 for r in group if r["kinds"] is not None]
        labels = dict.fromkeys(label for _, _, kinds in timed for label in kinds)
        labels.pop("total", None)
        row = {"workload": workload, "rounds": len({r["round"] for r in group}),
               "sides": list(sides), "complete": len(timed) == len(group), "kinds": {}}
        ratios = {}  # (side, label) -> {round: ratio}
        for label in [*labels, "total"]:
            entry, times = {}, {}
            for side in sides:
                times[side] = {rnd: kinds[label] for rnd, who, kinds in timed
                               if who == side and label in kinds}
                values = list(times[side].values())
                entry[side] = {"best": min(values, default=None), "values": values}
            for side in sides[1:]:
                ratios[side, label] = {rnd: seconds / times[base][rnd]
                                       for rnd, seconds in times[side].items()
                                       if times[base].get(rnd)}
                entry[f"{side}/{base}"] = _spread(list(ratios[side, label].values()))["median"]
            row["kinds"][label] = entry
        for side in sides[1:]:
            rounds = {}
            for label in labels:
                for rnd, ratio in ratios[side, label].items():
                    rounds.setdefault(rnd, []).append(ratio)
            scale = {rnd: _spread(values)["median"] for rnd, values in rounds.items()}
            for label in labels:
                relative = [ratio / scale[rnd] for rnd, ratio in ratios[side, label].items()]
                row["kinds"][label][f"{side}/{base} relative"] = _spread(relative)["median"]
        rows.append(row)
    return rows


def _number(value):
    return "-" if value is None else f"{value:.4g}"


def summary_lines(rows, kind_rows):
    """Plain-text lines of ``summarize`` rows (per workload and metric:
    each side's median, the pairs in which the second side read better,
    and whether it is within the bound; then, where a report had them, each
    side's raw medians and speed factor) and of ``summarize_kinds`` rows
    (per kind: each later side's paired median ratio to the first side and
    its relative ratio)."""
    lines = []
    for row in rows:
        a, b = row["sides"]
        state = "correct" if row["correct"] else "INCORRECT"
        lines.append(f"{row['workload']} trace {row['trace']}: {row['pairs']} pairs, "
                     f"{state}, {row['failed']} failed")
        width = max(map(len, row["metrics"]), default=0)
        for name, entry in row["metrics"].items():
            bound = "within bound" if entry["within_bound"] else "OUT OF BOUND"
            lines.append(f"  {name:<{width}}  {a} {_number(entry[a]['median'])}  "
                         f"{b} {_number(entry[b]['median'])}  {b} better in "
                         f"{entry['b_better_pairs']}/{row['pairs']}  {bound}")
        raw = row["raw"]
        if any(value is not None for side in raw.values() for value in side.values()):
            labels = {f"raw {name}": name for name in RAW_METRICS}
            labels["speed factor"] = "speed_factor"
            width = max(map(len, labels))
            for label, name in labels.items():
                lines.append(f"  {label:<{width}}  {a} {_number(raw[a][name])}  "
                             f"{b} {_number(raw[b][name])}")
    for row in kind_rows:
        base, *later = row["sides"]
        ratios = [f"{side}/{base}" for side in later]
        state = "" if row["complete"] else ", INCOMPLETE"
        lines.append(f"{row['workload']} kinds: {row['rounds']} rounds{state}")
        width = max(map(len, row["kinds"]), default=0)
        lines.append(f"  {'kind':<{width}}"
                     + "".join(f"  {r:>14}  {'relative':>8}" for r in ratios))
        for label, entry in row["kinds"].items():
            lines.append(f"  {label:<{width}}" + "".join(
                f"  {_number(entry[r]):>14}  {_number(entry.get(f'{r} relative')):>8}"
                for r in ratios))
    return lines


def best_item_times(build, repeats):
    """The labels of the items ``build()`` returns, and each item's best
    time over ``repeats`` passes.  Every pass times items built afresh, so
    a cache an item keeps on its inputs is never timed warm."""
    best = None
    for _ in range(repeats):
        items = build()
        times = []
        for item in items:
            start = time.perf_counter()
            item.call()
            times.append(time.perf_counter() - start)
        best = times if best is None else list(map(min, best, times))
    return [item.label for item in items], best


def time_kinds(root, workload, seed):
    """Seconds per item kind of ``workload``'s first KIND_CYCLES ``seed``
    cycles, built from checkout ``root``: each item best of KIND_REPEATS
    passes, each pass over items built afresh, summed per kind.  Runs in
    its own process."""
    sys.dont_write_bytecode = True
    src = Path(root).resolve() / "src"
    sys.path[:0] = [str(src), str(src.parent / "bench")]
    import shatterlab
    if Path(shatterlab.__file__).resolve().parent != src / "shatterlab":
        raise ImportError(f"imported shatterlab from {shatterlab.__file__}")
    from workloads import WORKLOADS

    spec = WORKLOADS[workload]
    with tempfile.TemporaryDirectory() as workdir:
        labels, best = best_item_times(
            lambda: spec.build(seed, KIND_CYCLES * len(spec.cycle), workdir), KIND_REPEATS)
    kinds = {}
    for label, seconds in zip(labels, best):
        kinds[label] = kinds.get(label, 0.0) + seconds
    return kinds


def run_kind_rounds(sides, workload, rounds, seed, sink):
    """``rounds`` rounds of one ``time_kinds`` process per (side, root) of
    ``sides``, the starting side rotating by one each round."""
    for rnd in range(rounds):
        shift = rnd % len(sides)
        for position, (side, root) in enumerate(sides[shift:] + sides[:shift]):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--time-kinds", str(root),
                 workload, str(seed)],
                capture_output=True, text=True, check=False)
            kinds = None
            try:
                kinds = json.loads(proc.stdout.strip().splitlines()[-1])
            except (IndexError, json.JSONDecodeError):
                sys.stderr.write(proc.stderr)
            sink({"workload": workload, "round": rnd, "side": side, "position": position,
                  "returncode": proc.returncode, "kinds": kinds})
            state = "ok" if kinds else "FAILED"
            print(f"{workload} kinds round {rnd} {side}: {state}", file=sys.stderr)


def run_once(root, workload, seed, seconds, trace):
    """One bench/run.py process in checkout ``root``: its return code, the
    report (the line before the last) and the result (the last line)."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    report = result = None
    try:
        report, result = json.loads(lines[-2]), json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(proc.stderr)
    return proc.returncode, report, result


def run_pairs(checkouts, workload, seed, seconds, trace, pairs, sink):
    """``pairs`` alternating pairs of the two (side, root) ``checkouts``;
    each run record goes to ``sink`` as soon as it exists."""
    for pair in range(pairs):
        order = checkouts if pair % 2 == 0 else checkouts[::-1]
        for position, (side, root) in enumerate(order):
            code, report, result = run_once(root, workload, seed, seconds, trace)
            sink({"workload": workload, "seed": seed, "trace": trace, "pair": pair,
                  "side": side, "position": position, "returncode": code,
                  "report": report, "result": result})
            state = "ok" if result and result["correct"] else "FAILED"
            print(f"{workload} trace {trace} pair {pair} {side}: {state}", file=sys.stderr)


def _side_id(runs, side):
    for run in runs:
        if run["side"] == side and run["report"]:
            machine = run["report"]["machine"]
            return {"git_commit": machine.get("git_commit"),
                    "source_sha256": machine.get("source_sha256")}
    return None


def _machine(runs):
    for run in runs:
        if run["report"]:
            machine = run["report"]["machine"]
            return {key: machine[key] for key in ("cpu", "nproc", "numpy", "python")}
    return None


def _workload_counts(text):
    name, _, count = text.partition("=")
    return name, int(count or 1)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, type=Path)
    parser.add_argument("--change", required=True, type=Path)
    parser.add_argument("--label", required=True)
    parser.add_argument("--what", required=True)
    parser.add_argument("--pairs", action="append", default=[], type=_workload_counts,
                        metavar="WORKLOAD=N", help="N alternating --trace 0 pairs")
    parser.add_argument("--traced", action="append", default=[], metavar="WORKLOAD")
    parser.add_argument("--aa", action="append", default=[], metavar="WORKLOAD")
    parser.add_argument("--kinds", action="append", default=[], type=_workload_counts,
                        metavar="WORKLOAD=R", help="R rounds of per-kind timing")
    parser.add_argument("--seed", type=int, default=SEED,
                        help=f"workload seed of every run and kind (default {SEED})")
    args = parser.parse_args(argv)
    benchmark = json.loads((args.change / "BENCHMARK.json").read_text())
    spec, seconds = benchmark["end_to_end"], benchmark["run_seconds"]
    sides = [("parent", args.parent.resolve()), ("change", args.change.resolve())]
    runs, traced, aa_runs, kind_runs = [], [], [], []
    kind_sides = sides + [("parent2", sides[0][1])]
    doc = {
        "label": args.label, "what": args.what,
        "command": f"python3 bench/run.py --workload W --seed {args.seed} --seconds {seconds} "
                   "--trace T, run from the root of each checkout",
        "procedure": (
            "parent and change are each a git clone of their commit; each pair runs "
            "both sides back to back, parent first in even pairs and change first in "
            "odd pairs; one process at a time; "
            + ", ".join(f"{n} pairs of {w}" for w, n in args.pairs)
            + " at --trace 0 (runs); one --trace 1 pair of each of "
            + (", ".join(args.traced) or "no workload")
            + " (traced); aa_control holds one pair of the parent against a second "
            "git clone of the parent commit (parent2) on each of "
            + (", ".join(args.aa) or "no workload")
            + ". Quartiles are numpy linear percentiles over the pairs."),
        "kinds_procedure": (
            ", ".join(f"{n} rounds of {w}" for w, n in args.kinds)
            + f" of per-kind timing: the first {KIND_CYCLES} seed-{args.seed} cycles, each "
            f"item best of {KIND_REPEATS} passes, each over items built afresh, in one "
            "process per side and round "
            "(parent, change, and the parent again as parent2, the starting side "
            "rotating); each ratio is the median over rounds of the side's time "
            "over the parent's time in the same round")
        if args.kinds else None,
    }
    out = Path(f"BENCH_{args.label}.json")

    def write():
        everything = runs + traced + aa_runs
        doc.update({"machine": _machine(everything),
                    "parent": _side_id(everything, "parent"),
                    "change": _side_id(everything, "change"),
                    "summary": summarize(runs, spec, ["parent", "change"]),
                    "runs": runs, "traced": traced,
                    "aa_control": {"summary": summarize(aa_runs, spec, ["parent", "parent2"]),
                                   "runs": aa_runs},
                   "kinds": {"summary": summarize_kinds(
                       kind_runs, [side for side, _ in kind_sides]), "runs": kind_runs}})
        out.write_text(json.dumps(doc, indent=1) + "\n")

    def sink_into(records):
        def sink(record):
            records.append(record)
            write()
        return sink

    for workload, count in args.pairs:
        run_pairs(sides, workload, args.seed, seconds, 0, count, sink_into(runs))
    for workload in args.traced:
        run_pairs(sides, workload, args.seed, seconds, 1, 1, sink_into(traced))
    for workload, count in args.kinds:
        run_kind_rounds(kind_sides, workload, count, args.seed, sink_into(kind_runs))
    if args.aa:
        twin = sides[0][1].with_name(sides[0][1].name + "-aa")
        subprocess.run(["git", "clone", "--quiet", str(sides[0][1]), str(twin)],
                       check=True)
        try:
            for workload in args.aa:
                run_pairs([sides[0], ("parent2", twin)], workload, args.seed, seconds, 0,
                          1, sink_into(aa_runs))
        finally:
            shutil.rmtree(twin)
    write()
    print("\n".join(summary_lines(doc["summary"] + doc["aa_control"]["summary"],
                                  doc["kinds"]["summary"])), file=sys.stderr)
    return 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--time-kinds"]:
        root, workload, seed = sys.argv[2:5]
        print(json.dumps(time_kinds(root, workload, int(seed))))
        sys.exit(0)
    sys.exit(main())
