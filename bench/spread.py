"""Run the benchmark on several seeds and report each end-to-end metric's
median and spread (interquartile distance over median) against its bound,
and the spread of the times before scaling to nominal machine speed.

    python3 bench/spread.py --workload set-audit --seeds 1-10

Runs one seed at a time with the settings of BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from stats import relative_spread

ROOT = Path(__file__).resolve().parent.parent


def seed_range(text):
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in args.workload:
        runs, raws = [], []
        for seed in args.seeds:
            out = subprocess.run(spec["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
            *_, report, result = map(json.loads, out.stdout.splitlines())
            if not result["correct"]:
                print(f"{workload} seed {seed}: incorrect", file=sys.stderr)
            runs.append({k: v["value"] for k, v in result["metrics"].items()})
            raws.append(report["raw"])
            print(workload, seed, json.dumps(runs[-1]), flush=True)
        for metric in spec["end_to_end"]:
            values = [run[metric["name"]] for run in runs]
            spread = relative_spread(values)
            raw = ""
            if all(metric["name"] in r for r in raws):
                raw = f" (unscaled {relative_spread([r[metric['name']] for r in raws]):.4f})"
            print(f"{workload:12s} {metric['name']:14s} median {statistics.median(values):12.5g} "
                  f"spread {spread:7.4f}{raw} bound {metric['bound']:5.3f} "
                  f"{'ok' if spread < metric['bound'] / 3 else 'WIDE'}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
