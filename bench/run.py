"""shatterlab benchmark: one seeded workload per run, one item at a time.

    python3 bench/run.py --workload ban-solve --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout and imports shatterlab from its
``src``.  A run is a closed loop with one client: each item starts when the
previous one has finished and been checked.  The number of items is fixed
by ``--seconds``: whole cycles of the workload's mix that take about that
long on the reference machine, so two commits run exactly the same items.

``--trace 0`` reports the end-to-end metrics, with item times scaled to
nominal machine speed by a reference kernel timed during the run (see
speed.py).  ``--trace 1`` runs half as
many cycles, each item twice in a row: untraced, then with every public
function of every module wrapped (see tracer.py).  It reports the
per-layer metrics and the tracing overhead.  The last line of stdout is the
JSON result; the line before it is a report holding the machine, the tail
percentile, the failed items and the error rate.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

import stats
import tracer as tracing
from speed import SpeedProbe

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
DEFAULT_SEED = 0
SETUP_SAMPLES = 7
REFERENCE = BENCH / "reference.json"


def _import_library():
    """Import shatterlab from this checkout's src, never from elsewhere."""
    if not (SRC / "shatterlab" / "__init__.py").is_file():
        raise ImportError(f"no shatterlab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import shatterlab
    if Path(shatterlab.__file__).resolve().parent != SRC / "shatterlab":
        raise ImportError(f"imported shatterlab from {shatterlab.__file__}")
    return shatterlab


def digest(canonical):
    text = json.dumps(canonical, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def run_item(item, expected):
    """Time one item's call, then check its result outside the timing.
    Returns (seconds, failure text or None)."""
    start = time.perf_counter()
    try:
        result = item.call()
    except Exception as exc:
        return time.perf_counter() - start, f"raised {type(exc).__name__}: {exc}"
    latency = time.perf_counter() - start
    try:
        problem = item.check(result)
    except Exception as exc:
        problem = f"check raised {type(exc).__name__}: {exc}"
    if problem is None and expected is not None and digest(item.canon(result)) != expected:
        problem = "result differs from the reference digest"
    return latency, problem


def expected_digest(reference, index):
    return reference[index] if index < len(reference) else None


def time_setups(args):
    """Median seconds from starting a fresh interpreter to having the
    workload's inputs ready, over SETUP_SAMPLES child processes."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
            "--setup-only"]
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        with subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True) as child:
            try:
                line = child.stdout.readline()
                samples.append(time.perf_counter() - start)
                child.stdout.read()
                code = child.wait(timeout=60)
            except BaseException:
                child.kill()
                raise
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up child failed with exit code {code}")
    return statistics.median(samples), samples


def machine(seed):
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    import numpy
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                                capture_output=True, text=True, timeout=10)
        commit = commit.stdout.strip() if commit.returncode == 0 else None
    except OSError:
        commit = None
    sources = hashlib.sha256()
    for path in sorted((SRC / "shatterlab").glob("*.py")):
        sources.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"cpu": cpu, "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "seed": seed, "git_commit": commit,
            "source_sha256": sources.hexdigest()}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-only", action="store_true",
                        help="build the inputs, print 'ready' and exit (times set-up)")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    try:
        _import_library()
    except ImportError as exc:
        print(f"bench: cannot import shatterlab: {exc}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"bench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    cycles = workload.cycles(args.seconds)
    if args.trace:
        cycles = max(1, cycles // 2)
    count = cycles * len(workload.cycle)

    with tempfile.TemporaryDirectory(prefix=".inputs-", dir=BENCH) as workdir:
        items = workload.build(args.seed, count, workdir)
        if args.setup_only:
            print("ready", flush=True)
            return 0
        reference = []
        if args.seed == DEFAULT_SEED and REFERENCE.exists():
            reference = json.loads(REFERENCE.read_text())["digests"].get(workload.name, [])
        report = {"workload": workload.name, "item": workload.item, "cycles": cycles,
                  "cycle_items": len(workload.cycle), "machine": machine(args.seed),
                  "reference_digests": sum(d is not None for d in reference)}
        if args.trace:
            result = traced_run(items, reference, workload, report)
        else:
            result = untraced_run(items, reference, args, report)

    failures = result.pop("failures")
    unexpected = [(index, item, text) for index, item, text in failures if not item.defect]
    kinds = Counter((item.label, text, bool(item.defect)) for _, item, text in failures)
    report["failures"] = [{"kind": label, "error": text, "count": n, "known_defect": known}
                          for (label, text, known), n in sorted(kinds.items())]
    report["known_defect_inputs"] = sorted({item.defect for item in items if item.defect})
    report["error_rate"] = len(failures) / result["attempted"]
    report["unexpected_failures"] = len(unexpected)
    for index, item, text in unexpected:
        print(f"bench: item {index} ({item.label}) failed: {text}", file=sys.stderr)
    correct = not unexpected and not report.get("zero_counters")
    print(json.dumps(report, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": len(failures), "metrics": result["metrics"]}))
    return 0


def untraced_run(items, reference, args, report):
    """End-to-end metrics.  Item times are scaled to nominal machine speed
    by the speed probe (see speed.py); the report keeps the raw ones.
    Set-up time is not scaled: it is mostly process start and imports,
    which the kernel does not track."""
    setup_s, setup_samples = time_setups(args)
    probe = SpeedProbe()
    probe.sample()
    start = time.perf_counter()
    latencies, failures = [], []
    for index, item in enumerate(items):
        latency, problem = run_item(item, expected_digest(reference, index))
        latencies.append(latency)
        probe.after(latency)
        if problem:
            failures.append((index, item, problem))
    report["wall_s"] = time.perf_counter() - start
    summary = stats.latency_summary(latencies)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    raw = {"items_per_s": len(items) / sum(latencies), "item_p50_ms": summary["p50_ms"],
           "item_tail_ms": summary["tail_ms"]}
    speed = probe.factor()
    report.update(setup_samples_s=setup_samples, latency=summary, raw=raw,
                  speed={"factor": speed, "samples": len(probe.samples)})
    metrics = {
        "items_per_s": {"value": raw["items_per_s"] / speed, "unit": "1/s"},
        "item_p50_ms": {"value": raw["item_p50_ms"] * speed, "unit": "ms"},
        "item_tail_ms": {"value": raw["item_tail_ms"] * speed, "unit": "ms"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        "success_rate": {"value": 1 - len(failures) / len(items), "unit": "ratio"},
    }
    return {"attempted": len(items), "failures": failures, "metrics": metrics}


def traced_run(items, reference, workload, report):
    """Run every item twice in a row, untraced and then traced, so that
    both sides of the overhead see the same warm-up.  The untraced call
    goes through the inactive wrappers, which cost one flag test each."""
    tracer = tracing.Tracer()
    found = tracer.install(tracing.shatterlab_targets(), tracing.shatterlab_modules())
    report["patched_bindings"] = dict(sorted(found.items()))
    untraced = traced = 0.0
    failures = []
    probe = SpeedProbe()
    probe.sample()
    try:
        for index, item in enumerate(items):
            expected = expected_digest(reference, index)
            latency, problem = run_item(item, expected)
            untraced += latency
            if problem:
                failures.append((index, item, problem))
            tracer.active = True
            try:
                latency, problem = run_item(item, expected)
            finally:
                tracer.active = False
            traced += latency
            probe.after(latency)
            if problem:
                failures.append((index, item, problem))
    finally:
        tracer.uninstall()
    report["speed"] = {"factor": probe.factor(), "samples": len(probe.samples)}
    metrics = tracing.per_layer_metrics(tracer, probe.factor())
    metrics[tracing.OVERHEAD_SPEC["name"]] = {"value": 100 * (traced / untraced - 1),
                                              "unit": tracing.OVERHEAD_SPEC["unit"]}
    report["zero_counters"] = [name for name in workload.nonzero
                               if not metrics[name]["value"]]
    for name in report["zero_counters"]:
        print(f"bench: {name} is zero on {workload.name}; a wrapper was bypassed",
              file=sys.stderr)
    return {"attempted": 2 * len(items), "failures": failures, "metrics": metrics}


if __name__ == "__main__":
    sys.exit(main())
