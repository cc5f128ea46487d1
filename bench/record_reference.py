"""Record the reference digest of every item of every workload for the
default seed, at the run length of BENCHMARK.json:

    python3 bench/record_reference.py

Digests are listed in item order.  Only items that pass their check are
recorded (the others are null), so a known-defect input that gets fixed
later does not read as a changed result.  Refuses to write when any other
item fails.  Run it only when a result is meant to change.
"""

from __future__ import annotations

import json
import sys
import tempfile

import run


def main():
    run._import_library()
    from workloads import WORKLOADS

    seconds = json.loads((run.ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    digests = {}
    for workload in WORKLOADS.values():
        count = workload.cycles(seconds) * len(workload.cycle)
        with tempfile.TemporaryDirectory(prefix=".inputs-", dir=run.BENCH) as workdir:
            items = workload.build(run.DEFAULT_SEED, count, workdir)
            recorded = []
            for index, item in enumerate(items):
                try:
                    result = item.call()
                except Exception as exc:
                    problem = f"raised {type(exc).__name__}"
                else:
                    problem = item.check(result)
                recorded.append(run.digest(item.canon(result)) if problem is None else None)
                if problem is not None and not item.defect:
                    print(f"item {index} ({item.label}) fails: {problem}",
                          file=sys.stderr)
                    return 1
        digests[workload.name] = recorded
        print(f"{workload.name}: {count - recorded.count(None)} of {count} items recorded",
              flush=True)
    lines = [f'  "{name}": {json.dumps(values)}' for name, values in digests.items()]
    run.REFERENCE.write_text(
        f'{{"seed": {run.DEFAULT_SEED}, "run_seconds": {seconds}, "digests": {{\n'
        + ",\n".join(lines) + "\n}}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
