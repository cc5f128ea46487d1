"""Time the VC search on a grid of seeded families.

    python3 tools/vc_grid.py [--points 8:64,12:256,...] [--powersets 12,14,16]
        [--dense 10,12,14]

For every point n:size of ``--points`` it draws ``size`` distinct masks
over [n] from ``random.Random(f"0:{n}:{size}")``; the default points
are sparse families (2|F| <= 2^n) with n = 8-20 and |F| = 64-16,384, at
most 2,000 at n = 20.  ``--dense`` adds, per universe n, 3/4 of the cube
drawn the same way, and ``--powersets`` adds powerset(n).  Each row gives
the family, its VC dimension d, pi_F(d + 1) ("-" when d = n) and the
process time in seconds of each call, the least of a few runs for calls
under 0.1 s, one row as each point finishes.  It imports ``shatterlab``
from the ``src`` beside it.
"""

from __future__ import annotations

import argparse
import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from shatterlab import SetSystem, generate, vc_dimension, vc_shatter_function  # noqa: E402


# Sparse points n:|F|.  Past 2,000 members on 20 points a call takes
# minutes: 4,096 random members took 20 s for d and 32 s for pi(d + 1).
POINTS = "8:64,12:64,12:256,12:1024,16:64,16:256,16:1024,16:4096,16:16384," \
         "20:64,20:256,20:1024,20:2000"


# A call is repeated while its runs have taken under REPEAT_S seconds, at
# most REPEATS times, so that millisecond points are not read from one run.
REPEATS, REPEAT_S = 5, 0.1


def _ints(text):
    return [int(part) for part in text.split(",") if part]


def _points(text):
    return [tuple(map(int, part.split(":"))) for part in text.split(",") if part]


def families(points, powersets, dense):
    """(label, system) of each grid point, in the order of the options."""
    points = points + [(n, 3 << n - 2) for n in dense]
    for n, size in points:
        rng = random.Random(f"0:{n}:{size}")
        yield f"random-{n}-{size}", SetSystem(n, tuple(rng.sample(range(1 << n), size)))
    for n in powersets:
        yield f"powerset-{n}", generate("powerset", n)


def timed(call, *args):
    """The call's value and its least process time over up to REPEATS
    runs, repeated only while they have taken under REPEAT_S in all."""
    times = []
    while len(times) < REPEATS and sum(times) < REPEAT_S:
        start = time.process_time()
        value = call(*args)
        times.append(time.process_time() - start)
    return value, min(times)


def grid_rows(systems):
    """One row per (label, system): label, n, |F|, d, d's seconds,
    pi_F(d + 1) and its seconds (None when d = n)."""
    for label, system in systems:
        d, d_s = timed(vc_dimension, system)
        pi = pi_s = None
        if d < system.universe_size:
            pi, pi_s = timed(vc_shatter_function, system, d + 1)
        yield label, system.universe_size, len(system), d, d_s, pi, pi_s


def _cell(value):
    if value is None:
        return "-"
    return f"{value:.4g}" if isinstance(value, float) else str(value)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--points", type=_points, default=_points(POINTS))
    parser.add_argument("--powersets", type=_ints, default=[12, 14, 16])
    parser.add_argument("--dense", type=_ints, default=[10, 12, 14])
    args = parser.parse_args(argv)
    print("family n |F| d d_s pi(d+1) pi_s", flush=True)
    for row in grid_rows(families(args.points, args.powersets, args.dense)):
        print(" ".join(map(_cell, row)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
