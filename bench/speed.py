"""Machine-speed reference for timing on a shared machine.

On a machine shared with other tenants, identical work runs 10-70% slower
for minutes at a time, which swamps any change to the program.  A run
therefore times a fixed reference kernel, which never changes, once per
``every`` seconds of measured work, and scales its item times by
``NOMINAL_S / mean kernel time``: the times it reports are what the items
would have taken with the kernel at its nominal speed.  The kernel runs
with the garbage collector off, so objects the program keeps alive cannot
slow it.  The raw times and the factor go into the run's report.
"""

from __future__ import annotations

import gc
import time

import numpy as np

# Mean kernel time on the machine the benchmark was calibrated on (Intel
# Xeon, 2 vCPUs, Python 3.11, numpy 2.4), in seconds.
NOMINAL_S = 0.003

_ARRAY = np.arange(20_000, dtype=np.uint64)


def kernel():
    """Dict, tuple, frozenset and integer work like the library's, plus a
    short vectorized uint64 loop like the Monte Carlo step."""
    table = {}
    total = 0
    for i in range(2500):
        key = (i & 63, i >> 6)
        table[key] = table.get(key, 0) + len(frozenset(key))
        total += sum(x * 3 for x in key)
    x = _ARRAY
    for _ in range(8):
        x = (x * np.uint64(0x9E3779B97F4A7C15)) ^ (x >> np.uint64(29))
    return total + int(x[-1] & np.uint64(1))


class SpeedProbe:
    def __init__(self, every=0.1, probe=kernel, clock=time.perf_counter):
        self.every = every
        self.probe = probe
        self.clock = clock
        self.samples = []
        self._owed = 0.0

    def sample(self):
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = self.clock()
            self.probe()
            self.samples.append(self.clock() - start)
        finally:
            if enabled:
                gc.enable()

    def after(self, worked_s):
        """Account ``worked_s`` seconds of measured work, sampling the
        kernel once for every ``every`` seconds accumulated."""
        self._owed += worked_s
        while self._owed >= self.every:
            self._owed -= self.every
            self.sample()

    def factor(self):
        """Multiply a measured time by this to get nominal-speed time."""
        return NOMINAL_S * len(self.samples) / sum(self.samples)
