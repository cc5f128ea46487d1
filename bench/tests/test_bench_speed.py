"""The speed probe that scales times to nominal machine speed."""

import gc

import pytest

from speed import NOMINAL_S, SpeedProbe, kernel


class Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_probe_samples_once_per_interval_of_work():
    clock = Clock()

    def slow_kernel():
        assert not gc.isenabled()
        clock.now += 2 * NOMINAL_S

    probe = SpeedProbe(every=0.1, probe=slow_kernel, clock=clock)
    probe.after(0.25)
    assert len(probe.samples) == 2
    probe.after(0.06)
    assert len(probe.samples) == 3
    assert gc.isenabled()
    # the machine ran the kernel at half speed, so times are halved
    assert probe.factor() == pytest.approx(0.5)


def test_kernel_is_deterministic():
    assert kernel() == kernel()
