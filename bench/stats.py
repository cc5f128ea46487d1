"""Metric arithmetic shared by the benchmark runner and its tests."""

from __future__ import annotations

import statistics
from fractions import Fraction

# Percentiles the tail latency may be reported at, lowest first.
TAIL_LADDER = ("50", "75", "90", "95", "99", "99.9", "99.99")
MIN_BEYOND = 10


def nearest_rank(n, pct):
    """1-based nearest rank of percentile ``pct`` (a decimal string) among
    ``n`` sorted values: ceil(pct/100 * n), computed exactly."""
    if n < 1:
        raise ValueError("need at least one value")
    rank = -(-Fraction(pct) * n // 100)
    return max(1, int(rank))


def tail_percentile(n):
    """Highest ladder percentile with at least MIN_BEYOND of ``n`` items
    strictly beyond its rank, or None when even the median has fewer."""
    best = None
    for pct in TAIL_LADDER:
        if n - nearest_rank(n, pct) >= MIN_BEYOND:
            best = pct
    return best


def latency_summary(latencies_s):
    """Median and tail latency in ms of one run's item latencies."""
    values = sorted(latencies_s)
    n = len(values)
    pct = tail_percentile(n)
    if pct is None:
        raise ValueError(f"{n} items cannot give a tail with "
                         f"{MIN_BEYOND} items beyond it")
    return {
        "items": n,
        "p50_ms": statistics.median(values) * 1e3,
        "tail_pct": pct,
        "tail_ms": values[nearest_rank(n, pct) - 1] * 1e3,
        "beyond_tail": n - nearest_rank(n, pct),
    }


def relative_spread(values):
    """Interquartile distance as a share of the median."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median
