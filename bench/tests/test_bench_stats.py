"""The tail-percentile rule and latency summary."""

import pytest

from stats import MIN_BEYOND, TAIL_LADDER, latency_summary, nearest_rank, tail_percentile


@pytest.mark.parametrize("n, pct", [
    (19, None), (20, "50"), (39, "50"), (40, "75"), (99, "75"), (100, "90"),
    (199, "90"), (200, "95"), (999, "95"), (1000, "99"), (1008, "99"),
    (9999, "99"), (10000, "99.9"), (100000, "99.99"),
])
def test_tail_is_highest_ladder_step_with_ten_items_beyond(n, pct):
    assert tail_percentile(n) == pct
    if pct is not None:
        assert n - nearest_rank(n, pct) >= MIN_BEYOND
        higher = TAIL_LADDER.index(pct) + 1
        if higher < len(TAIL_LADDER):
            assert n - nearest_rank(n, TAIL_LADDER[higher]) < MIN_BEYOND


def test_nearest_rank_is_exact_where_floats_round_up():
    # 0.95 * 200 is 190.00000000000003 in floating point
    assert nearest_rank(200, "95") == 190
    assert nearest_rank(1000, "99.9") == 999
    assert nearest_rank(3, "50") == 2
    assert nearest_rank(1, "99.99") == 1


def test_latency_summary_reports_tail_value_and_items_beyond():
    latencies = [i / 1000 for i in range(1, 101)]  # 1 ms .. 100 ms
    summary = latency_summary(latencies[::-1])
    assert summary["items"] == 100
    assert summary["tail_pct"] == "90"
    assert summary["tail_ms"] == pytest.approx(90.0)
    assert summary["beyond_tail"] == 10
    assert summary["p50_ms"] == pytest.approx(50.5)


def test_latency_summary_refuses_too_few_items():
    with pytest.raises(ValueError):
        latency_summary([0.001] * 19)
