"""Edge cases of the stats primitives the reports are built on.

``percentile`` / ``SojournSummary.of`` feed every latency table, and
``IOStats`` / ``StatsView`` feed every before/after I/O delta — both
have boundary behaviors (empty samples, fractions at 0/1, idle
counters) that the happy-path integration tests never touch.
"""

import pytest

from repro.service.stats import SojournSummary, percentile
from repro.storage.stats import IOStats, StatsView


# ----------------------------------------------------------------------
# percentile
# ----------------------------------------------------------------------


def test_percentile_empty_sample_is_zero():
    assert percentile([], 0.5) == 0.0
    assert percentile([], 0.0) == 0.0
    assert percentile([], 1.0) == 0.0


def test_percentile_single_element_every_fraction():
    for fraction in (0.0, 0.25, 0.5, 0.99, 1.0):
        assert percentile([42.0], fraction) == 42.0


def test_percentile_fraction_bounds():
    values = [5.0, 1.0, 3.0, 2.0, 4.0]
    # fraction 0 clamps the nearest rank to 1: the minimum.
    assert percentile(values, 0.0) == 1.0
    assert percentile(values, 1.0) == 5.0
    assert percentile(values, 0.5) == 3.0


def test_percentile_does_not_mutate_input():
    values = [3.0, 1.0, 2.0]
    percentile(values, 0.5)
    assert values == [3.0, 1.0, 2.0]


def test_percentile_out_of_range_fraction_raises():
    with pytest.raises(ValueError):
        percentile([1.0], -0.01)
    with pytest.raises(ValueError):
        percentile([1.0], 1.01)


def test_percentile_nearest_rank_matches_definition():
    values = list(range(1, 101))  # 1..100
    assert percentile(values, 0.95) == 95
    assert percentile(values, 0.99) == 99
    assert percentile(values, 0.501) == 51


# ----------------------------------------------------------------------
# SojournSummary.of
# ----------------------------------------------------------------------


def test_sojourn_summary_empty_is_all_zero():
    summary = SojournSummary.of([])
    assert summary.count == 0
    assert summary.mean_us == 0.0
    assert summary.p50_us == summary.p95_us == summary.p99_us == 0.0
    assert summary.max_us == 0.0


def test_sojourn_summary_single_element_collapses():
    summary = SojournSummary.of([7.5])
    assert summary.count == 1
    assert summary.mean_us == 7.5
    assert summary.p50_us == summary.p95_us == summary.p99_us == 7.5
    assert summary.max_us == 7.5


def test_sojourn_summary_percentiles_are_ordered():
    summary = SojournSummary.of([float(v) for v in range(1, 201)])
    assert summary.count == 200
    assert summary.p50_us <= summary.p95_us <= summary.p99_us <= summary.max_us
    assert summary.max_us == 200.0
    snapshot = summary.snapshot()
    assert snapshot["count"] == 200
    assert snapshot["p99_us"] == summary.p99_us


# ----------------------------------------------------------------------
# IOStats
# ----------------------------------------------------------------------


def test_iostats_hit_ratio_idle_and_busy():
    assert IOStats().hit_ratio == 1.0
    stats = IOStats(physical_reads=2, logical_reads=8)
    assert stats.hit_ratio == 0.75
    assert stats.total_io == 2


# ----------------------------------------------------------------------
# StatsView
# ----------------------------------------------------------------------


def test_merge_stats_view_is_live_and_snapshot_round_trips():
    first = IOStats(physical_reads=1, physical_writes=2, logical_reads=3)
    second = IOStats(physical_reads=10, logical_writes=4)
    view = StatsView([first, second])
    assert view.physical_reads == 11
    assert view.snapshot() == {
        "physical_reads": 11,
        "physical_writes": 2,
        "logical_reads": 3,
        "logical_writes": 4,
        "hit_ratio": 1.0 - 11 / 3,
    }
    # Live: later mutation of a member shows through the view.
    first.physical_reads += 5
    assert view.physical_reads == 16
    assert view.snapshot()["physical_reads"] == 16
    # Per-member snapshots are unaffected by aggregation.
    assert first.snapshot()["physical_reads"] == 6
    assert second.snapshot()["physical_reads"] == 10


def test_stats_view_reset_fans_out():
    parts = [IOStats(physical_reads=3), IOStats(physical_reads=4)]
    view = StatsView(parts)
    view.reset()
    assert view.physical_reads == 0
    assert all(part.physical_reads == 0 for part in parts)


def test_stats_view_rejects_empty_parts():
    with pytest.raises(ValueError):
        StatsView([])


def test_stats_view_latency_rides_along():
    from repro.simio.stats import LatencyStats, LatencyView

    device = LatencyStats()
    device.record("read", 120.0, sequential=False)
    device.record("write", 80.0, sequential=True)
    view = StatsView([IOStats(physical_reads=2)], latency=LatencyView([device]))
    snapshot = view.snapshot()
    assert snapshot["latency"]["busy_us"] == 200.0
    assert snapshot["latency"]["sequential_ratio"] == 0.5
    view.reset()
    assert device.busy_us == 0.0
