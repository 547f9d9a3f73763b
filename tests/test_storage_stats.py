"""Unit tests for the I/O counter bundle."""

from repro.storage.stats import IOStats


def test_counters_start_at_zero():
    stats = IOStats()
    assert stats.physical_reads == 0
    assert stats.physical_writes == 0
    assert stats.logical_reads == 0
    assert stats.logical_writes == 0
    assert stats.total_io == 0


def test_total_io_sums_reads_and_writes():
    stats = IOStats(physical_reads=3, physical_writes=4)
    assert stats.total_io == 7


def test_hit_ratio_idle_is_one():
    assert IOStats().hit_ratio == 1.0


def test_hit_ratio_counts_misses():
    stats = IOStats(physical_reads=2, logical_reads=10)
    assert stats.hit_ratio == 0.8


def test_reset_zeroes_everything():
    stats = IOStats(physical_reads=1, physical_writes=2, logical_reads=3)
    stats.reset()
    assert stats.snapshot() == {
        "physical_reads": 0,
        "physical_writes": 0,
        "logical_reads": 0,
        "logical_writes": 0,
        "hit_ratio": 1.0,
    }


def test_snapshot_is_plain_dict():
    stats = IOStats(physical_reads=1, logical_writes=9)
    snap = stats.snapshot()
    snap["physical_reads"] = 999
    assert stats.physical_reads == 1
