"""Property pins of the methods ``Counters`` derives from the fields.

For every stats class: ``x.delta_from(x.copy())`` is zero everywhere
except point-in-time fields, a copy is independent of later changes to
the original, and ``reset()`` restores a fresh instance.  The live
views sum their members field by field, derived gauges included.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError, fields

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.engine.executor import ExecutionStats
from repro.engine.updater import UpdateStats
from repro.fault.stats import FaultStats
from repro.obs.metrics import Counters
from repro.service.stats import ServiceStats, SojournSummary
from repro.shard.stats import ShardStats
from repro.simio.stats import LatencyStats, LatencyView
from repro.storage.stats import IOStats, StatsView

counts = st.integers(0, 10**9)
times = st.floats(0.0, 1e9, allow_nan=False)


def _numbers(cls, **overrides):
    """``st.builds`` over ``cls``, drawing each plain field by its
    default's type; ``overrides`` supply the rest."""
    drawn = {}
    for f in fields(cls):
        if f.name in overrides:
            drawn[f.name] = overrides[f.name]
        elif isinstance(f.default, bool):
            drawn[f.name] = st.booleans()
        elif isinstance(f.default, float):
            drawn[f.name] = times
        elif isinstance(f.default, int):
            drawn[f.name] = counts
    return st.builds(cls, **drawn)


def _per_shard(n: int):
    return st.tuples(*[counts] * n)


shard_stats = st.integers(1, 4).flatmap(
    lambda n: st.builds(
        ShardStats,
        entries=_per_shard(n),
        physical_reads=_per_shard(n),
        physical_writes=_per_shard(n),
    )
)
fault_stats = _numbers(FaultStats)
summaries = _numbers(SojournSummary)

STRATEGIES = {
    IOStats: _numbers(IOStats),
    LatencyStats: _numbers(LatencyStats),
    FaultStats: fault_stats,
    ShardStats: shard_stats,
    SojournSummary: summaries,
    ExecutionStats: _numbers(
        ExecutionStats,
        shard_stats=st.none() | shard_stats,
        fault_stats=st.none() | fault_stats,
    ),
    UpdateStats: _numbers(
        UpdateStats,
        shard_stats=st.none() | shard_stats,
        fault_stats=st.none() | fault_stats,
    ),
    ServiceStats: _numbers(
        ServiceStats,
        overall=summaries,
        per_class=st.dictionaries(st.sampled_from(["range", "knn", "update"]), summaries),
        batch_size_hist=st.dictionaries(st.integers(1, 256), counts),
        fault_stats=st.none() | fault_stats,
    ),
}

any_stats = st.one_of(*STRATEGIES.values())


def _frozen(stats) -> bool:
    return type(stats).__dataclass_params__.frozen


def _assert_zero(delta, stats) -> None:
    """Every counter of ``delta`` is zero; point-in-time fields equal
    their value in ``stats``."""
    for f in fields(delta):
        value, now = getattr(delta, f.name), getattr(stats, f.name)
        if f.metadata.get("point_in_time"):
            assert value == now
        elif value is None:
            assert now is None
        elif isinstance(value, Counters):
            _assert_zero(value, now)
        elif isinstance(value, dict):
            assert value.keys() == now.keys()
            for key, item in value.items():
                if isinstance(item, Counters):
                    _assert_zero(item, now[key])
                else:
                    assert item == 0
        elif isinstance(value, tuple):
            assert all(item == 0 for item in value)
        else:
            assert value == 0


def _bump(stats) -> None:
    """Change every mutable part of ``stats`` in place."""
    for f in fields(stats):
        value = getattr(stats, f.name)
        if isinstance(value, Counters):
            if not _frozen(value):
                _bump(value)
        elif isinstance(value, dict):
            value.clear()
        elif isinstance(value, (int, float)):
            setattr(stats, f.name, not value if isinstance(value, bool) else value + 1)


@given(any_stats)
def test_delta_from_own_copy_is_zero(stats):
    _assert_zero(stats.delta_from(stats.copy()), stats)


@given(any_stats)
def test_copy_is_independent_of_later_changes(stats):
    before = stats.snapshot()
    copy = stats.copy()
    assert copy == stats
    if not _frozen(stats):
        _bump(stats)
    assert copy.snapshot() == before


@given(any_stats)
def test_reset_zeroes_every_counter(stats):
    if _frozen(stats):
        with pytest.raises(FrozenInstanceError):
            stats.reset()
        return
    stats.reset()
    assert stats == type(stats)()


@given(shard_stats, shard_stats)
def test_shard_delta_rejects_a_shard_count_mismatch(now, before):
    if now.n_shards == before.n_shards:
        assert now.delta_from(before).entries == now.entries
    else:
        with pytest.raises(ValueError):
            now.delta_from(before)


@given(st.lists(STRATEGIES[IOStats], min_size=1, max_size=4))
def test_stats_view_reads_as_the_summed_bundle(parts):
    summed = IOStats(
        **{f.name: sum(getattr(p, f.name) for p in parts) for f in fields(IOStats)}
    )
    view = StatsView(parts)
    assert view.snapshot() == summed.snapshot()
    assert view.total_io == summed.total_io


@given(st.lists(STRATEGIES[LatencyStats], min_size=1, max_size=4))
def test_latency_view_reads_as_the_summed_bundle(parts):
    summed = LatencyStats(
        **{
            f.name: sum(getattr(p, f.name) for p in parts)
            for f in fields(LatencyStats)
        }
    )
    view = LatencyView(parts)
    assert view.snapshot() == summed.snapshot()
    assert view.accesses == summed.accesses


def test_views_reject_empty_parts():
    with pytest.raises(ValueError):
        StatsView([])
    with pytest.raises(ValueError):
        LatencyView([])
