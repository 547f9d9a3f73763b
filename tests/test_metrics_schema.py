"""Golden pin of the metrics schema every stats class publishes.

Each case builds one stats object (or live view) with distinct
non-zero values, publishes it into a fresh ``MetricsRegistry`` and
compares the registry snapshot — metric names, counter vs gauge, label
sets and values — against ``tests/metrics_golden.json``.  Classes with
a ``snapshot()`` also pin that dict.  A snapshot may carry a key the
golden file lacks only where it is listed in ``ADDED_SNAPSHOT_KEYS``
(a derived gauge that used to be published but not snapshotted), and
such a key must then equal the gauge it mirrors.

The last test checks that the metric-name table in
``docs/OBSERVABILITY.md`` names exactly the metrics published here,
with the same kind and labels.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from repro.bench.harness import OverlapCosts, ServiceCosts
from repro.engine.executor import ExecutionStats
from repro.engine.updater import UpdateStats
from repro.fault.stats import FaultStats
from repro.obs.metrics import MetricsRegistry
from repro.service.stats import ServiceStats, SojournSummary
from repro.shard.stats import ShardStats
from repro.simio.stats import LatencyStats, LatencyView
from repro.storage.stats import IOStats, StatsView

GOLDEN = Path(__file__).with_name("metrics_golden.json")
DOC = Path(__file__).resolve().parents[1] / "docs" / "OBSERVABILITY.md"

#: Snapshot keys allowed beyond the golden file, per case.
ADDED_SNAPSHOT_KEYS = {
    "IOStats": {"hit_ratio": "io.hit_ratio"},
    "StatsView": {"hit_ratio": "io.hit_ratio"},
}


def _io(seed: int) -> IOStats:
    return IOStats(
        physical_reads=3 * seed,
        physical_writes=5 * seed,
        logical_reads=12 * seed,
        logical_writes=7 * seed,
    )


def _latency(seed: int) -> LatencyStats:
    return LatencyStats(
        reads=6 * seed,
        writes=2 * seed,
        read_us=10.5 * seed,
        write_us=3.25 * seed,
        seeks=5 * seed,
        sequential_hits=2 * seed,
    )


def _faults() -> FaultStats:
    return FaultStats(
        faults=11,
        retries=9,
        backoff_us=12.5,
        exhausted=2,
        quarantines=3,
        probes=4,
        recoveries=1,
        bands_dropped=6,
        updates_deferred=7,
    )


def _shards() -> ShardStats:
    return ShardStats(
        entries=(30, 10), physical_reads=(7, 4), physical_writes=(2, 1)
    )


def _summary(scale: float) -> SojournSummary:
    return SojournSummary(
        count=int(4 * scale),
        mean_us=100.5 * scale,
        p50_us=90.25 * scale,
        p95_us=180.0 * scale,
        p99_us=240.75 * scale,
        max_us=300.0 * scale,
    )


def _service() -> ServiceStats:
    return ServiceStats(
        n_requests=40,
        n_batches=8,
        overall=_summary(10),
        per_class={"range": _summary(6), "knn": _summary(4)},
        batch_size_hist={4: 3, 7: 5},
        queue_depth_max=13,
        queue_depth_mean=6.5,
        backlog_at_last_arrival=3,
        makespan_us=5000.0,
        busy_us=4000.0,
        utilization=0.625,
        throughput_per_sec=8000.0,
        saturated=True,
        physical_reads=20,
        physical_writes=14,
        n_shed=10,
        degraded_queries=5,
        unapplied_updates=2,
        fault_stats=_faults(),
    )


def _cases() -> dict:
    return {
        "IOStats": _io(1),
        "StatsView": StatsView(
            [_io(1), _io(2)], latency=LatencyView([_latency(1), _latency(3)])
        ),
        "LatencyStats": _latency(1),
        "LatencyView": LatencyView([_latency(1), _latency(2)]),
        "FaultStats": _faults(),
        "ShardStats": _shards(),
        "ExecutionStats": ExecutionStats(
            bands_requested=16,
            bands_scanned=4,
            bands_deduped=9,
            candidates_examined=120,
            physical_reads=11,
            shard_stats=_shards(),
            fault_stats=_faults(),
            virtual_time_us=250.5,
            entries_prefetched=40,
            dead_entries=10,
            memo_evictions=3,
            seeks=5,
            sequential_hits=6,
        ),
        "UpdateStats": UpdateStats(
            ops=8,
            in_place_hits=2,
            moved=3,
            inserted=4,
            flushes=5,
            leaves_visited=12,
            descents_saved=6,
            deferred=1,
            physical_reads=9,
            physical_writes=7,
            shard_stats=_shards(),
            fault_stats=_faults(),
            virtual_time_us=75.25,
        ),
        "ServiceStats": _service(),
        "SojournSummary": _summary(1),
        "OverlapCosts": OverlapCosts(
            profile="ssd",
            n_shards=4,
            workload="hotspot",
            parallel_io=False,
            ops_applied=200,
            n_queries=16,
            baseline_update_us=800.0,
            baseline_query_us=400.0,
            sharded_update_us=200.0,
            sharded_query_us=100.0,
            baseline_reads=50,
            baseline_writes=30,
            sharded_reads=60,
            sharded_writes=35,
            baseline_busy_us=1100.0,
            sharded_busy_us=600.0,
            baseline_seeks=40,
            baseline_sequential_hits=10,
            sharded_seeks=45,
            sharded_sequential_hits=15,
        ),
        "ServiceCosts": ServiceCosts(
            rate_per_sec=2000.0,
            arrival="poisson",
            n_shards=2,
            profile="ssd",
            max_batch=64,
            max_wait_us=2000.0,
            n_requests=40,
            stats=_service(),
            pinned=True,
            prefetch="auto",
            policy_state={"mode": "auto", "arm_scores": {"on": 1.5, "off": 2.0}},
        ),
    }


def _published(stats) -> dict | None:
    if not hasattr(stats, "publish"):
        return None
    registry = MetricsRegistry()
    stats.publish(registry)
    return registry.snapshot()


def _snapshotted(stats) -> dict | None:
    if not hasattr(stats, "snapshot"):
        return None
    # A JSON round trip turns tuples into lists and int keys into
    # strings, exactly as the golden file stores them.
    return json.loads(json.dumps(stats.snapshot()))


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("case", sorted(_cases()))
def test_published_metrics_match_golden(case, golden):
    expected = golden[case]["metrics"]
    if expected is None:
        return
    assert _published(_cases()[case]) == expected


@pytest.mark.parametrize("case", sorted(_cases()))
def test_snapshot_matches_golden(case, golden):
    expected = golden[case]["snapshot"]
    if expected is None:
        return
    actual = _snapshotted(_cases()[case])
    added = ADDED_SNAPSHOT_KEYS.get(case, {})
    assert set(actual) - set(expected) <= set(added)
    assert {key: actual[key] for key in expected} == expected
    for key in set(actual) - set(expected):
        assert actual[key] == golden[case]["metrics"]["gauges"][added[key]][""]


def test_golden_covers_every_case(golden):
    assert set(golden) == set(_cases())


# ----------------------------------------------------------------------
# docs/OBSERVABILITY.md metric-name table
# ----------------------------------------------------------------------

_ROW = re.compile(r"^\|\s*`([a-z0-9_.]+)`\s*\|\s*(\w+)\s*\|\s*([^|]*?)\s*\|")


def _doc_table() -> dict[str, tuple[str, str]]:
    rows = {}
    for line in DOC.read_text().splitlines():
        match = _ROW.match(line)
        if match:
            name, kind, labels = match.groups()
            rows[name] = (kind, labels.strip("`") if labels != "—" else "")
    return rows


def _golden_schema(golden: dict) -> dict[str, tuple[str, str]]:
    schema = {}
    for entry in golden.values():
        metrics = entry["metrics"]
        if metrics is None:
            continue
        for section, kind in (("counters", "counter"), ("gauges", "gauge")):
            for name, series in metrics[section].items():
                keys = {
                    part.split("=")[0]
                    for label_set in series
                    for part in label_set.split(",")
                    if part
                }
                schema[name] = (kind, ",".join(sorted(keys)))
    return schema


def test_observability_doc_lists_exactly_the_published_metrics(golden):
    assert _doc_table() == _golden_schema(golden)
