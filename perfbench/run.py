"""Served-path benchmark: open-loop streams through ``SimulatedService.run``.

Builds a timed, SV-routed two-shard deployment (4000 users x 20
policies, theta 0.7, 1 KiB pages, ``ssd`` profile, real thread pool),
serves one open-loop Poisson stream drawn from ``--seed`` through the
public service front-end, checks every served result against the
brute-force oracle outside the timed regions, and prints the workload's
metrics.  The last stdout line is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, measured with
tracing off.  With ``--trace 1`` the stream is served twice on fresh
deployments, untraced and then traced (``TraceRecorder`` plus the
wall timers of :mod:`layers`), and the metrics are the per-layer ones;
the traced run's virtual metrics must equal the untraced run's.
``METRICS.md`` beside this file documents every name.

Usage::

    python3 perfbench/run.py --workload range_mix --seed 1 --seconds 10 --trace 0
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import random
import resource
import shutil
import socket
import statistics
import sys
import tempfile
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from layers import LayerTimers  # noqa: E402
from repro.bench.oracle import brute_force_pknn, brute_force_prq  # noqa: E402
from repro.core.sequencing import assign_sequence_values  # noqa: E402
from repro.engine import UpdatePipeline  # noqa: E402
from repro.fault.breaker import BreakerPolicy  # noqa: E402
from repro.fault.retry import RetryPolicy  # noqa: E402
from repro.motion.partitions import TimePartitioner  # noqa: E402
from repro.obs import MetricsRegistry, TraceRecorder, attach_recorder  # noqa: E402
from repro.obs.export import chrome_trace  # noqa: E402
from repro.obs.report import summarize_trace  # noqa: E402
from repro.service import (  # noqa: E402
    BatchPolicy,
    OpenLoopGenerator,
    SimulatedService,
    percentile,
)
from repro.shard import ShardedPEBTree, ShardedQueryEngine  # noqa: E402
from repro.shard.recovery import ShardCheckpointer  # noqa: E402
from repro.spatial.curves import make_curve  # noqa: E402
from repro.spatial.geometry import euclidean  # noqa: E402
from repro.spatial.grid import Grid  # noqa: E402
from repro.workloads.policies import PolicyGenerator  # noqa: E402
from repro.workloads.queries import KnnQuerySpec, QueryGenerator  # noqa: E402
from repro.workloads.uniform import UniformMovement  # noqa: E402

# Shared deployment (every workload).
N_USERS = 4000
N_POLICIES = 20
THETA = 0.7
SPACE_SIDE = 1000.0
MAX_SPEED = 3.0
TIME_DOMAIN = 1440.0
PAGE_SIZE = 1024
BUILD_BUFFER_PAGES = 8192
N_SHARDS = 2
PROFILE = "ssd"
ADMISSION = BatchPolicy(max_batch=64, max_wait_us=2000.0)
PREFETCH = "auto"
UPDATE_BATCH = 256
WINDOW_SIDE = 200.0
K = 5
#: Seed of the population and policies; ``--seed`` draws the stream.
WORLD_SEED = 7
#: Builds per run; ``setup_s`` is their median (the last build is served).
SETUP_REPEATS = 3
#: Tolerance on kNN distances (ties at the k-th distance may swap uids).
KNN_TOL = 1e-9
#: Phase spans of the virtual trace reported as shares of ``batch.serve``.
PHASES = ("scan.prefetch", "query.replay", "verify.pipeline", "update.flush")


@dataclass(frozen=True)
class Workload:
    """One open-loop traffic mix over the shared deployment.

    ``n_requests`` is fixed, so virtual metrics repeat exactly for a
    seed, and leaves at least ten samples beyond every reported
    percentile.
    """

    name: str
    rate_per_sec: float
    update_fraction: float
    knn_fraction: float
    buffer_pages: int
    update_span_s: float
    n_requests: int
    tail: float
    supervised: bool


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="range_mix",
            rate_per_sec=350.0,
            update_fraction=0.25,
            knn_fraction=0.0,
            buffer_pages=12,
            update_span_s=60.0,
            n_requests=4000,
            tail=0.95,
            supervised=False,
        ),
        Workload(
            name="knn_mix",
            rate_per_sec=150.0,
            update_fraction=0.0,
            knn_fraction=1.0,
            buffer_pages=50,
            update_span_s=60.0,
            n_requests=300,
            tail=0.90,
            supervised=False,
        ),
        Workload(
            name="write_heavy",
            rate_per_sec=1000.0,
            update_fraction=0.9,
            knn_fraction=0.0,
            buffer_pages=12,
            update_span_s=150.0,
            n_requests=10000,
            tail=0.95,
            supervised=True,
        ),
    )
}

#: End-to-end metrics: name -> unit (``--trace 0``).
END_TO_END = {
    "setup_s": "s",
    "cpu_rps": "1/s",
    "peak_rss_mb": "MB",
    "sojourn_p50_us": "us",
    "sojourn_tail_us": "us",
    "virtual_capacity_rps": "1/s",
    "reads_per_req": "count",
    "io_per_req": "count",
}
#: Per-layer metrics of the traced run: name -> unit (``--trace 1``).
PER_LAYER = {
    "wall_rps": "1/s",
    "service.run_wall_s": "s",
    "service.run_self_s": "s",
    "service.queue_wait_us": "us",
    "service.mean_batch_size": "count",
    "service.utilization": "ratio",
    "service.saturated": "count",
    "range_p50_us": "us",
    "range_p99_us": "us",
    "update_p50_us": "us",
    "update_p99_us": "us",
    "knn_p50_us": "us",
    "knn_p90_us": "us",
    "engine.execute_batch_self_s": "s",
    "engine.bands_requested": "count",
    "engine.bands_scanned": "count",
    "engine.dedup_ratio": "ratio",
    "engine.overscan_ratio": "ratio",
    "engine.dead_entries": "count",
    "engine.candidates_examined": "count",
    "scanner.prefetch_self_s": "s",
    "shard.scan_self_s": "s",
    "index.scan_band_rows_calls": "count",
    "index.scan_band_rows_self_s": "s",
    "index.band_scans_per_knn": "count",
    "btree.scan_chunks_calls": "count",
    "verify.admit_rows_self_s": "s",
    "verify.admit_ratio": "ratio",
    "io.logical_reads": "count",
    "io.physical_reads": "count",
    "io.physical_writes": "count",
    "io.hit_ratio": "ratio",
    "device.busy_us": "us",
    "device.seeks": "count",
    "device.sequential_ratio": "ratio",
    "device.overlap_factor": "ratio",
    "simio.run_timed_calls": "count",
    "simio.run_timed_self_s": "s",
    "update.flush_self_s": "s",
    "btree.apply_sorted_batch_self_s": "s",
    "update.descents_saved": "count",
    "update.leaves_visited": "count",
    "update.io_per_update": "count",
    "shard.balance_skew": "ratio",
    "fault.retries": "count",
    "fault.exhausted": "count",
    "fault.quarantines": "count",
    "recovery.checkpoint_cpu_s": "s",
    "recovery.recover_cpu_s": "s",
    "recovery.checkpoint_bytes": "bytes",
    "recovery.replayed_ops": "count",
    "setup.policies_s": "s",
    "setup.sequencing_s": "s",
    "setup.bulk_insert_s": "s",
    "phase.scan.prefetch_us": "us",
    "phase.scan.prefetch_share": "ratio",
    "phase.query.replay_us": "us",
    "phase.query.replay_share": "ratio",
    "phase.verify.pipeline_us": "us",
    "phase.verify.pipeline_share": "ratio",
    "phase.update.flush_us": "us",
    "phase.update.flush_share": "ratio",
    "unattributed_s": "s",
    "tracing.overhead_s": "s",
    "error_rate": "ratio",
}


# ----------------------------------------------------------------------
# Setup
# ----------------------------------------------------------------------


@dataclass
class Deployment:
    states: dict
    store: object
    tree: ShardedPEBTree
    timings: dict


def build(workload: Workload) -> Deployment:
    """Everything the served path needs, and nothing else."""
    t0 = time.perf_counter()
    grid = Grid(SPACE_SIDE, 10, make_curve("z"))
    partitioner = TimePartitioner(120.0, 2)
    movement = UniformMovement(SPACE_SIDE, MAX_SPEED, random.Random(WORLD_SEED))
    states = {obj.uid: obj for obj in movement.initial_objects(N_USERS, t=0.0)}
    uids = sorted(states)
    t1 = time.perf_counter()
    store = PolicyGenerator(
        SPACE_SIDE, TIME_DOMAIN, random.Random(WORLD_SEED + 1)
    ).generate(uids, N_POLICIES, THETA)
    t2 = time.perf_counter()
    encoding = assign_sequence_values(uids, store, SPACE_SIDE**2)
    store.set_sequence_values(encoding.sequence_values)
    t3 = time.perf_counter()
    tree = ShardedPEBTree.build(
        N_SHARDS,
        grid,
        partitioner,
        store,
        uids=uids,
        policy="sv",
        page_size=PAGE_SIZE,
        buffer_pages=BUILD_BUFFER_PAGES,
        latency=PROFILE,
        parallel_io=True,
        fault_policy=RetryPolicy() if workload.supervised else None,
        breaker_policy=BreakerPolicy() if workload.supervised else None,
    )
    for uid in uids:
        tree.insert(states[uid])
    for pool in tree.pools:
        pool.clear()
        pool.resize(workload.buffer_pages)
    tree.stats.reset()
    t4 = time.perf_counter()
    return Deployment(
        states=states,
        store=store,
        tree=tree,
        timings={
            "setup_s": t4 - t0,
            "setup.policies_s": t2 - t1,
            "setup.sequencing_s": t3 - t2,
            "setup.bulk_insert_s": t4 - t3,
        },
    )


def make_stream(workload: Workload, seed: int, states: dict):
    generator = QueryGenerator(SPACE_SIDE, random.Random(seed))
    return OpenLoopGenerator(generator, states).generate(
        workload.n_requests,
        workload.rate_per_sec,
        arrival="poisson",
        update_fraction=workload.update_fraction,
        window_side=WINDOW_SIDE,
        k=K,
        knn_fraction=workload.knn_fraction,
        max_speed=MAX_SPEED,
        t_start=0.0,
        duration=workload.update_span_s,
    )


# ----------------------------------------------------------------------
# Serving
# ----------------------------------------------------------------------


@contextmanager
def frozen_heap():
    """Time a region with the heap built so far out of the collector's
    reach, as in a long-running server: collections inside the region
    then scale with what the region allocates, not with the index."""
    gc.collect()
    gc.freeze()
    try:
        yield
    finally:
        gc.unfreeze()


def cpu_timed(fn):
    """Returns (process CPU seconds of ``fn()``, its result)."""
    with frozen_heap():
        started = time.process_time()
        result = fn()
        return time.process_time() - started, result


@dataclass
class Served:
    report: object
    pipeline: UpdatePipeline
    wall_s: float
    cpu_s: float
    checkpointer: ShardCheckpointer | None
    checkpoint_cpu_s: float | None = None


def serve(
    deployment: Deployment,
    stream,
    workdir: str,
    recorder=None,
    timers: LayerTimers | None = None,
) -> Served:
    """Serve ``stream``; only ``SimulatedService.run`` is timed, and only
    it runs under ``recorder`` and ``timers`` when given.

    A supervised deployment is checkpointed first, so the stream's
    updates fill the replay log that :func:`checkpoint_and_recover`
    replays.
    """
    tree = deployment.tree
    checkpointer = None
    checkpoint_cpu_s = None
    if tree.supervisor is not None:
        checkpointer = ShardCheckpointer(tree, workdir)
        checkpoint_cpu_s, _ = cpu_timed(checkpointer.checkpoint)
        tree.stats.reset()
    if recorder is not None:
        attach_recorder(tree, recorder)
    engine = ShardedQueryEngine(tree, prefetch_policy=PREFETCH)
    pipeline = UpdatePipeline(tree, capacity=UPDATE_BATCH)
    service = SimulatedService(engine, pipeline, ADMISSION)
    with frozen_heap(), timers or nullcontext():
        cpu = time.process_time()
        started = time.perf_counter()
        report = service.run(stream)
        wall_s = time.perf_counter() - started
        cpu_s = time.process_time() - cpu
    return Served(report, pipeline, wall_s, cpu_s, checkpointer, checkpoint_cpu_s)


def checkpoint_and_recover(deployment: Deployment, served: Served):
    """Time ``recover(0)`` of a supervised deployment, which was
    checkpointed before serving and replays the stream's log; returns
    (checkpoint CPU s, recover CPU s, replayed ops, checkpoint bytes,
    items equal after the recovery).
    """
    tree = deployment.tree
    checkpointer = served.checkpointer
    checkpoint_bytes = sum(
        entry.stat().st_size
        for shard in range(N_SHARDS)
        for entry in os.scandir(checkpointer.shard_dir(shard))
    )
    before = list(tree.items())
    recover_cpu_s, replayed = cpu_timed(lambda: checkpointer.recover(0))
    same = list(tree.items()) == before
    return served.checkpoint_cpu_s, recover_cpu_s, replayed, checkpoint_bytes, same


# ----------------------------------------------------------------------
# Correctness (outside every timed region)
# ----------------------------------------------------------------------


def knn_matches(served, expected, states, store, spec) -> bool:
    """Served PkNN equals the oracle up to ties at equal distance."""
    if len(served.neighbors) != len(expected):
        return False
    for (dist, obj), (want, _) in zip(served.neighbors, expected):
        if abs(dist - want) > KNN_TOL * max(1.0, want):
            return False
        state = states.get(obj.uid)
        if state is None or obj.uid == spec.q_uid:
            return False
        x, y = state.position_at(spec.t_query)
        if abs(euclidean(spec.qx, spec.qy, x, y) - dist) > KNN_TOL * max(1.0, dist):
            return False
        if not store.evaluate(obj.uid, spec.q_uid, x, y, spec.t_query):
            return False
    return len({obj.uid for _, obj in served.neighbors}) == len(expected)


class CellIndex:
    """Users bucketed by their position at one instant.

    A PRQ check hands the oracle only the users of the cells its window
    overlaps: ``floor(x / side)`` is monotone, so every user inside the
    window is among them, and the oracle still applies Definition 2.
    """

    def __init__(self, states: dict, t: float, side: float = WINDOW_SIDE):
        self.t = t
        self.side = side
        self.cell_of: dict[int, tuple[int, int]] = {}
        self.members: dict[tuple[int, int], set[int]] = {}
        for obj in states.values():
            self.place(obj)

    def place(self, obj) -> None:
        old = self.cell_of.get(obj.uid)
        if old is not None:
            self.members[old].discard(obj.uid)
        x, y = obj.position_at(self.t)
        cell = (math.floor(x / self.side), math.floor(y / self.side))
        self.cell_of[obj.uid] = cell
        self.members.setdefault(cell, set()).add(obj.uid)

    def near(self, window, states: dict) -> dict:
        side = self.side
        return {
            uid: states[uid]
            for cx in range(math.floor(window.x_lo / side), math.floor(window.x_hi / side) + 1)
            for cy in range(math.floor(window.y_lo / side), math.floor(window.y_hi / side) + 1)
            for uid in self.members.get((cx, cy), ())
        }


def count_failures(report, initial_states: dict, store) -> int:
    """Mismatches against the oracle plus every request not fully served."""
    states = dict(initial_states)
    cells: CellIndex | None = None
    failed = 0
    for batch in report.batches:
        for obj, _ in batch.updates:
            states[obj.uid] = obj
            if cells is not None:
                cells.place(obj)
        for spec, result, degraded in zip(
            batch.query_specs,
            batch.query_results,
            batch.degraded or [False] * batch.n_queries,
        ):
            if degraded:
                failed += 1
            elif isinstance(spec, KnnQuerySpec):
                expected = brute_force_pknn(
                    states, store, spec.q_uid, spec.qx, spec.qy, spec.k, spec.t_query
                )
                failed += not knn_matches(result, expected, states, store, spec)
            else:
                if cells is None or cells.t != spec.t_query:
                    cells = CellIndex(states, spec.t_query)
                expected = brute_force_prq(
                    cells.near(spec.window, states),
                    store,
                    spec.q_uid,
                    spec.window,
                    spec.t_query,
                )
                failed += result.uids != expected
    stats = report.stats
    failed += stats.n_shed + stats.unapplied_updates
    if stats.fault_stats is not None:
        failed += stats.fault_stats.exhausted
    return failed


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------


def virtual_metrics(workload: Workload, report) -> dict:
    sojourns = [finish - request.arrival_us for request, _, finish in report.records]
    stats = report.stats
    served = len(report.records)
    return {
        "sojourn_p50_us": percentile(sojourns, 0.50),
        "sojourn_tail_us": percentile(sojourns, workload.tail),
        "virtual_capacity_rps": served / stats.busy_us * 1e6,
        "reads_per_req": stats.physical_reads / served,
        "io_per_req": (stats.physical_reads + stats.physical_writes) / served,
    }


def class_latencies(report) -> dict:
    by_kind: dict[str, list[float]] = {"range": [], "update": [], "knn": []}
    for request, _, finish in report.records:
        by_kind[request.kind].append(finish - request.arrival_us)
    out = {}
    for kind, tail in (("range", 0.99), ("update", 0.99), ("knn", 0.90)):
        values = by_kind[kind]
        out[f"{kind}_p50_us"] = percentile(values, 0.50)
        out[f"{kind}_p{round(tail * 100)}_us"] = percentile(values, tail)
    return out


def layer_metrics(deployment, served, timers: LayerTimers, recorder) -> tuple[dict, list]:
    """Per-layer numbers of the traced run; returns (metrics, problems)."""
    problems = []
    report = served.report
    tree = deployment.tree
    stats = report.stats

    registry = MetricsRegistry()
    stats.publish(registry)
    served.pipeline.stats.publish(registry)
    tree.stats.publish(registry)
    tree.shard_stats().publish(registry)
    if tree.supervisor is not None:
        tree.supervisor.stats.publish(registry)
    engine = MetricsRegistry()
    for batch_stats in timers.batch_stats:
        batch_stats.publish(engine)

    counter = registry.counter_value
    requested = engine.counter_value("engine.bands_requested")
    scanned = engine.counter_value("engine.bands_scanned")
    prefetched = engine.counter_value("engine.entries_prefetched")
    dead = engine.counter_value("engine.dead_entries")
    candidates = engine.counter_value("engine.candidates_examined")
    results = sum(
        len(result.uids) for batch in report.batches for result in batch.query_results
    )
    n_knn = sum(1 for request, _, _ in report.records if request.kind == "knn")

    trace = chrome_trace(recorder)
    summary = summarize_trace(trace)
    check = summary["busy_check"]
    if check is None or not check["matches"]:
        problems.append(f"trace batch.serve total disagrees with busy_us: {check}")
    waits = [span.dur_us for span in recorder.spans("queue.wait")]
    worker_busy = summary["worker_busy_us"]
    device_busy = sum(entry["busy_us"] for entry in summary["devices"].values())

    run_wall = served.wall_s
    attributed = sum(timers.self_s.values())
    unattributed = run_wall - attributed
    if min(timers.self_s.values()) < -1e-9 or not 0.0 <= unattributed <= 0.05 * run_wall:
        problems.append(
            f"wall self times {timers.self_s} do not add up to the run's "
            f"{run_wall:.6f} s"
        )

    metrics = {
        "service.queue_wait_us": statistics.fmean(waits) if waits else 0.0,
        "service.mean_batch_size": stats.mean_batch_size,
        "service.utilization": stats.utilization,
        "service.saturated": float(stats.saturated),
        "engine.bands_requested": requested,
        "engine.bands_scanned": scanned,
        "engine.dedup_ratio": 1.0 - scanned / requested if requested else 0.0,
        "engine.overscan_ratio": dead / prefetched if prefetched else 0.0,
        "engine.dead_entries": dead,
        "engine.candidates_examined": candidates,
        "verify.admit_ratio": results / candidates if candidates else 0.0,
        "index.scan_band_rows_calls": timers.calls["index.scan_band_rows"],
        "index.band_scans_per_knn": (
            timers.calls["index.scan_band_rows"] / n_knn if n_knn else 0.0
        ),
        "btree.scan_chunks_calls": timers.calls["btree.scan_chunks"],
        "io.logical_reads": counter("io.logical_reads"),
        "io.physical_reads": counter("io.physical_reads"),
        "io.physical_writes": counter("io.physical_writes"),
        "io.hit_ratio": registry.gauge_value("io.hit_ratio"),
        "device.busy_us": registry.gauge_value("device.busy_us"),
        "device.seeks": counter("device.seeks"),
        "device.sequential_ratio": registry.gauge_value("device.sequential_ratio"),
        "device.overlap_factor": device_busy / worker_busy if worker_busy else 0.0,
        "simio.run_timed_calls": timers.calls["simio.run_timed"],
        "update.descents_saved": counter("update.descents_saved"),
        "update.leaves_visited": counter("update.leaves_visited"),
        "update.io_per_update": registry.gauge_value("update.io_per_update"),
        "shard.balance_skew": registry.gauge_value("shard.balance_skew"),
        "fault.retries": counter("fault.retries"),
        "fault.exhausted": counter("fault.exhausted"),
        "fault.quarantines": counter("fault.quarantines"),
        "service.run_wall_s": run_wall,
        "unattributed_s": unattributed,
    }
    for name, seconds in timers.self_s.items():
        metrics[f"{name}_self_s"] = seconds
    phases = summary["phases"]
    for phase in PHASES:
        entry = phases.get(phase, {"total_us": 0.0, "share_of_busy": 0.0})
        metrics[f"phase.{phase}_us"] = entry["total_us"]
        metrics[f"phase.{phase}_share"] = entry["share_of_busy"]
    metrics.update(class_latencies(report))
    return metrics, problems


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------


def stamp(workload: Workload, seed: int) -> dict:
    head = ROOT / ".git" / "HEAD"
    commit = None
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else ref
        else:
            commit = ref
    return {
        "workload": workload.name,
        "seed": seed,
        "requests": workload.n_requests,
        "commit": commit,
        "python": platform.python_version(),
        "host": socket.gethostname(),
        "nproc": os.cpu_count(),
        "buffer_pages_per_shard": workload.buffer_pages,
        "buffer_pages_total": workload.buffer_pages * N_SHARDS,
        "shards": N_SHARDS,
        "profile": PROFILE,
    }


def run_untraced(workload, seed, workdir):
    setup_times = []
    for _ in range(SETUP_REPEATS):
        deployment = None  # free the previous build before timing the next
        gc.collect()
        deployment = build(workload)
        setup_times.append(deployment.timings["setup_s"])
    initial = dict(deployment.states)
    stream = make_stream(workload, seed, deployment.states)
    served = serve(deployment, stream, workdir)
    # Read before verification, whose oracle replay allocates more.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failed = count_failures(served.report, initial, deployment.store)
    if served.checkpointer is not None:
        failed += not checkpoint_and_recover(deployment, served)[-1]
    metrics = {
        "setup_s": statistics.median(setup_times),
        "cpu_rps": len(served.report.records) / served.cpu_s,
        "peak_rss_mb": peak_rss_mb,
        **virtual_metrics(workload, served.report),
    }
    return metrics, served.report.stats, failed, []


def run_traced(workload, seed, workdir):
    untraced_dep = build(workload)
    stream = make_stream(workload, seed, untraced_dep.states)
    untraced = serve(untraced_dep, stream, os.path.join(workdir, "untraced"))
    expected = virtual_metrics(workload, untraced.report)
    untraced_wall = untraced.wall_s
    del untraced, untraced_dep
    gc.collect()

    deployment = build(workload)
    initial = dict(deployment.states)
    stream = make_stream(workload, seed, deployment.states)
    recorder = TraceRecorder()
    timers = LayerTimers()
    served = serve(deployment, stream, os.path.join(workdir, "traced"), recorder, timers)
    metrics, problems = layer_metrics(deployment, served, timers, recorder)
    got = virtual_metrics(workload, served.report)
    if got != expected:
        problems.append(f"traced virtual metrics {got} differ from untraced {expected}")
    failed = count_failures(served.report, initial, deployment.store)
    recovery = (0.0, 0.0, 0, 0, True)
    if served.checkpointer is not None:
        recovery = checkpoint_and_recover(deployment, served)
    checkpoint_cpu_s, recover_cpu_s, replayed, ckpt_bytes, same = recovery
    failed += not same
    metrics.update(
        {
            "setup.policies_s": deployment.timings["setup.policies_s"],
            "setup.sequencing_s": deployment.timings["setup.sequencing_s"],
            "setup.bulk_insert_s": deployment.timings["setup.bulk_insert_s"],
            "recovery.checkpoint_cpu_s": checkpoint_cpu_s,
            "recovery.recover_cpu_s": recover_cpu_s,
            "recovery.checkpoint_bytes": ckpt_bytes,
            "recovery.replayed_ops": replayed,
            "tracing.overhead_s": served.wall_s - untraced_wall,
            "wall_rps": workload.n_requests / untraced_wall,
            "error_rate": failed / workload.n_requests,
        }
    )
    return metrics, served.report.stats, failed, problems


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    # Part of the benchmark's command line; the stream's size is fixed.
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=scratch)
    try:
        runner = run_traced if args.trace else run_untraced
        metrics, stats, failed, problems = runner(workload, args.seed, workdir)
        if stats.saturated:
            problems.append("the backlog grew: the tail measures backlog, not latency")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass

    print("# run " + json.dumps(stamp(workload, args.seed)))
    print(
        f"# served {stats.n_requests} requests "
        f"({', '.join(f'{k} {v.count}' for k, v in sorted(stats.per_class.items()))}), "
        f"utilization {stats.utilization:.3f}, saturated {stats.saturated}, "
        f"tail = p{round(workload.tail * 100)}"
    )
    for problem in problems:
        print(f"# FAIL {problem}")
    units = PER_LAYER if args.trace else END_TO_END
    for name, unit in units.items():
        print(f"{name:<34} {metrics[name]:>18.6f} {unit}")
    payload = {
        name: {"value": metrics[name], "unit": unit} for name, unit in units.items()
    }
    print(
        json.dumps(
            {
                "correct": failed == 0 and not problems,
                "attempted": workload.n_requests,
                "failed": failed,
                "metrics": payload,
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
