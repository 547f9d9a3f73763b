"""Benchmark-side wall timers around the layers' public functions.

:class:`LayerTimers` patches a fixed list of public methods with
wrappers that time each call on the wall clock and keep a per-thread
stack of open calls, so every layer gets a *self time*: its calls'
wall time minus the part covered by timed calls nested inside them.
Nothing under ``src/`` changes; the patches are undone on exit.

Worker threads.  ``IOScheduler.run_timed`` may run its jobs on a
thread pool while the calling thread blocks.  Timed calls on a worker
thread are charged to the ``run_timed`` call that spawned the pool:
the wall time during which at least one worker was inside a timed
call (the union of their intervals) is taken out of ``run_timed``'s
self time and shared among the workers' layers in proportion to their
thread-seconds.  Every instant of the served run's wall time is thus
charged to exactly one layer, so the self times add up to the wall
time of ``SimulatedService.run``.
"""

from __future__ import annotations

import functools
import threading
from threading import get_ident
from time import perf_counter

from repro.btree.tree import BPlusTree
from repro.core.peb_tree import PEBTree
from repro.engine.executor import QueryEngine
from repro.engine.scanner import BandScanner
from repro.engine.updater import UpdatePipeline
from repro.engine.verify import CandidateVerifier
from repro.service.worker import SimulatedService
from repro.shard.engine import ShardScatterScanner
from repro.simio.scheduler import IOScheduler

#: (layer name, class, method) whose calls are timed, outermost first.
TIMED = (
    ("service.run", SimulatedService, "run"),
    ("engine.execute_batch", QueryEngine, "execute_batch"),
    ("update.flush", UpdatePipeline, "flush"),
    ("simio.run_timed", IOScheduler, "run_timed"),
    ("scanner.prefetch", BandScanner, "prefetch"),
    ("shard.scan", ShardScatterScanner, "scan"),
    ("index.scan_band_rows", PEBTree, "scan_band_rows"),
    ("verify.admit_rows", CandidateVerifier, "admit_rows"),
    ("btree.apply_sorted_batch", BPlusTree, "apply_sorted_batch"),
)
#: (name, class, method) whose calls are only counted: ``scan_chunks``
#: is a generator, so its work runs inside its caller's timed call.
COUNTED = (("btree.scan_chunks", BPlusTree, "scan_chunks"),)

POOL_LAYER = "simio.run_timed"


class _Frame:
    __slots__ = ("name", "start", "child_s", "workers")

    def __init__(self, name: str, start: float):
        self.name = name
        self.start = start
        self.child_s = 0.0
        # (start, end, {layer: self seconds}) per top-level timed call
        # a worker thread made under this frame (run_timed frames only).
        self.workers: list | None = None


def _union_length(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start = max(start, cursor)
        end = min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


class LayerTimers:
    """Context manager that times :data:`TIMED` and counts :data:`COUNTED`.

    Attributes:
        self_s: layer name -> summed self seconds.
        calls: layer or counted name -> number of calls.
        batch_stats: the ``ExecutionStats`` of every ``execute_batch``
            call, in call order.

    The serving thread is the one that enters the context.  It never
    runs a timed call while workers do (it blocks in ``run_timed``), so
    only worker threads need the lock.
    """

    def __init__(self) -> None:
        self.self_s: dict[str, float] = {name: 0.0 for name, _, _ in TIMED}
        self.calls: dict[str, int] = {name: 0 for name, _, _ in TIMED + COUNTED}
        self.batch_stats: list = []
        self._main: int | None = None
        self._stack: list[_Frame] = []
        self._pool_frames: list[_Frame] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._saved: list[tuple[type, str, object]] = []

    # -- patching ------------------------------------------------------

    def __enter__(self) -> "LayerTimers":
        self._main = threading.get_ident()
        for name, cls, attr in TIMED:
            observe = self.batch_stats.append if name == "engine.execute_batch" else None
            self._patch(cls, attr, self._timed(name, getattr(cls, attr), observe))
        for name, cls, attr in COUNTED:
            self._patch(cls, attr, self._counted(name, getattr(cls, attr)))
        return self

    def __exit__(self, *exc) -> None:
        for cls, attr, original in reversed(self._saved):
            if original is None:
                delattr(cls, attr)
            else:
                setattr(cls, attr, original)
        self._saved.clear()

    def _patch(self, cls: type, attr: str, wrapper) -> None:
        self._saved.append((cls, attr, cls.__dict__.get(attr)))
        setattr(cls, attr, wrapper)

    def _timed(self, name: str, fn, observe=None):
        main = self._main
        stack = self._stack
        calls = self.calls
        self_s = self.self_s
        is_pool = name == POOL_LAYER

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if get_ident() != main:
                return self._on_worker(name, fn, args, kwargs)
            calls[name] += 1
            frame = _Frame(name, perf_counter())
            if is_pool:
                frame.workers = []
                self._pool_frames.append(frame)
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                if is_pool:
                    self._pool_frames.pop()
                    self._settle_workers(frame, end)
                stack.pop()
                duration = end - frame.start
                self_s[name] += duration - frame.child_s
                if stack:
                    stack[-1].child_s += duration
            if observe is not None:
                observe(result.stats)
            return result

        return wrapper

    def _counted(self, name: str, fn):
        main = self._main
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if get_ident() == main:
                calls[name] += 1
            else:
                with self._lock:
                    calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- worker threads ------------------------------------------------

    def _on_worker(self, name: str, fn, args, kwargs):
        """A timed call on a worker thread: accounted locally, charged to
        the spawning ``run_timed`` frame when the outermost call ends."""
        local = self._local
        stack = getattr(local, "stack", None)
        if stack is None:
            stack = local.stack = []
        if not stack:
            if not self._pool_frames:
                raise RuntimeError(
                    f"{name} ran on a worker thread outside any run_timed call"
                )
            local.parent = self._pool_frames[-1]
            local.pending = {}
        with self._lock:
            self.calls[name] += 1
        frame = _Frame(name, perf_counter())
        stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            duration = end - frame.start
            pending = local.pending
            pending[name] = pending.get(name, 0.0) + duration - frame.child_s
            if stack:
                stack[-1].child_s += duration
            else:
                local.parent.workers.append((frame.start, end, pending))

    def _settle_workers(self, frame: _Frame, end: float) -> None:
        """Charge worker-thread calls under one ``run_timed`` frame."""
        records = frame.workers
        if not records:
            return
        covered = _union_length(
            [(start, stop) for start, stop, _ in records], frame.start, end
        )
        thread_seconds = sum(stop - start for start, stop, _ in records)
        share = covered / thread_seconds if thread_seconds > 0 else 0.0
        for _, _, pending in records:
            for name, seconds in pending.items():
                self.self_s[name] += seconds * share
        frame.child_s += covered


__all__ = ["COUNTED", "LayerTimers", "TIMED"]
