"""Paged storage substrate: simulated disk, LRU buffer pool, I/O statistics.

The paper (Section 7.1) measures query performance in page I/Os with a
4 KiB page size and a 50-page LRU buffer.  This package provides that
measurement substrate:

* :class:`~repro.storage.disk.SimulatedDisk` stores serialized pages and
  counts physical reads and writes.
* :class:`~repro.storage.buffer.BufferPool` is an LRU cache of deserialized
  pages in front of the disk; a miss is a physical read, an eviction of a
  dirty page is a physical write.
* :class:`~repro.storage.stats.IOStats` is the counter bundle shared by the
  two layers.
* :mod:`~repro.storage.replacement` supplies the eviction policies (LRU
  per the paper; FIFO/CLOCK/LFU for the buffer-policy ablation).
* :mod:`~repro.storage.faults` injects disk failures and page corruption
  for the failure-handling tests.

Index structures (``repro.btree`` and everything built on it) never touch
the disk directly; all their page traffic flows through a buffer pool so
that experiments observe exactly the I/O the paper reports.
"""

from repro.storage.buffer import BufferPool
from repro.storage.disk import PAGE_SIZE, SimulatedDisk
from repro.storage.faults import (
    ChecksummedDisk,
    CorruptPageError,
    DiskFaultError,
    FaultyDisk,
)
from repro.storage.page import PageSerializer
from repro.storage.persistence import SnapshotError, load_disk, save_disk, save_pool
from repro.storage.replacement import POLICIES, make_policy
from repro.storage.stats import IOStats, StatsView

__all__ = [
    "PAGE_SIZE",
    "POLICIES",
    "BufferPool",
    "ChecksummedDisk",
    "CorruptPageError",
    "DiskFaultError",
    "FaultyDisk",
    "IOStats",
    "PageSerializer",
    "SimulatedDisk",
    "SnapshotError",
    "StatsView",
    "load_disk",
    "make_policy",
    "save_disk",
    "save_pool",
]
