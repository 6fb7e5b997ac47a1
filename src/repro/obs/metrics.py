"""Process-wide metrics registry: counters, gauges, histograms.

One :data:`REGISTRY` per process aggregates operational metrics across
every :class:`~repro.objects.database.Database` instance — the "serve heavy
traffic" view the per-query :class:`QueryStatistics` cannot give:

* ``storage.pool.hits`` / ``storage.pool.misses`` — buffer-pool counters
  (fed by :class:`~repro.storage.buffer_pool.BufferPool`);
* ``storage.decode_cache.hits`` / ``storage.decode_cache.misses`` — decoded
  page-payload cache counters, and ``storage.decode_cache.patches`` /
  ``storage.decode_cache.drops`` — payloads an in-place write carried to
  the file's new version, or discarded (fed by
  :class:`~repro.storage.decode_cache.DecodeSlot`);
* ``storage.disk.page_reads`` / ``storage.disk.page_writes`` /
  ``storage.disk.pages_allocated`` — physical transfers at the simulated
  device (fed by :class:`~repro.storage.disk.DiskStore`);
* ``query.executed`` / ``query.candidates`` / ``query.false_drops`` /
  ``query.results`` — drop-resolution tallies, plus ``query.pages.<kind>``
  logical pages per file kind and the ``query.elapsed_seconds`` /
  ``query.pages`` / ``query.false_drop_ratio`` histograms (fed by
  :class:`~repro.query.executor.QueryExecutor`);
* ``storage.faults.injected`` — faults fired by an attached
  :class:`~repro.storage.faults.FaultInjector`; ``storage.retries`` —
  transient-fault retries by the buffer pool's
  :func:`~repro.storage.faults.with_retries`;
* ``query.degraded_fallbacks`` — queries answered by sequential scan after
  a facility storage failure (at most once per query); ``recovery.rebuilds``
  — facility reconstructions from the object file;
  ``recovery.degraded_facilities`` (gauge) — facilities currently marked
  degraded;
* ``wal.appends`` / ``wal.fsyncs`` — write-ahead-log records durably
  appended and the fsyncs they issued; ``wal.checkpoints`` — fuzzy
  checkpoints taken; ``wal.torn_tails_truncated`` — half-written final
  records dropped while opening a log; ``recovery.wal_replayed_records`` —
  log records redone during recovery; ``recovery.wal_replay_rebuilds`` —
  facilities reconstructed because replay hit a damaged facility (all fed
  by :mod:`repro.wal`);
* ``latch.read_acquires`` / ``latch.write_acquires`` /
  ``latch.read_waits`` / ``latch.write_waits`` / ``latch.upgrades`` —
  reader-writer latch traffic (fed by
  :class:`~repro.concurrency.latch.RWLatch`);
* ``server.submitted`` / ``server.admitted`` / ``server.shed`` /
  ``server.completed`` / ``server.errors`` — query-service admission and
  completion counts, plus the ``server.workers`` gauge and the
  ``server.admission_wait_seconds`` / ``server.query_seconds`` histograms
  (fed by :class:`~repro.server.QueryService`).

Instruments are plain attribute-increment objects: feeding them is a few
nanoseconds and never touches the I/O accounting, so golden page-access
counts are unaffected. Tests use :meth:`MetricsRegistry.reset` or a private
registry instance.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, Optional

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "REGISTRY",
    "file_kind",
]


class Counter:
    """Monotonically increasing integer.

    Increments are atomic: a plain ``+=`` on an instance attribute is a
    read-modify-write that CPython may interleave across threads (the GIL
    guarantees bytecode atomicity, not statement atomicity), silently
    losing counts once the query service runs concurrent workers. Each
    counter carries its own lock; reads of :attr:`value` need none (int
    loads are atomic and the value is monotone).
    """

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str):
        self.name = name
        self.value = 0
        self._lock = threading.Lock()

    def inc(self, amount: int = 1) -> None:
        with self._lock:
            self.value += amount

    def __repr__(self) -> str:
        return f"Counter({self.name!r}, {self.value})"


class Gauge:
    """Last-set value (e.g. resident pages, entries in a cache)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def __repr__(self) -> str:
        return f"Gauge({self.name!r}, {self.value})"


class Histogram:
    """Streaming summary: count / total / min / max plus coarse buckets.

    Bucket bounds are powers of ten from 1e-6 up — enough resolution to
    separate "sub-millisecond query" from "page-storm" without storing
    samples.
    """

    __slots__ = ("name", "count", "total", "min", "max", "buckets", "_lock")

    _BOUNDS = tuple(10.0 ** e for e in range(-6, 7))  # 1e-6 .. 1e6

    def __init__(self, name: str):
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self.buckets = [0] * (len(self._BOUNDS) + 1)
        self._lock = threading.Lock()

    def record(self, value: float) -> None:
        with self._lock:
            self.count += 1
            self.total += value
            if self.min is None or value < self.min:
                self.min = value
            if self.max is None or value > self.max:
                self.max = value
            for i, bound in enumerate(self._BOUNDS):
                if value <= bound:
                    self.buckets[i] += 1
                    return
            self.buckets[-1] += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def summary(self) -> Dict[str, float]:
        return {
            "count": self.count,
            "total": self.total,
            "mean": self.mean,
            "min": self.min if self.min is not None else 0.0,
            "max": self.max if self.max is not None else 0.0,
        }

    def __repr__(self) -> str:
        return f"Histogram({self.name!r}, n={self.count}, mean={self.mean:.4g})"


class MetricsRegistry:
    """Named instruments, created on first use and stable thereafter.

    Creation is serialized by a registry lock so two threads asking for the
    same name always observe one instrument; components cache the returned
    references, so the lock is off the hot path.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        instrument = self._counters.get(name)
        if instrument is None:
            with self._lock:
                instrument = self._counters.setdefault(name, Counter(name))
        return instrument

    def gauge(self, name: str) -> Gauge:
        instrument = self._gauges.get(name)
        if instrument is None:
            with self._lock:
                instrument = self._gauges.setdefault(name, Gauge(name))
        return instrument

    def histogram(self, name: str) -> Histogram:
        instrument = self._histograms.get(name)
        if instrument is None:
            with self._lock:
                instrument = self._histograms.setdefault(name, Histogram(name))
        return instrument

    def snapshot(self) -> Dict[str, Any]:
        """All instruments as one JSON-serializable dict."""
        return {
            "counters": {n: c.value for n, c in sorted(self._counters.items())},
            "gauges": {n: g.value for n, g in sorted(self._gauges.items())},
            "histograms": {
                n: h.summary() for n, h in sorted(self._histograms.items())
            },
        }

    def reset(self) -> None:
        """Zero every instrument (tests / between benchmark phases).

        Instruments are zeroed in place, not discarded: components cache
        references to their counters at construction time and must keep
        observing the same objects.
        """
        for counter in self._counters.values():
            counter.value = 0
        for gauge in self._gauges.values():
            gauge.value = 0.0
        for histogram in self._histograms.values():
            histogram.count = 0
            histogram.total = 0.0
            histogram.min = None
            histogram.max = None
            histogram.buckets = [0] * len(histogram.buckets)


#: The process-wide registry every component feeds by default.
REGISTRY = MetricsRegistry()


def file_kind(name: str) -> str:
    """Classify a simulated file name into the paper's file kinds.

    ``ssf:…:signatures`` → ``ssf.signature``; ``bssf:…:slice:NNNN`` →
    ``bssf.slice``; either facility's ``…:oids`` → ``<facility>.oid``;
    an LSM run's ``…:entries`` table → ``<facility>.entries`` and a
    ``…:manifest:a|b`` slot → ``<facility>.manifest`` (bookkeeping pages,
    not signature pages); ``nix:…:btree`` → ``nix``; ``objects:Class`` →
    ``object``. Anything else falls back to its leading component.
    """
    parts = name.split(":")
    head = parts[0]
    if head == "objects":
        return "object"
    if head in ("ssf", "bssf"):
        if parts[-1] == "oids":
            return f"{head}.oid"
        if parts[-1] == "entries":
            return f"{head}.entries"
        if len(parts) >= 2 and parts[-2] == "manifest":
            return f"{head}.manifest"
        if len(parts) >= 2 and parts[-2] == "slice":
            return "bssf.slice"
        return f"{head}.signature"
    if head == "nix":
        return "nix"
    return head or "other"
