"""LRU buffer pool between the access methods and the simulated disk.

Each frame caches one ``(file, page_no)`` page image. Fetching a page that
is not resident costs one physical read; evicting a dirty frame costs one
physical write. Logical accesses are recorded by :class:`PagedFile`, not
here, so that the paper-model quantity (pages *touched* by the algorithm) is
independent of cache hits.

The pool intentionally has no pinning protocol: access methods never hold
page references across other page operations, and page images are immutable
once fetched. ``capacity = 0`` disables caching entirely (every logical
access becomes a physical one), which is the configuration that matches the
paper's no-buffering cost model exactly.

Thread-safety: all frame-map and counter state is guarded by one reentrant
lock. In uncached mode the device read happens *outside* the lock — there
is no shared frame state to protect, and holding the lock across a
simulated-latency read would serialize concurrent readers and erase the
overlap the query service exists to exploit. With a real cache the lock is
held across the miss so two threads cannot double-install one page.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Tuple

from repro.errors import BufferPoolError
from repro.obs.metrics import REGISTRY
from repro.storage.disk import DiskStore
from repro.storage.faults import DEFAULT_RETRY_POLICY, RetryPolicy, with_retries
from repro.storage.page import Page
from repro.storage.stats import IOStatistics

_FrameKey = Tuple[str, int]


class BufferPool:
    """Write-back LRU cache of page frames.

    The pool is the single place where page images cross to or from the
    device, so it is also where transient device faults are retried: every
    ``store.read_page`` / ``store.write_page`` is wrapped in
    :func:`~repro.storage.faults.with_retries` under ``retry_policy``.
    Retries are a device-level concern and charge no logical or physical
    I/O beyond the one the caller asked for.
    """

    def __init__(
        self,
        store: DiskStore,
        stats: IOStatistics,
        capacity: int = 64,
    ):
        if capacity < 0:
            raise BufferPoolError(f"capacity must be >= 0, got {capacity}")
        self.store = store
        self.stats = stats
        self.capacity = capacity
        #: the device-fault retry schedule (a fault drill may swap it)
        self.retry_policy: RetryPolicy = DEFAULT_RETRY_POLICY
        self._lock = threading.RLock()
        self._frames: "OrderedDict[_FrameKey, Page]" = OrderedDict()
        self._dirty: set = set()
        self.hits = 0
        self.misses = 0
        # Process-wide instruments (shared across pools, survive clear()).
        self._metric_hits = REGISTRY.counter("storage.pool.hits")
        self._metric_misses = REGISTRY.counter("storage.pool.misses")

    # ------------------------------------------------------------------
    # Device access (single choke point, transient faults retried here)
    # ------------------------------------------------------------------
    def _read_page(self, file_name: str, page_no: int) -> Page:
        return with_retries(
            self.store.read_page, self.retry_policy, file_name, page_no
        )

    def _write_page(self, file_name: str, page_no: int, page: Page) -> None:
        with_retries(
            self.store.write_page, self.retry_policy, file_name, page_no, page
        )

    # ------------------------------------------------------------------
    # Unbuffered transfers (capacity 0), statistics left to the caller
    # ------------------------------------------------------------------
    # ``PagedFile`` records an unbuffered access's logical and physical
    # count in one statistics call, so these count the pool miss and move
    # the page but record no I/O themselves. The device read happens
    # outside the lock so concurrent device reads overlap.
    def count_misses(self, count: int = 1) -> None:
        """Count ``count`` misses of an empty pool; nothing is transferred."""
        with self._lock:
            self.misses += count
        self._metric_misses.inc(count)

    def fetch_unbuffered(self, file_name: str, page_no: int) -> Page:
        """An uncached :meth:`fetch`: one miss, one device read."""
        self.count_misses()
        return self._read_page(file_name, page_no)

    def touch_unbuffered(self, file_name: str, page_no: int) -> None:
        """An uncached :meth:`touch`: the range check and one miss."""
        if not 0 <= page_no < self.store.num_pages(file_name):
            # Raise the canonical out-of-range error, exactly as fetch would.
            self._read_page(file_name, page_no)
        self.count_misses()

    def check_unbuffered(self, file_name: str, page_no: int) -> None:
        """An uncached :meth:`fetch` of a page the caller holds decoded.

        The miss is counted and the stored image's checksum checked, as the
        device read would; nothing is transferred
        (:meth:`~repro.storage.disk.DiskStore.check_page`).
        """
        self.count_misses()
        self.store.check_page(file_name, page_no)

    def write_unbuffered(self, file_name: str, page_no: int, page: Page) -> None:
        """An uncached write-through: one device write."""
        self._write_page(file_name, page_no, page)

    # ------------------------------------------------------------------
    # Core operations
    # ------------------------------------------------------------------
    def fetch(self, file_name: str, page_no: int) -> Page:
        """Return the page, loading it from the store on a miss."""
        key = (file_name, page_no)
        if self.capacity == 0:
            # Nothing resident and nothing retained.
            page = self.fetch_unbuffered(file_name, page_no)
            self.stats.record_physical_read(file_name)
            return page
        with self._lock:
            frame = self._frames.get(key)
            if frame is not None:
                self.hits += 1
                self._metric_hits.inc()
                self._frames.move_to_end(key)
                return frame
            self.misses += 1
            self._metric_misses.inc()
            page = self._read_page(file_name, page_no)
            self.stats.record_physical_read(file_name)
            self._install(key, page)
            return page

    def touch(self, file_name: str, page_no: int) -> None:
        """Replay :meth:`fetch`'s accounting and state transitions without
        returning the page image.

        Decode caches use this for read-through charging: hit/miss counters,
        LRU recency, physical-read counts, residency and eviction side
        effects are all identical to a real fetch; in uncached mode
        (capacity 0) the page materialization itself is skipped, which is
        the whole point.
        """
        key = (file_name, page_no)
        with self._lock:
            if key in self._frames:
                self.hits += 1
                self._metric_hits.inc()
                self._frames.move_to_end(key)
                return
            if not 0 <= page_no < self.store.num_pages(file_name):
                # Raise the canonical out-of-range error, exactly as fetch would.
                self._read_page(file_name, page_no)
            self.misses += 1
            self._metric_misses.inc()
            self.stats.record_physical_read(file_name)
            if self.capacity > 0:
                self._install(key, self._read_page(file_name, page_no))

    def peek(self, file_name: str, page_no: int) -> Page:
        """Current page image with zero accounting and zero state change.

        Simulator-internal: decode caches read content through this and
        charge the corresponding logical/physical I/O separately (via
        :meth:`touch` and friends), so that what-is-read and what-is-charged
        can be decoupled without ever diverging in the counters. Prefers the
        resident frame (which may be dirty) over the store image.
        """
        with self._lock:
            frame = self._frames.get((file_name, page_no))
        if frame is not None:
            return frame
        # Device read outside the lock: peeks dominate the warm search path
        # and must overlap across reader threads under simulated latency.
        return self._read_page(file_name, page_no)

    def touch_file(self, file_name: str, pages: int) -> None:
        """Replay fetch accounting for pages ``0..pages-1`` of one file.

        In uncached mode (capacity 0) every logical read is a physical read
        and nothing is retained, so the whole batch collapses to two counter
        increments; the caller guarantees the pages exist (it just decoded
        them). With a real pool the per-page :meth:`touch` loop preserves
        LRU order, residency, and eviction side effects exactly.
        """
        if pages <= 0:
            return
        if self.capacity == 0:
            with self._lock:
                self.misses += pages
            self._metric_misses.inc(pages)
            self.stats.record_physical_read(file_name, pages)
            return
        for page_no in range(pages):
            self.touch(file_name, page_no)

    def touch_files(self, file_names, pages_each: int) -> None:
        """Batch :meth:`touch_file` over many files (BSSF slice charging)."""
        if pages_each <= 0:
            return
        if self.capacity == 0:
            with self._lock:
                self.misses += pages_each * len(file_names)
            self._metric_misses.inc(pages_each * len(file_names))
            self.stats.record_physical_read_many(file_names, pages_each)
            return
        for file_name in file_names:
            for page_no in range(pages_each):
                self.touch(file_name, page_no)

    def put(self, file_name: str, page_no: int, page: Page, dirty: bool = True) -> None:
        """Install a page image produced by the caller (e.g. a fresh append)."""
        key = (file_name, page_no)
        if self.capacity == 0:
            # Nothing is retained in uncached mode; persist dirty images
            # immediately, clean ones are already on the store.
            if dirty:
                self._writeback(key, page)
            return
        with self._lock:
            self._install(key, page)
            if dirty:
                self._dirty.add(key)

    def mark_dirty(self, file_name: str, page_no: int) -> None:
        key = (file_name, page_no)
        with self._lock:
            if key not in self._frames:
                raise BufferPoolError(f"page not resident: {key}")
            self._dirty.add(key)

    def _install(self, key: _FrameKey, page: Page) -> None:
        if self.capacity == 0:
            # Uncached mode retains nothing; a freshly fetched page is
            # clean, so dropping it costs no write.
            return
        self._frames[key] = page
        self._frames.move_to_end(key)
        while len(self._frames) > self.capacity:
            old_key, old_page = self._frames.popitem(last=False)
            if old_key in self._dirty:
                self._dirty.discard(old_key)
                self._writeback(old_key, old_page)

    def _writeback(self, key: _FrameKey, page: Page) -> None:
        file_name, page_no = key
        self._write_page(file_name, page_no, page)
        self.stats.record_physical_write(file_name)

    # ------------------------------------------------------------------
    # Uncached-mode write path
    # ------------------------------------------------------------------
    def write_through(self, file_name: str, page_no: int, page: Page) -> None:
        """Persist a modified page immediately (used when capacity == 0,
        and by callers that need durability mid-run)."""
        key = (file_name, page_no)
        self._writeback(key, page)
        with self._lock:
            if key in self._frames:
                self._frames[key] = page
                self._dirty.discard(key)

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def flush_all(self) -> int:
        """Write every dirty frame back; return the number written."""
        written = 0
        with self._lock:
            for key in list(self._dirty):
                page = self._frames.get(key)
                if page is not None:
                    self._writeback(key, page)
                    written += 1
                self._dirty.discard(key)
        return written

    def invalidate_file(self, file_name: str) -> None:
        """Drop (without writeback) all frames of a file being destroyed."""
        with self._lock:
            doomed = [key for key in self._frames if key[0] == file_name]
            for key in doomed:
                del self._frames[key]
                self._dirty.discard(key)

    def clear(self) -> None:
        """Flush then empty the pool (e.g. between metered experiments).

        Also resets the hit/miss counters: a cleared pool starts a fresh
        measurement, and a stale ratio would leak one experiment's locality
        into the next run's ``hit_ratio()``.
        """
        with self._lock:
            self.flush_all()
            self._frames.clear()
            self._dirty.clear()
            self.hits = 0
            self.misses = 0

    @property
    def resident_pages(self) -> int:
        with self._lock:
            return len(self._frames)

    def hit_ratio(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
