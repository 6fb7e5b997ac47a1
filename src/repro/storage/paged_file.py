"""Paged file handles: the interface access methods program against.

A :class:`PagedFile` mediates every page access of one named file through
the buffer pool, recording *logical* reads and writes — the paper-model
quantity — on each call regardless of cache residency. Without a pool every
logical access is also a physical one, and the two are recorded in one
statistics call.

Mutation protocol: callers fetch a page with :meth:`read_page` (or create
one with :meth:`append_page`), mutate the returned :class:`Page` in place,
then call :meth:`write_page` to record the logical write and schedule
write-back. A caller that holds the page decoded builds the new image from
that instead and charges the fetch it replaces with :meth:`charge_fetch`. Skipping ``write_page`` after mutating loses the change on
eviction in cached mode and immediately in uncached mode — by design, since
that is what forgetting to write a frame back does on a real system.
"""

from __future__ import annotations

from typing import Iterator, Tuple

from repro.errors import StorageError
from repro.storage.buffer_pool import BufferPool
from repro.storage.disk import DiskStore
from repro.storage.page import Page
from repro.storage.stats import IOStatistics


class PagedFile:
    """Handle to one named file in the simulated database."""

    def __init__(
        self,
        name: str,
        store: DiskStore,
        pool: BufferPool,
        stats: IOStatistics,
    ):
        self.name = name
        self._store = store
        self._pool = pool
        self._stats = stats

    # ------------------------------------------------------------------
    # Geometry
    # ------------------------------------------------------------------
    @property
    def page_size(self) -> int:
        return self._store.page_size

    @property
    def num_pages(self) -> int:
        return self._store.num_pages(self.name)

    @property
    def version(self) -> int:
        """Monotonic modification counter — key for decoded-page caches.

        Bumped by every logical write or page allocation, so any cached
        decode of this file's content is valid exactly as long as the
        version it was captured at is still current.
        """
        return self._store.version(self.name)

    # ------------------------------------------------------------------
    # Page operations
    # ------------------------------------------------------------------
    def read_page(self, page_no: int) -> Page:
        """Fetch one page; counts one logical read."""
        if self._pool.capacity:
            self._stats.record_logical_read(self.name)
            return self._pool.fetch(self.name, page_no)
        return self._read_unbuffered(self._pool.fetch_unbuffered, page_no)

    def charge_read(self, page_no: int) -> None:
        """Charge the full accounting of :meth:`read_page` without decoding.

        Used by version-keyed decode caches: on a cache hit the algorithm
        still *logically* reads every page (the paper's metric), and the
        buffer pool must land in exactly the state a real fetch would leave
        it in (hit/miss counters, LRU order, residency, physical reads) —
        only the page image materialization is skipped.
        """
        if self._pool.capacity:
            self._stats.record_logical_read(self.name)
            self._pool.touch(self.name, page_no)
        else:
            self._read_unbuffered(self._pool.touch_unbuffered, page_no)

    def charge_rereads(self, page_no: int, count: int) -> None:
        """:meth:`charge_read` ``count`` times for a page just read.

        The caller has read ``page_no`` with :meth:`read_page` and holds
        its image, so the page exists: without a pool the reads are one
        miss count and one statistics call; with one, each is a
        :meth:`BufferPool.touch`, keeping hit counts and LRU order exact.
        """
        if self._pool.capacity:
            self._stats.record_logical_read(self.name, count)
            for _ in range(count):
                self._pool.touch(self.name, page_no)
        else:
            self._pool.count_misses(count)
            self._stats.record_unbuffered_read(self.name, count)

    def charge_fetch(self, page_no: int) -> None:
        """:meth:`read_page` for a caller that holds the page decoded.

        The read half of a rewrite whose new image is built from a decode.
        Counters and pool state end up as the fetch would leave them, and
        wherever the fetch would have transferred the page — always without
        a pool, on a miss with one — the stored image's checksum is verified
        as that transfer would, so a torn or flipped page still raises
        :class:`~repro.errors.CorruptPageError` before it is rewritten.
        Without a pool nothing is transferred; with one, a miss is the
        fetch itself.
        """
        if self._pool.capacity:
            self.read_page(page_no)
        else:
            self._read_unbuffered(self._pool.check_unbuffered, page_no)

    def _read_unbuffered(self, access, page_no: int):
        """``access(name, page_no)``, a read past an empty pool, counted.

        Its logical and physical read are recorded in one statistics call;
        if it raises, only the logical read is, as a failed fetch leaves it.
        """
        try:
            result = access(self.name, page_no)
        except BaseException:
            self._stats.record_logical_read(self.name)
            raise
        self._stats.record_unbuffered_read(self.name)
        return result

    def peek_page(self, page_no: int) -> Page:
        """Current page image with NO accounting or pool-state change.

        For decode caches only: read the content here, then charge the
        logical I/O the algorithm actually performs via :meth:`charge_read`
        or :meth:`charge_reads`. Never a substitute for :meth:`read_page`
        in access-method code paths that the cost model meters.
        """
        return self._pool.peek(self.name, page_no)

    def charge_reads(self, count: int) -> None:
        """Charge ``count`` logical reads of pages ``0..count-1`` in bulk.

        Same contract as :meth:`charge_read` — counters and pool state end
        up exactly as ``count`` real fetches would leave them — but with
        O(1) cost in uncached mode. The caller guarantees the pages exist
        (decode caches charge only pages they just decoded).
        """
        if count <= 0:
            return
        self._stats.record_logical_read(self.name, count)
        self._pool.touch_file(self.name, count)

    def write_page(self, page_no: int, page: Page) -> None:
        """Record a logical write of a (mutated) page and persist it."""
        if not 0 <= page_no < self.num_pages:
            raise StorageError(
                f"page {page_no} out of range for {self.name!r} "
                f"({self.num_pages} pages)"
            )
        self._store.bump_version(self.name)
        self._write(page_no, page)

    def append_page(self) -> Tuple[int, Page]:
        """Allocate a zeroed page at the end of the file.

        Counts one logical write (the append itself); further mutations of
        the returned page must still go through :meth:`write_page` if the
        caller wants them counted/persisted.
        """
        page_no = self._store.allocate_page(self.name)
        page = Page(self.page_size)
        self._write(page_no, page)
        return page_no, page

    def _write(self, page_no: int, page: Page) -> None:
        """Count one logical write and hand ``page`` to the pool.

        Without a pool it is written through at once, its logical and
        physical write recorded in one statistics call (the logical one
        alone if the device write raises).
        """
        if self._pool.capacity:
            self._stats.record_logical_write(self.name)
            self._pool.put(self.name, page_no, page, dirty=True)
            return
        try:
            self._pool.write_unbuffered(self.name, page_no, page)
        except BaseException:
            self._stats.record_logical_write(self.name)
            raise
        self._stats.record_unbuffered_write(self.name)

    def scan_pages(self) -> Iterator[Tuple[int, Page]]:
        """Full sequential scan; each yielded page counts one logical read."""
        for page_no in range(self.num_pages):
            yield page_no, self.read_page(page_no)

    def __repr__(self) -> str:
        return f"PagedFile({self.name!r}, pages={self.num_pages})"


class StorageManager:
    """Owns the disk, the buffer pool, the statistics, and the file table.

    One manager per simulated database instance. ``pool_capacity = 0``
    reproduces the paper's unbuffered cost model; larger pools are used by
    the buffer-pool ablation bench.
    """

    def __init__(self, page_size: int = 4096, pool_capacity: int = 0):
        self.stats = IOStatistics()
        self.store = DiskStore(page_size=page_size)
        self.pool = BufferPool(self.store, self.stats, capacity=pool_capacity)

    @property
    def page_size(self) -> int:
        return self.store.page_size

    # ------------------------------------------------------------------
    # Fault injection
    # ------------------------------------------------------------------
    def attach_fault_injector(self, injector=None, **kwargs):
        """Interpose a fault injector between the pool and the disk.

        Pass a ready-made :class:`~repro.storage.faults.FaultInjector`, or
        keyword arguments (``rules=``, ``seed=``, rates) to build one
        around the current store. All device traffic — pool fetches and
        write-backs, accounting-free peeks — flows through the injector;
        already-open :class:`PagedFile` handles are unaffected because
        their page images travel via the pool, which is rewired here.
        Returns the injector so callers can add rules or read its log.

        Transient faults are retried by the buffer pool per its
        :class:`~repro.resilience.RetryPolicy` (attempt count,
        exponential backoff, optional ``jitter_seconds``). Rules with
        ``op="wal-append"`` fire on write-ahead-log appends instead of
        device I/O — attach through
        :meth:`repro.objects.database.Database.attach_fault_injector` so
        the WAL sees the injector too.
        """
        from repro.storage.faults import FaultInjector

        if isinstance(self.store, FaultInjector):
            raise StorageError("a fault injector is already attached")
        if injector is None:
            injector = FaultInjector(self.store, **kwargs)
        elif kwargs:
            raise StorageError(
                "pass either a FaultInjector or constructor kwargs, not both"
            )
        self.store = injector
        self.pool.store = injector
        return injector

    def detach_fault_injector(self) -> None:
        """Remove the injector (if any), restoring the raw store."""
        from repro.storage.faults import FaultInjector

        if isinstance(self.store, FaultInjector):
            inner = self.store.inner
            self.store = inner
            self.pool.store = inner

    def create_file(self, name: str) -> PagedFile:
        self.store.create_file(name)
        return PagedFile(name, self.store, self.pool, self.stats)

    def open_file(self, name: str) -> PagedFile:
        if not self.store.exists(name):
            raise StorageError(f"no such file: {name!r}")
        return PagedFile(name, self.store, self.pool, self.stats)

    def drop_file(self, name: str) -> None:
        self.pool.invalidate_file(name)
        self.store.drop_file(name)

    def snapshot(self):
        """Current I/O snapshot (delegates to :class:`IOStatistics`)."""
        return self.stats.snapshot()

    def flush(self) -> int:
        return self.pool.flush_all()
