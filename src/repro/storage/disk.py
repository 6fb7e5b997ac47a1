"""The simulated disk: a per-file array of page images.

The paper's evaluation metric is the number of disk-page accesses, not
wall-clock time on a particular device, so the backing store is an in-memory
map from ``(file name, page number)`` to immutable page images. Every
transfer to or from the store is a *physical* I/O and is recorded in
:class:`~repro.storage.stats.IOStatistics` by the buffer pool.

The store is thread-safe (one reentrant lock over all maps) and can
optionally simulate read latency: when ``read_latency_seconds`` is
non-zero, each page read sleeps that long *after* releasing the lock, so
concurrent readers' transfers overlap the way independent disk requests
would. The serving tests use it to hold a query in flight.
"""

from __future__ import annotations

import threading
import time
import zlib
from typing import Dict, List, Optional

from repro.errors import CorruptPageError, StorageError
from repro.obs.metrics import REGISTRY
from repro.storage.page import DEFAULT_PAGE_SIZE, Page


class DiskStore:
    """In-memory page store for any number of named files.

    Every page carries a CRC32 checksum in a sidecar map (never inside the
    page payload, so page layouts and the golden page-access counts stay
    bit-identical). The checksum is maintained on every write/allocation
    and verified on every physical read; a mismatch — which only fault
    injection or a genuine bug can produce — raises
    :class:`~repro.errors.CorruptPageError`. Verification is pure
    arithmetic on the already-transferred image and charges no I/O.
    """

    def __init__(self, page_size: int = DEFAULT_PAGE_SIZE):
        if page_size <= 0:
            raise StorageError(f"page size must be positive, got {page_size}")
        self.page_size = page_size
        #: simulated per-page read latency, slept *after* the store's lock
        #: is released so concurrent reads overlap (sleeping releases the
        #: GIL). Zero (the default) sleeps nothing and keeps the
        #: sequential fast path sleep-free.
        self.read_latency_seconds = 0.0
        # One reentrant lock over all file/checksum/version maps: store
        # operations are short dict-and-list manipulations, and reentrancy
        # lets write_page/allocate_page call bump_version under the lock.
        self._lock = threading.RLock()
        # Raw device-operation counters (includes accounting-free peeks,
        # which also read through the store); the paper-model physical
        # counts live in IOStatistics, recorded by the buffer pool.
        self._metric_reads = REGISTRY.counter("storage.disk.page_reads")
        self._metric_writes = REGISTRY.counter("storage.disk.page_writes")
        self._metric_allocs = REGISTRY.counter("storage.disk.pages_allocated")
        self._files: Dict[str, List[bytes]] = {}
        # Sidecar CRC32 per (file, page), parallel to _files.
        self._checksums: Dict[str, List[int]] = {}
        self._zero_page_crc = zlib.crc32(bytes(page_size))
        # Per-file modification counters for version-keyed decode caches.
        # Monotonic across the store's lifetime — surviving drop/recreate of
        # a name — so a (name, version) key can never alias stale content.
        self._versions: Dict[str, int] = {}
        # Version groups: a named counter bumped whenever any member file
        # bumps, giving callers O(1) staleness checks over many files
        # (e.g. a BSSF's F slice files) instead of F version lookups.
        self._group_versions: Dict[str, int] = {}
        self._file_groups: Dict[str, str] = {}

    def create_file(self, name: str) -> None:
        with self._lock:
            if name in self._files:
                raise StorageError(f"file already exists: {name!r}")
            self._files[name] = []
            self._checksums[name] = []
            self.bump_version(name)

    def drop_file(self, name: str) -> None:
        with self._lock:
            if name not in self._files:
                raise StorageError(f"no such file: {name!r}")
            del self._files[name]
            del self._checksums[name]
            # A dropped file leaves its version group: a later file recreated
            # under the same name must not silently rejoin (and bump) a group
            # registered for the old incarnation. The group itself is bumped
            # once so caches keyed on the old membership cannot stay valid.
            group = self._file_groups.pop(name, None)
            if group is not None:
                self._group_versions[group] = (
                    self._group_versions.get(group, 0) + 1
                )

    def exists(self, name: str) -> bool:
        with self._lock:
            return name in self._files

    def file_names(self) -> List[str]:
        with self._lock:
            return sorted(self._files)

    def num_pages(self, name: str) -> int:
        with self._lock:
            return len(self._pages(name))

    def version(self, name: str) -> int:
        """Current modification counter of ``name`` (0 if never touched)."""
        with self._lock:
            return self._versions.get(name, 0)

    def bump_version(self, name: str) -> int:
        """Advance and return the file's modification counter.

        Called on every structural or content change — page allocation and
        page writes from the store itself, logical writes from
        :class:`~repro.storage.paged_file.PagedFile` (which may buffer the
        bytes in the pool long before they reach the store).
        """
        with self._lock:
            bumped = self._versions.get(name, 0) + 1
            self._versions[name] = bumped
            group = self._file_groups.get(name)
            if group is not None:
                self._group_versions[group] = (
                    self._group_versions.get(group, 0) + 1
                )
            return bumped

    def register_version_group(self, group: str, names) -> None:
        """Make ``group``'s counter advance whenever any named file bumps.

        A decode cache spanning many files (a BSSF's ``F`` slice files) can
        then validate itself with one counter read instead of ``F``.
        Registration itself bumps the group, conservatively invalidating
        anything keyed on an earlier membership.
        """
        with self._lock:
            for name in names:
                self._file_groups[name] = group
            self._group_versions[group] = self._group_versions.get(group, 0) + 1

    def group_version(self, group: str) -> int:
        """Current counter of a version group (0 if never registered)."""
        with self._lock:
            return self._group_versions.get(group, 0)

    def _pages(self, name: str) -> List[bytes]:
        try:
            return self._files[name]
        except KeyError:
            raise StorageError(f"no such file: {name!r}") from None

    def _pages_holding(self, name: str, page_no: int) -> List[bytes]:
        """``name``'s page list, which must hold ``page_no`` (lock held)."""
        pages = self._pages(name)
        if not 0 <= page_no < len(pages):
            raise StorageError(
                f"page {page_no} out of range for {name!r} ({len(pages)} pages)"
            )
        return pages

    def _verify(self, name: str, page_no: int, image: bytes) -> None:
        """Raise if ``image`` fails its recorded CRC (lock held)."""
        if zlib.crc32(image) != self._checksums[name][page_no]:
            raise CorruptPageError(
                f"checksum mismatch on {name!r} page {page_no}: stored image "
                f"does not match its recorded CRC32"
            )

    def allocate_page(self, name: str) -> int:
        """Extend the file by one zeroed page; return its page number."""
        with self._lock:
            pages = self._pages(name)
            pages.append(bytes(self.page_size))
            self._checksums[name].append(self._zero_page_crc)
            self.bump_version(name)
            self._metric_allocs.inc()
            return len(pages) - 1

    def read_page(self, name: str, page_no: int) -> Page:
        with self._lock:
            image = self._pages_holding(name, page_no)[page_no]
            self._metric_reads.inc()
            self._verify(name, page_no, image)
        if self.read_latency_seconds:
            time.sleep(self.read_latency_seconds)
        return Page(self.page_size, image)

    def check_page(self, name: str, page_no: int) -> None:
        """Raise what :meth:`read_page` would for this page, moving nothing.

        For a reader that already holds the page decoded: the range and
        checksum checks of a read, without the transfer — no copy, no
        device-read metric, no simulated latency.
        """
        with self._lock:
            self._verify(name, page_no, self._pages_holding(name, page_no)[page_no])

    def write_page(self, name: str, page_no: int, page: Page) -> None:
        with self._lock:
            pages = self._pages_holding(name, page_no)
            if page.page_size != self.page_size:
                raise StorageError(
                    f"page size mismatch: store {self.page_size}, "
                    f"page {page.page_size}"
                )
            image = page.image()
            pages[page_no] = image
            self._checksums[name][page_no] = zlib.crc32(image)
            self.bump_version(name)
            self._metric_writes.inc()

    def total_pages(self) -> int:
        """Pages across all files — the simulated database footprint."""
        with self._lock:
            return sum(len(pages) for pages in self._files.values())

    # ------------------------------------------------------------------
    # Checksum facilities (fsck / snapshot / fault injection)
    # ------------------------------------------------------------------
    def page_checksums(self, name: str) -> List[int]:
        """Copy of the recorded CRC32 sidecar for one file."""
        with self._lock:
            self._pages(name)  # canonical no-such-file error
            return list(self._checksums[name])

    def page_image(self, name: str, page_no: int) -> bytes:
        """Raw stored bytes of one page — no verification, no accounting.

        Offline access for fsck and fault injection; regular readers go
        through :meth:`read_page`.
        """
        with self._lock:
            return self._pages_holding(name, page_no)[page_no]

    def verify_page(self, name: str, page_no: int) -> bool:
        """``True`` iff the stored image matches its recorded checksum.

        Offline verification: touches no I/O counter and no pool state.
        """
        with self._lock:
            image = self._pages_holding(name, page_no)[page_no]
            return zlib.crc32(image) == self._checksums[name][page_no]

    def corrupt_pages(self, name: str) -> List[int]:
        """Page numbers of ``name`` whose image fails its checksum."""
        with self._lock:
            pages = self._pages(name)
            sums = self._checksums[name]
            return [
                page_no
                for page_no, image in enumerate(pages)
                if zlib.crc32(image) != sums[page_no]
            ]

    def checksum_report(self) -> Dict[str, List[int]]:
        """``{file: [corrupt page numbers]}`` over every file (fsck sweep)."""
        with self._lock:
            return {
                name: self.corrupt_pages(name) for name in sorted(self._files)
            }

    def adopt_pages(
        self,
        name: str,
        images: List[bytes],
        checksums: Optional[List[int]] = None,
    ) -> None:
        """Append page images wholesale (snapshot load path).

        ``checksums`` installs recorded CRCs from an external source (the
        snapshot catalog) instead of recomputing them — a loaded image that
        does not match its catalog checksum is then detectable by the
        normal read-path verification and by :meth:`corrupt_pages`.
        """
        with self._lock:
            pages = self._pages(name)
            for image in images:
                if len(image) != self.page_size:
                    raise StorageError(
                        f"adopted page for {name!r} is {len(image)} bytes, "
                        f"expected {self.page_size}"
                    )
            if checksums is not None and len(checksums) != len(images):
                raise StorageError(
                    f"{name!r}: {len(checksums)} checksums for {len(images)} pages"
                )
            pages.extend(bytes(image) for image in images)
            if checksums is not None:
                self._checksums[name].extend(int(c) for c in checksums)
            else:
                self._checksums[name].extend(
                    zlib.crc32(image) for image in images
                )
            self.bump_version(name)

    def _apply_corruption(
        self,
        name: str,
        page_no: int,
        image: bytes,
        checksum: Optional[int] = None,
    ) -> None:
        """Fault-injection hook: store ``image`` as-is, bypassing checksum
        maintenance (unless ``checksum`` explicitly sets the sidecar entry).

        Bumps the file version — the device content *did* change, so any
        decode cache keyed on the old version must re-read (and thereby
        detect the corruption). I/O metrics are untouched: corruption is
        not an operation the workload performed.
        """
        with self._lock:
            pages = self._pages_holding(name, page_no)
            if len(image) != self.page_size:
                raise StorageError(
                    f"corrupted image is {len(image)} bytes, "
                    f"expected {self.page_size}"
                )
            pages[page_no] = bytes(image)
            if checksum is not None:
                self._checksums[name][page_no] = checksum
            self.bump_version(name)
