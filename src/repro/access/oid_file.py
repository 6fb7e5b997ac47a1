"""The OID file shared by both signature-file organizations (Fig. 3).

Entry ``k`` of the OID file holds the OID of the object whose set signature
is entry ``k`` of the signature file; ``O_p = P / oid = 512`` entries fit a
page (Table 2). Deletion follows the paper's model: the entry is flagged
(tombstoned) in the OID file only — the stale signature remains and any drop
on it is filtered out when the tombstone is seen. Locating the entry to flag
requires a sequential scan, hence the paper's expected deletion cost of
``SC_OID / 2`` pages.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

import numpy as np

from repro.errors import AccessFacilityError
from repro.objects.oid import OID, OID_BYTES
from repro.storage.decode_cache import DecodeCache
from repro.storage.paged_file import PagedFile

# All-ones is not a constructible OID in practice (class id 0xFFFF is
# reserved by convention), so it serves as the tombstone pattern.
_TOMBSTONE = b"\xff" * OID_BYTES


class OIDFile:
    """Sequential OID file with delete flags.

    The decoded entry table is memoized against the underlying file's
    version, so drop-index materialization skips per-entry byte decoding on
    repeat lookups; the pages a lookup logically touches are charged all
    the same (see :meth:`get_many`).
    """

    def __init__(self, paged_file: PagedFile, entry_count: int = 0):
        self.file = paged_file
        self.entries_per_page = self.file.page_size // OID_BYTES
        if entry_count < 0:
            raise AccessFacilityError(
                f"entry_count must be >= 0, got {entry_count}"
            )
        max_entries = self.file.num_pages * self.entries_per_page
        if entry_count > max_entries:
            raise AccessFacilityError(
                f"entry_count {entry_count} exceeds file capacity {max_entries}"
            )
        self._count = entry_count
        self._decode_cache = DecodeCache(max_entries=1)

    @property
    def entry_count(self) -> int:
        """Total entries ever appended, tombstones included."""
        return self._count

    @property
    def num_pages(self) -> int:
        return self.file.num_pages

    # ------------------------------------------------------------------
    # Entry operations
    # ------------------------------------------------------------------
    def bulk_append(self, oids: "Sequence[OID]") -> int:
        """Append many entries page-at-a-time (index bulk construction).

        Touches each OID page once instead of once per entry; returns the
        index of the first appended entry.
        """
        first_index = self._count
        position = 0
        while position < len(oids):
            index = self._count
            page_no, offset = self._locate(index)
            if page_no >= self.file.num_pages:
                page_no_new, page = self.file.append_page()
                assert page_no_new == page_no
            else:
                page = self.file.read_page(page_no)
            room = self.entries_per_page - (index % self.entries_per_page)
            batch = oids[position : position + room]
            payload = b"".join(oid.to_bytes() for oid in batch)
            page.write_bytes(offset, payload)
            self.file.write_page(page_no, page)
            self._count += len(batch)
            position += len(batch)
        return first_index

    def append(self, oid: OID) -> int:
        """Append an entry; returns its index. One page touched."""
        index = self._count
        page_no, offset = self._locate(index)
        if page_no >= self.file.num_pages:
            page_no_new, page = self.file.append_page()
            assert page_no_new == page_no
        else:
            page = self.file.read_page(page_no)
        page.write_bytes(offset, oid.to_bytes())
        self.file.write_page(page_no, page)
        self._count += 1
        return index

    def get(self, index: int) -> Optional[OID]:
        """Entry at ``index``; ``None`` if tombstoned. One page read."""
        self._check_index(index)
        page_no, offset = self._locate(index)
        raw = self.file.read_page(page_no).read_bytes(offset, OID_BYTES)
        if raw == _TOMBSTONE:
            return None
        return OID.from_bytes(raw)

    def get_many(self, indices: Sequence[int]) -> List[Optional[OID]]:
        """Fetch several entries, reading each touched page once.

        This is the executor's OID-list lookup step; its page cost is the
        number of *distinct* pages the indices fall on, matching the
        ``LC_OID`` term of the cost model. Entries are answered from the
        decoded entry table; the distinct pages are charged in ascending
        order, exactly as reading each of them once would, and an
        out-of-range index raises before any page is charged.
        """
        if not indices:
            return []
        unique = np.unique(np.asarray(indices, dtype=np.int64))
        if unique[0] < 0:
            self._check_index(int(unique[0]))
        elif unique[-1] >= self._count:
            self._check_index(int(unique[unique >= self._count][0]))
        entries = self._decoded_entries()
        for page_no in np.unique(unique // self.entries_per_page):
            self.file.charge_read(int(page_no))
        return [entries[index] for index in indices]

    def delete(self, oid: OID) -> int:
        """Tombstone the entry holding ``oid``; returns its index.

        Sequentially scans pages until the OID is found — expected cost
        ``SC_OID / 2`` page reads plus one write, the paper's ``UC_D``.
        """
        needle = oid.to_bytes()
        for page_no in range(self.file.num_pages):
            page = self.file.read_page(page_no)
            page_entries = self._entries_on_page(page_no)
            for slot in range(page_entries):
                offset = slot * OID_BYTES
                if page.read_bytes(offset, OID_BYTES) == needle:
                    page.write_bytes(offset, _TOMBSTONE)
                    self.file.write_page(page_no, page)
                    return page_no * self.entries_per_page + slot
        raise AccessFacilityError(f"OID {oid} not present in OID file")

    def is_live(self, index: int) -> bool:
        return self.get(index) is not None

    def scan_live(self) -> Iterable[tuple]:
        """(index, OID) for every live entry, page-sequentially."""
        for page_no in range(self.file.num_pages):
            page = self.file.read_page(page_no)
            for slot in range(self._entries_on_page(page_no)):
                raw = page.read_bytes(slot * OID_BYTES, OID_BYTES)
                if raw != _TOMBSTONE:
                    yield page_no * self.entries_per_page + slot, OID.from_bytes(raw)

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _decoded_entries(self) -> List[Optional[OID]]:
        """Every entry decoded once, memoized against the file version.

        Decoding goes through :meth:`PagedFile.peek_page`, which performs
        no accounting; callers charge the pages their lookup logically
        touches themselves.
        """
        name = self.file.name
        version = self.file.version
        cached = self._decode_cache.get(name, version)
        if cached is None:
            cached = []
            for page_no in range(self.file.num_pages):
                data = bytes(self.file.peek_page(page_no).data)
                for slot in range(self._entries_on_page(page_no)):
                    raw = data[slot * OID_BYTES : (slot + 1) * OID_BYTES]
                    cached.append(
                        None if raw == _TOMBSTONE else OID.from_bytes(raw)
                    )
            self._decode_cache.put(name, version, cached)
        return cached

    def _locate(self, index: int) -> tuple:
        return index // self.entries_per_page, (index % self.entries_per_page) * OID_BYTES

    def _check_index(self, index: int) -> None:
        if not 0 <= index < self._count:
            raise AccessFacilityError(
                f"OID-file index {index} out of range [0, {self._count})"
            )

    def _entries_on_page(self, page_no: int) -> int:
        start = page_no * self.entries_per_page
        return min(self.entries_per_page, self._count - start)
