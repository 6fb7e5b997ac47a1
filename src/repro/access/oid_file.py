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

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core import kernels
from repro.errors import AccessFacilityError
from repro.objects.oid import OID, OID_BYTES
from repro.storage.decode_cache import DecodeSlot
from repro.storage.page import Page
from repro.storage.paged_file import PagedFile

# All-ones is the tombstone pattern. It is also what ``OID(0xFFFF,
# 0xFFFFFFFFFFFF)`` packs to, so that one OID cannot be stored: it would
# read back as deleted (see :func:`_entry_word`).
_TOMBSTONE = b"\xff" * OID_BYTES
_TOMBSTONE_WORD = int.from_bytes(_TOMBSTONE, "little")
_WORD = "<u8"  # one entry: OID.to_bytes() read as a little-endian uint64


def _entry_word(oid: OID) -> int:
    """``oid`` as the 64-bit word an entry holds; refuses the tombstone."""
    word = oid.to_int()
    if word == _TOMBSTONE_WORD:
        raise AccessFacilityError(
            f"{oid!r} packs to the OID file's tombstone pattern and "
            "cannot be an entry"
        )
    return word


class OIDFile:
    """Sequential OID file with delete flags.

    The decoded entry table — one packed ``uint64`` word per entry — is
    memoized against the underlying file's version and follows
    :meth:`apply` (so :meth:`append` and :meth:`delete`) in place, so
    neither a lookup nor the read after a write decodes the file again;
    the pages an operation logically touches are charged all the same
    (see :meth:`get_many`).
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
        self._decode = DecodeSlot(lambda: paged_file.version)

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
        words = np.array([_entry_word(oid) for oid in oids], dtype=_WORD)
        first_index = self._count
        position = 0
        while position < len(words):
            index = self._count
            page_no, offset = self._locate(index)
            if page_no >= self.file.num_pages:
                page_no_new, page = self.file.append_page()
                assert page_no_new == page_no
            else:
                page = self.file.read_page(page_no)
            room = self.entries_per_page - (index % self.entries_per_page)
            batch = words[position : position + room]
            page.write_bytes(offset, batch.tobytes())
            self.file.write_page(page_no, page)
            self._count += len(batch)
            position += len(batch)
        return first_index

    def append(self, oid: OID) -> int:
        """Append an entry; returns its index. One page touched.

        A page that already holds entries is imaged from the decoded entry
        table and its read charged as the fetch it stands for.
        """
        return self.apply([("insert", oid)])[0]

    def apply(self, ops: Sequence[Tuple[str, OID]]) -> List[int]:
        """Append (``"insert"``) and tombstone (``"delete"``) entries in
        order; returns the index each op wrote.

        The ops are played against the decoded entry table first; a delete
        tombstones the first live entry holding its OID, where a scan from
        page 0 would find it. A delete of an OID that is not there charges
        that scan over the whole file and raises before any page is
        written. Otherwise each page of the file the batch reads is charged
        once, in page order, as the fetch it stands for: every page the
        delete scan crosses up to its furthest tombstone, and the page the
        appends start on. Each page that changes is then imaged from
        the table and written once (a page the appends open is allocated
        first), and the table follows once every write has succeeded — so
        one op costs exactly what :meth:`append` or :meth:`delete` does.
        """
        buffer, rows = self._decoded()
        per_page = self.entries_per_page
        start = count = self._count
        changed: Dict[int, int] = {}  # entry index → the word the batch leaves
        scan_end = 0
        indices = []
        for op, oid in ops:
            word = _entry_word(oid)
            if op == "insert":
                index = count
                count += 1
            else:
                held = np.flatnonzero(buffer[:rows] == word).tolist()
                index = next((i for i in held if i not in changed), None)
                if index is None:  # an entry this batch appended
                    added = range(start, count)
                    index = next((i for i in added if changed[i] == word), None)
                if index is None:
                    for page_no in range(self.file.num_pages):
                        self.file.charge_fetch(page_no)
                    raise AccessFacilityError(f"OID {oid} not present in OID file")
                word = _TOMBSTONE_WORD
                scan_end = max(scan_end, index // per_page + 1)
            changed[index] = word
            indices.append(index)
        pages = sorted({index // per_page for index in changed})
        existing = self.file.num_pages
        version = self.file.version
        landed = [page_no for page_no in pages if scan_end <= page_no < existing]
        for page_no in [*range(min(scan_end, existing)), *landed]:
            self.file.charge_fetch(page_no)
        page_size = self.file.page_size
        for page_no in pages:
            first = page_no * per_page
            held = buffer[first : first + per_page].tobytes()
            page = Page(page_size, held.ljust(page_size, b"\0"))
            for index, word in changed.items():
                if first <= index < first + per_page:
                    entry = word.to_bytes(OID_BYTES, "little")
                    page.write_bytes((index - first) * OID_BYTES, entry)
            if page_no >= existing:  # opened in page order
                self.file.append_page()
            self.file.write_page(page_no, page)
            self._count = max(self._count, min(count, first + per_page))

        def follow(decoded: tuple) -> Optional[tuple]:
            grown = kernels.append_rows(
                decoded, start, [changed[index] for index in range(start, count)]
            )
            if grown is None:
                return None
            table, entries = grown
            short = self.file.num_pages * per_page - len(table)
            if short > 0:  # a page the appends opened: mirror all of it
                table = np.concatenate([table, np.zeros(short, _WORD)])
            for index, word in changed.items():
                if index < start:
                    table[index] = word
            return table, entries

        self._decode.follow(version, follow)
        return indices

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
        decoded entry table, an :class:`OID` built only for each index
        asked for; the distinct pages are charged in ascending order,
        exactly as reading each of them once would, and an out-of-range
        index raises before any page is charged.
        """
        return [
            None if word == _TOMBSTONE_WORD else OID.from_int(word)
            for word in self._charged_words(indices).tolist()
        ]

    def live_words(self, indices: Sequence[int]) -> np.ndarray:
        """:meth:`get_many` as packed ``uint64`` OID words, tombstones
        dropped: a signature file's candidates, in entry order, with no
        :class:`OID` built. Charged exactly as :meth:`get_many`."""
        words = self._charged_words(indices)
        return words[words != _TOMBSTONE_WORD]

    def _charged_words(self, indices: Sequence[int]) -> np.ndarray:
        """The entry words at ``indices``, their distinct pages charged."""
        if not len(indices):
            return np.empty(0, dtype=_WORD)
        wanted = np.asarray(indices, dtype=np.int64)
        unique = np.unique(wanted)
        if unique[0] < 0:
            self._check_index(int(unique[0]))
        elif unique[-1] >= self._count:
            self._check_index(int(unique[unique >= self._count][0]))
        words = self._entry_words()[wanted]
        for page_no in np.unique(unique // self.entries_per_page):
            self.file.charge_read(int(page_no))
        return words

    def delete(self, oid: OID) -> int:
        """Tombstone the entry holding ``oid``; returns its index.

        Sequentially scans pages until the OID is found — expected cost
        ``SC_OID / 2`` page reads plus one write, the paper's ``UC_D``. The
        entry is found with one compare over the decoded entry table; the
        scan over pages ``0..page`` is charged, page by page, as the
        fetches it stands for (the whole file when the OID is absent), and
        the page is imaged from the table (see :meth:`apply`).
        """
        return self.apply([("delete", oid)])[0]

    def is_live(self, index: int) -> bool:
        return self.get(index) is not None

    def scan_live(self) -> Iterable[tuple]:
        """(index, OID) for every live entry, page-sequentially."""
        for page_no in range(self.file.num_pages):
            words = self._page_words(self.file.read_page(page_no), page_no)
            live = np.flatnonzero(words != _TOMBSTONE_WORD)
            first = page_no * self.entries_per_page
            for slot, word in zip(live.tolist(), words[live].tolist()):
                yield first + slot, OID.from_int(word)

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _page_words(self, page: Page, page_no: int) -> np.ndarray:
        """The entries of one page as words — a view of the page image."""
        return np.frombuffer(page.data, _WORD, self._entries_on_page(page_no))

    def _decoded(self) -> tuple:
        """Every page's words, memoized on the file version.

        Decoding goes through :meth:`PagedFile.peek_page`, which performs
        no accounting; callers charge the pages their lookup logically
        touches themselves. The decode is held as ``(word buffer, entries
        decoded)`` — the shape :func:`kernels.append_rows` grows. The buffer
        holds what the pages hold, word for word (past its end a page is
        still zeroed); :meth:`apply` images its pages from it and writes
        behind and into it once its page writes have succeeded.
        """
        return self._decode.get(lambda: (self._decode_pages(), self._count))

    def _decode_pages(self) -> np.ndarray:
        """Every page's words, read with :meth:`PagedFile.peek_page`."""
        buffer = np.zeros(self.file.num_pages * self.entries_per_page, _WORD)
        for page_no in range(self.file.num_pages):
            first = page_no * self.entries_per_page
            buffer[first : first + self.entries_per_page] = np.frombuffer(
                self.file.peek_page(page_no).data, _WORD, self.entries_per_page
            )
        return buffer

    def _entry_words(self) -> np.ndarray:
        """Every entry as one ``uint64`` array: the decoded table's rows."""
        buffer, rows = self._decoded()
        return buffer[:rows]

    def verify_decodes(self) -> None:
        """Check the entry table held at the file's version against the pages.

        Pages are read with :meth:`PagedFile.peek_page`, so nothing is
        charged. If the table's entry count or any page's words differ,
        the table is dropped, so the next reader decodes afresh, and
        :class:`IndexCorruptionError` names the file and page.
        """
        self._decode.verify(self._diff)

    def _diff(self, decoded: Tuple[np.ndarray, int]) -> Optional[str]:
        buffer, rows = decoded
        if rows != self._count:
            bad = min(rows, self._count)
        else:
            fresh = self._decode_pages()
            held = np.zeros(len(fresh), _WORD)
            held[: len(buffer)] = buffer[: len(fresh)]
            differs = np.flatnonzero(held != fresh)
            if not len(differs):
                return None
            bad = int(differs[0])
        return (
            f"OID file {self.file.name!r}: the entry table cached for page "
            f"{bad // self.entries_per_page} differs from the page"
        )

    def _locate(self, index: int) -> tuple:
        return index // self.entries_per_page, (index % self.entries_per_page) * OID_BYTES

    def _check_index(self, index: int) -> None:
        if not 0 <= index < self._count:
            raise AccessFacilityError(
                f"OID-file index {index} out of range [0, {self._count})"
            )

    def _entries_on_page(self, page_no: int) -> int:
        start = page_no * self.entries_per_page
        return max(0, min(self.entries_per_page, self._count - start))
