"""Bit-Sliced Signature File (BSSF) — paper §4.2 and Fig. 3 (right).

Signatures are stored column-wise: slice file ``i`` holds bit ``i`` of every
entry's signature, ``P·b = 32,768`` entries per slice page. Searching reads
only the slices the query needs — ``m_q`` slices (query-signature 1s) for
``T ⊇ Q``, ``F − m_q`` slices (query-signature 0s) for ``T ⊆ Q`` — which is
why BSSF beats SSF on retrieval and why its ``T ⊇ Q`` cost grows with the
query weight (the motivation for small ``m``, §5.1.2).

Smart strategies (§5.1.3, §5.2.2) are first-class:

* ``search_superset(query, use_elements=k)`` forms the query signature from
  only ``k`` elements, capping the slices read;
* ``search_subset(query, slices_to_examine=k)`` examines only ``k`` of the
  query's zero slices.

Insertion honestly touches one page in each slice whose bit is 1 (about
``m`` pages) plus the OID file; the paper's ``UC_I = F + 1`` is its declared
worst case — ``worst_case_insert=True`` reproduces it by touching every
slice. Slice files are fully materialized (``ceil(N / P·b)`` pages each) as
entries grow; that extension is bulk file formatting, charged to storage
(the model's SC) rather than to any single operation's I/O.

Slice columns stay packed in uint64 words end-to-end
(:mod:`repro.core.kernels`). All ``F`` slices are decoded once into a
stacked ``(F, W)`` word matrix memoized in a version-keyed
:class:`~repro.storage.decode_cache.DecodeSlot` (validated in O(1)
through a :meth:`DiskStore.register_version_group` counter spanning every
slice file). Decoding reads page images through the accounting-free
:meth:`PagedFile.peek_page`; each search then charges exactly the slices
it examines through the pool's read-through ``touch`` machinery, so every
logical/physical counter and the buffer pool's LRU state match per-slice
page reads bit for bit. The per-slice AND/OR loops collapse into chunked
``np.bitwise_*.reduce`` sweeps; survivor extinction and coverage are
monotone along the scan, so a binary search inside the stopping chunk
replays a slice-at-a-time loop's early exit at exactly the same slice.
That slice-at-a-time loop is the oracle in ``tests/reference/``: it reads
the same page files with real per-page fetches, and the parity and golden
suites demand identical results, ``slices_read`` and page counters.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.access.base import (
    FacilityOp,
    SearchResult,
    SetAccessFacility,
    SetValue,
    query_words,
)
from repro.access.oid_file import OIDFile
from repro.core import kernels
from repro.core.signature import SignatureScheme
from repro.errors import AccessFacilityError
from repro.objects.oid import OID
from repro.obs.tracer import traced_search
from repro.storage.decode_cache import DecodeSlot
from repro.storage.page import Page
from repro.storage.paged_file import PagedFile, StorageManager


class BitSlicedSignatureFile(SetAccessFacility):
    """BSSF over the paged storage substrate."""

    name = "bssf"

    def __init__(
        self,
        storage: StorageManager,
        scheme: SignatureScheme,
        file_prefix: str = "bssf",
        worst_case_insert: bool = False,
    ):
        self._bind(storage, scheme, file_prefix, storage.create_file, 0)
        self.worst_case_insert = worst_case_insert
        self._formatted_pages = 0

    @classmethod
    def attach(
        cls,
        storage: StorageManager,
        scheme: SignatureScheme,
        file_prefix: str,
        entry_count: int,
        worst_case_insert: bool = False,
    ) -> "BitSlicedSignatureFile":
        """Bind to an existing BSSF's files (snapshot rehydration)."""
        facility = cls.__new__(cls)
        facility._bind(storage, scheme, file_prefix, storage.open_file, entry_count)
        facility.worst_case_insert = worst_case_insert
        facility._formatted_pages = facility.slice_pages
        facility.verify()
        return facility

    def _bind(
        self,
        storage: StorageManager,
        scheme: SignatureScheme,
        file_prefix: str,
        open_file: Callable[[str], PagedFile],
        entry_count: int,
    ) -> None:
        """Set up over the files ``open_file`` creates or opens."""
        self.scheme = scheme
        self.signature_bits = scheme.signature_bits
        self.file_prefix = file_prefix
        self.entries_per_slice_page = storage.page_size * 8
        self._storage = storage
        self._slice_files: List[PagedFile] = [
            open_file(f"{file_prefix}:slice:{i:04d}")
            for i in range(self.signature_bits)
        ]
        self.oid_file = OIDFile(
            open_file(f"{file_prefix}:oids"), entry_count=entry_count
        )
        self._group_name = f"{file_prefix}:slices"
        storage.store.register_version_group(
            self._group_name, [f.name for f in self._slice_files]
        )
        self._decode = self._slot()

    def _slot(self) -> DecodeSlot:
        store, group = self._storage.store, self._group_name
        return DecodeSlot(lambda: store.group_version(group), traced=True)

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    @property
    def entry_count(self) -> int:
        return self.oid_file.entry_count

    @property
    def slice_pages(self) -> int:
        """Pages per slice file — the model's ``ceil(N / P·b)`` term."""
        if self.entry_count == 0:
            return 0
        return -(-self.entry_count // self.entries_per_slice_page)

    def _format_slices_to(self, pages_needed: int) -> None:
        """Extend every slice file to ``pages_needed`` pages.

        Uses raw store allocation (pages are born zeroed) so that bulk file
        formatting does not pollute per-operation logical I/O counts.
        """
        if pages_needed <= self._formatted_pages:
            return
        store = self._storage.store
        for slice_file in self._slice_files:
            while store.num_pages(slice_file.name) < pages_needed:
                store.allocate_page(slice_file.name)
        self._formatted_pages = pages_needed

    def bulk_load(self, pairs) -> int:
        """Build the BSSF from scratch: hash ``pairs`` (an iterable of
        ``(set value, OID)``) in one batch, then :meth:`bulk_load_words`."""
        pairs = list(pairs)
        return self.bulk_load_words(
            self.scheme.set_signature_words_many(
                [elements for elements, _ in pairs]
            ),
            [oid for _, oid in pairs],
        )

    def bulk_load_words(self, word_rows: np.ndarray, oids: List[OID]) -> int:
        """Build the BSSF from packed signature rows, slice-column-at-a-time.

        ``word_rows`` is the ``(n, W)`` uint64 signature of ``oids[i]`` in
        row ``i``. The full bit matrix is produced by one ``unpackbits``
        over the rows and written out with a single transpose +
        ``packbits`` covering every slice, charging two logical writes
        (append + write-back) per slice page. Only valid on an empty
        facility; returns the entry count.
        """
        if self.entry_count:
            raise AccessFacilityError("bulk_load requires an empty BSSF")
        if not oids:
            return 0
        matrix = kernels.unpack_rows(word_rows, self.signature_bits)
        entries = len(oids)
        pages_needed = -(-entries // self.entries_per_slice_page)
        page_bytes = self._storage.page_size
        padded = np.zeros(
            (self.signature_bits, pages_needed * self.entries_per_slice_page),
            dtype=np.uint8,
        )
        padded[:, :entries] = matrix.T
        packed_slices = np.packbits(padded, axis=1, bitorder="little")
        for position in range(self.signature_bits):
            packed = packed_slices[position].tobytes()
            slice_file = self._slice_files[position]
            for page_no in range(pages_needed):
                new_page_no, page = slice_file.append_page()
                assert new_page_no == page_no
                page.write_bytes(
                    0, packed[page_no * page_bytes : (page_no + 1) * page_bytes]
                )
                slice_file.write_page(page_no, page)
        self._formatted_pages = pages_needed
        self.oid_file.bulk_append(oids)
        self.verify()
        return entries

    def insert(self, elements: SetValue, oid: OID) -> None:
        """Set the entry's bit in each slice its signature has a 1 in.

        Each slice page rewritten is imaged from the stacked slice matrix
        — decoded once if cold — and its read charged as the fetch it
        stands for (:meth:`PagedFile.charge_fetch`); the matrix then
        follows the write (see :meth:`apply`).
        """
        self.apply([("insert", elements, oid)])

    def delete(self, elements: SetValue, oid: OID) -> None:
        """Tombstone the OID entry only — slice bits stay (paper's model)."""
        self.apply([("delete", elements, oid)])

    def apply(self, ops: Sequence[FacilityOp]) -> None:
        """Apply inserts and deletes in order, each page they touch written once.

        Every op goes to the OID file (:meth:`OIDFile.apply`: appends and
        tombstones). The inserts' bits are gathered by slice page — each
        slice a signature has a 1 in, or every slice under
        ``worst_case_insert`` (the paper's ``UC_I = F + 1``) — and each
        such page is imaged from the stacked slice matrix (decoded once if
        cold), its read charged as the fetch it stands for, and written
        once, in page then slice order. The matrix takes the bits once
        every write has succeeded.
        """
        ones = [
            self.scheme.set_signature(elements).set_positions()  # ascending
            for op, elements, _ in ops
            if op == "insert"
        ]
        first = self.entry_count
        self.oid_file.apply([(op, oid) for op, _, oid in ops])
        if not ones:
            return
        per_page = self.entries_per_slice_page
        self._format_slices_to(-(-(first + len(ones)) // per_page))
        bits: Dict[int, Dict[int, List[int]]] = {}  # page → slice → bits set
        for index, positions in enumerate(ones, first):
            page_no, bit = divmod(index, per_page)
            on_page = bits.setdefault(page_no, {})
            if self.worst_case_insert:
                for position in range(self.signature_bits):
                    on_page.setdefault(position, [])
            for position in positions:  # every live insert runs this loop
                if position in on_page:
                    on_page[position].append(bit)
                else:
                    on_page[position] = [bit]
        slices = self._stacked_slices()
        version = self._storage.store.group_version(self._group_name)
        page_size = self._storage.page_size
        words_per_page = page_size // 8
        for page_no, on_page in sorted(bits.items()):
            first_word = page_no * words_per_page
            for position in sorted(on_page):
                slice_file = self._slice_files[position]
                slice_file.charge_fetch(page_no)
                words = slices[position, first_word : first_word + words_per_page]
                page = Page(page_size, words.tobytes())
                for bit in on_page[position]:
                    page.data[bit // 8] |= 1 << (bit % 8)
                slice_file.write_page(page_no, page)

        def set_bits(matrix: np.ndarray) -> np.ndarray:
            for index, positions in enumerate(ones, first):
                matrix[positions, index // kernels.WORD_BITS] |= np.uint64(
                    1 << (index % kernels.WORD_BITS)
                )
            return matrix

        self._decode.follow(version, set_bits)

    # ------------------------------------------------------------------
    # Slice access
    # ------------------------------------------------------------------
    def _stacked_slices(self) -> np.ndarray:
        """All ``F`` slices as one ``(F, W)`` uint64 matrix, cache backed.

        Decoding reads page images through :meth:`PagedFile.peek_page`,
        which performs *no* accounting: the matrix is a pure decode of
        store content, and what a search logically reads is charged
        separately (and exactly) by :meth:`_charge_slices`. The cache key
        is the slice files' shared version-group counter, so any slice
        write that :meth:`insert` does not carry the matrix across
        invalidates in O(1). Bits at index ``>= entry_count`` are
        always zero (pages are born zeroed and only live entries set bits).
        """
        return self._decode.get(self._decode_slices)

    def _decode_slices(self) -> np.ndarray:
        """Every slice page, read with :meth:`PagedFile.peek_page`, as the
        ``(F, W)`` word matrix (nothing charged, nothing cached)."""
        pages = self.slice_pages
        words_per_page = self._storage.page_size // 8
        matrix = np.zeros(
            (self.signature_bits, pages * words_per_page), dtype=np.uint64
        )
        for position, slice_file in enumerate(self._slice_files):
            row = matrix[position]
            for page_no in range(pages):
                row[page_no * words_per_page : (page_no + 1) * words_per_page] = (
                    np.frombuffer(slice_file.peek_page(page_no).data, dtype="<u8")
                )
        return matrix

    def decode_signatures(self) -> np.ndarray:
        """Every entry's signature as packed ``(entry_count, W)`` rows,
        transposed from a fresh decode of every slice page (nothing
        charged, nothing cached)."""
        bits = np.unpackbits(
            self._decode_slices().view(np.uint8),
            axis=1,
            bitorder="little",
            count=self.entry_count,
        )
        return kernels.pack_rows(bits.T)

    def verify_decodes(self) -> None:
        """Check the slice matrix held at the slices' group version against
        a fresh decode of every slice page, then the OID file's table.

        On a mismatch the matrix is dropped, so the next search decodes
        afresh, and :class:`IndexCorruptionError` names the slice file and
        page.
        """
        self._decode.verify(self._diff)
        self.oid_file.verify_decodes()

    def _diff(self, cached: np.ndarray) -> Optional[str]:
        fresh = self._decode_slices()
        same_shape = cached.shape == fresh.shape
        differs = np.argwhere(cached != fresh) if same_shape else [(0, 0)]
        if not len(differs):
            return None
        position, word = differs[0]
        return (
            f"BSSF slice file {self._slice_files[position].name!r}: the "
            f"slice matrix cached for page "
            f"{word // (self._storage.page_size // 8)} differs from the page"
        )

    def _charge_slices(self, positions) -> None:
        """Charge ``slice_pages`` logical reads against each listed slice.

        Bulk read-through accounting: per-file logical and physical
        counters, pool hit/miss counts, and (in cached-pool mode) LRU
        order and residency end up exactly as per-page fetches in the
        same order would leave them.
        """
        pages = self.slice_pages
        if pages == 0 or len(positions) == 0:
            return
        names = [self._slice_files[p].name for p in positions]
        self._storage.stats.record_logical_read_many(names, pages)
        self._storage.pool.touch_files(names, pages)

    _SCAN_CHUNK = 128

    def _or_scan(self, positions):
        """OR the listed slices in order; return ``(acc_words, slices_read)``.

        Chunked ``bitwise_or.reduce`` over rows gathered from the stacked
        matrix. Coverage is monotone under OR, so when a chunk's total
        first covers every live entry, a binary search over its prefixes
        finds the minimal covering prefix — exactly the slice where a
        slice-at-a-time loop (the ``tests/reference/`` oracle) stops because
        everything is eliminated — and only slices up to that point are
        counted and charged. Remaining slices cannot change the answer; a
        real system would stop here too.
        """
        acc = np.zeros(self._slice_word_count, dtype=np.uint64)
        if len(positions) == 0:
            return acc, 0
        full = kernels.ones_mask(self.entry_count, self._slice_word_count)
        matrix = self._stacked_slices()
        read = 0
        for start in range(0, len(positions), self._SCAN_CHUNK):
            chunk = positions[start : start + self._SCAN_CHUNK]
            rows = matrix[chunk]
            total = np.bitwise_or.reduce(rows, axis=0) | acc
            if not kernels.covers_all(total, full):
                self._charge_slices(chunk)
                acc = total
                read += len(chunk)
                continue
            lo, hi = 1, len(chunk)
            while lo < hi:
                mid = (lo + hi) // 2
                prefix = np.bitwise_or.reduce(rows[:mid], axis=0) | acc
                if kernels.covers_all(prefix, full):
                    hi = mid
                else:
                    lo = mid + 1
            acc = np.bitwise_or.reduce(rows[:lo], axis=0) | acc
            self._charge_slices(chunk[:lo])
            return acc, read + lo
        return acc, read

    def _and_scan(self, positions):
        """AND the listed slices in order; return ``(acc_words, slices_read)``.

        Mirror of :meth:`_or_scan` for the superset search: survivor
        extinction is monotone under AND, so the binary search finds the
        minimal prefix with no survivors — the slice-at-a-time loop's
        break point — and charging stops there.
        """
        acc = kernels.ones_mask(self.entry_count, self._slice_word_count)
        if len(positions) == 0:
            return acc, 0
        matrix = self._stacked_slices()
        read = 0
        for start in range(0, len(positions), self._SCAN_CHUNK):
            chunk = positions[start : start + self._SCAN_CHUNK]
            rows = matrix[chunk]
            total = np.bitwise_and.reduce(rows, axis=0) & acc
            if kernels.any_bit(total):
                self._charge_slices(chunk)
                acc = total
                read += len(chunk)
                continue
            lo, hi = 1, len(chunk)
            while lo < hi:
                mid = (lo + hi) // 2
                prefix = np.bitwise_and.reduce(rows[:mid], axis=0) & acc
                if kernels.any_bit(prefix):
                    lo = mid + 1
                else:
                    hi = mid
            acc = np.bitwise_and.reduce(rows[:lo], axis=0) & acc
            self._charge_slices(chunk[:lo])
            return acc, read + lo
        return acc, read

    def read_slice(self, position: int) -> np.ndarray:
        """Bit column ``position`` over all entries, as a bool array.

        Costs ``slice_pages`` logical reads — one per page of the slice.
        """
        if not 0 <= position < self.signature_bits:
            raise AccessFacilityError(
                f"slice {position} out of range [0, {self.signature_bits})"
            )
        words = self._stacked_slices()[position]
        self._slice_files[position].charge_reads(self.slice_pages)
        if words.size == 0:
            return np.zeros(0, dtype=bool)
        bits = np.unpackbits(
            np.ascontiguousarray(words).view(np.uint8),
            bitorder="little",
            count=self.entry_count,
        )
        return bits.astype(bool)

    @property
    def _slice_word_count(self) -> int:
        return self.slice_pages * self._storage.page_size // 8

    # ------------------------------------------------------------------
    # Search
    # ------------------------------------------------------------------
    @traced_search("bssf.search.superset")
    def search_superset(
        self, query: SetValue, use_elements: Optional[int] = None
    ) -> SearchResult:
        """``T ⊇ Q``: AND the slices of the query signature's 1 bits.

        With ``use_elements = k`` (smart §5.1.3), only the signature of ``k``
        arbitrary query elements is used, reading ~``k·m`` slices instead of
        ``m_q``; the weaker filter's extra drops are false drops by
        construction and die in drop resolution.
        """
        if not query:
            live = [oid for _, oid in self.oid_file.scan_live()]
            return SearchResult(live, exact=True, facility=self.name,
                                detail={"mode": "superset", "slices_read": 0,
                                        "drops": self.entry_count,
                                        "live_drops": len(live)})
        return self.search_words(
            "superset",
            query_words(self.scheme, "superset", query, use_elements=use_elements),
        )

    @traced_search("bssf.search.subset")
    def search_subset(
        self, query: SetValue, slices_to_examine: Optional[int] = None
    ) -> SearchResult:
        """``T ⊆ Q``: OR the slices of the query signature's 0 bits.

        Entries with a 1 in any examined zero slice contain an element
        outside the query set (modulo hashing) and are eliminated. With
        ``slices_to_examine = k`` (smart §5.2.2), only ``k`` arbitrary zero
        slices are read; Appendix A gives the resulting drop probability.

        An empty query short-circuits without touching a single slice:
        ``T ⊆ ∅`` is satisfiable only by empty targets, so instead of OR-ing
        all ``F`` zero slices just to isolate the all-zero signatures, every
        live entry is returned as a candidate (``exact=False``) and drop
        resolution finds the empty sets — mirroring ``search_superset``'s
        empty-query fast path.
        """
        if slices_to_examine is not None and slices_to_examine < 0:
            raise AccessFacilityError("slices_to_examine must be >= 0")
        if not query:
            live = [oid for _, oid in self.oid_file.scan_live()]
            return SearchResult(live, exact=False, facility=self.name,
                                detail={"mode": "subset", "slices_read": 0,
                                        "drops": self.entry_count,
                                        "live_drops": len(live)})
        return self.search_words(
            "subset",
            query_words(
                self.scheme, "subset", query, slices_to_examine=slices_to_examine
            ),
        )

    @traced_search("bssf.search.overlap")
    def search_overlap(self, query: SetValue) -> SearchResult:
        """``T ∩ Q ≠ ∅`` (§6 extension): OR the query signature's 1-slices.

        Any entry with a 1 in some query-signature position may share an
        element with the query; entries with none cannot.
        """
        if not query:
            return SearchResult([], exact=True, facility=self.name,
                                detail={"mode": "overlap", "slices_read": 0,
                                        "drops": 0, "live_drops": 0})
        return self.search_words(
            "overlap", query_words(self.scheme, "overlap", query)
        )

    def search_words(self, mode: str, words: np.ndarray) -> SearchResult:
        """Scan the slices at the set bits of ``words`` for ``mode``.

        ``words`` are what :func:`~repro.access.base.query_words` derives
        for ``mode``. Superset ANDs the slices of the query signature's 1s
        (the survivors are the drops); subset ORs the slices of the mask's
        examined zero positions and overlap those of the signature's 1s
        (subset drops are the entries left uncovered, overlap drops the
        covered ones). Slices are read in ascending position order.
        """
        positions = kernels.set_bit_indices(words, self.signature_bits)
        if mode == "superset":
            acc, slices_read = self._and_scan(positions)
        else:
            acc, slices_read = self._or_scan(positions)
        if mode == "subset":
            drops = kernels.cleared_bit_indices(acc, self.entry_count)
        else:
            drops = kernels.set_bit_indices(acc, self.entry_count)
        return self._resolve(drops.tolist(), mode, slices_read)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _resolve(
        self, drop_indices: List[int], mode: str, slices_read: int
    ) -> SearchResult:
        live = self.oid_file.live_words(drop_indices)
        return SearchResult(
            None,
            words=live,
            exact=False,
            facility=self.name,
            detail={
                "mode": mode,
                "slices_read": slices_read,
                "drops": len(drop_indices),
                "live_drops": len(live),
            },
        )

    def storage_pages(self) -> dict:
        return {
            "slices": sum(f.num_pages for f in self._slice_files),
            "oid": self.oid_file.num_pages,
        }

    def decode_cache_stats(self) -> dict:
        """Hit/miss counters of the slice decode cache (diagnostics)."""
        return self._decode.stats()

    def verify(self) -> None:
        """Every slice file must be exactly ``slice_pages`` long."""
        for i, slice_file in enumerate(self._slice_files):
            if slice_file.num_pages != self.slice_pages:
                raise AccessFacilityError(
                    f"slice {i} has {slice_file.num_pages} pages, "
                    f"expected {self.slice_pages}"
                )
