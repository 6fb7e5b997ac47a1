"""Sequential Signature File (SSF) — paper §4.1 and Fig. 3 (left).

The simplest signature organization: set signatures are stored sequentially
(bit-packed, ``floor(P·b/F)`` per page) in one signature file; entry ``k``'s
OID lives at index ``k`` of the companion OID file. Every search is a full
scan of the signature file, which is why SSF retrieval cost tracks its
storage cost — the dilemma §5.1.1 discusses.

Updates follow the paper: insertion appends to both files (``UC_I = 2``
page accesses in the model); deletion tombstones the OID file only
(``UC_D = SC_OID / 2``), leaving a stale signature that later searches
filter out via the tombstone.

Like BSSF, a search decodes the whole signature file into one packed
``(N, F/64)`` uint64 matrix — memoized in a version-keyed
:class:`~repro.storage.decode_cache.DecodeSlot` with read-through
charging — and runs the drop tests as row-wise word kernels. A write
(:meth:`SequentialSignatureFile.apply`, one op or a batch) appends its
rows to the memoized matrix once its page writes have succeeded, so the
search after a write decodes nothing. The
page-at-a-time scan this replaces is the oracle in ``tests/reference/``,
which pins results and page accounting.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.access.base import (
    FacilityOp,
    SearchResult,
    SetAccessFacility,
    SetValue,
    query_words,
)
from repro.access.oid_file import OIDFile
from repro.access.sigpack import signatures_per_page, write_signature_in_page
from repro.core import kernels
from repro.core.signature import SignatureScheme
from repro.errors import AccessFacilityError
from repro.obs.tracer import traced_search
from repro.objects.oid import OID
from repro.storage.decode_cache import DecodeSlot
from repro.storage.paged_file import PagedFile, StorageManager


class SequentialSignatureFile(SetAccessFacility):
    """SSF over the paged storage substrate."""

    name = "ssf"

    def __init__(
        self,
        storage: StorageManager,
        scheme: SignatureScheme,
        file_prefix: str = "ssf",
    ):
        self._bind(storage, scheme, file_prefix, storage.create_file, 0)

    @classmethod
    def attach(
        cls,
        storage: StorageManager,
        scheme: SignatureScheme,
        file_prefix: str,
        entry_count: int,
    ) -> "SequentialSignatureFile":
        """Bind to an existing SSF's files (snapshot rehydration)."""
        facility = cls.__new__(cls)
        facility._bind(storage, scheme, file_prefix, storage.open_file, entry_count)
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
        self.sigs_per_page = signatures_per_page(
            storage.page_size, self.signature_bits
        )
        self.signature_file = open_file(f"{file_prefix}:signatures")
        self.oid_file = OIDFile(
            open_file(f"{file_prefix}:oids"), entry_count=entry_count
        )
        self._decode = self._slot()

    def _slot(self) -> DecodeSlot:
        signatures = self.signature_file
        return DecodeSlot(lambda: signatures.version, traced=True)

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    @property
    def entry_count(self) -> int:
        return self.oid_file.entry_count

    def bulk_load(self, pairs) -> int:
        """Build the SSF from scratch: hash ``pairs`` (an iterable of
        ``(set value, OID)``) in one batch, then :meth:`bulk_load_words`."""
        pairs = list(pairs)
        return self.bulk_load_words(
            self.scheme.set_signature_words_many(
                [elements for elements, _ in pairs]
            ),
            [oid for _, oid in pairs],
        )

    def bulk_load_words(self, word_rows: np.ndarray, oids: List[OID]) -> int:
        """Build the SSF from packed signature rows, page-at-a-time.

        ``word_rows`` is the ``(n, W)`` uint64 signature of ``oids[i]`` in
        row ``i``. Each signature page and each OID page is written once,
        instead of once per entry: every page image comes out of one
        batched ``unpackbits``/``packbits`` pass over the rows. Only valid
        on an empty facility; returns the entry count.
        """
        if self.entry_count:
            raise AccessFacilityError("bulk_load requires an empty SSF")
        if not oids:
            return 0
        entries = len(oids)
        bit_rows = kernels.unpack_rows(word_rows, self.signature_bits)
        pages_needed = -(-entries // self.sigs_per_page)
        page_bit_count = self.signature_file.page_size * 8
        slot_bits = self.sigs_per_page * self.signature_bits
        slots = np.zeros(
            (pages_needed * self.sigs_per_page, self.signature_bits),
            dtype=np.uint8,
        )
        slots[:entries] = bit_rows
        page_images = np.zeros((pages_needed, page_bit_count), dtype=np.uint8)
        page_images[:, :slot_bits] = slots.reshape(pages_needed, slot_bits)
        packed = np.packbits(page_images, axis=1, bitorder="little")
        for page_no in range(pages_needed):
            new_page_no, page = self.signature_file.append_page()
            assert new_page_no == page_no
            page.write_bytes(0, packed[page_no].tobytes())
            self.signature_file.write_page(page_no, page)
        self.oid_file.bulk_append(oids)
        self.verify()
        return entries

    def insert(self, elements: SetValue, oid: OID) -> None:
        """Append signature + OID entry (the model's 2 page accesses)."""
        self.apply([("insert", elements, oid)])

    def delete(self, elements: SetValue, oid: OID) -> None:
        """Tombstone the OID entry; the signature stays (paper's model)."""
        self.apply([("delete", elements, oid)])

    def apply(self, ops: Sequence[FacilityOp]) -> None:
        """Apply inserts and deletes in order, each page they touch written once.

        Every op goes to the OID file (:meth:`OIDFile.apply`: appends and
        tombstones). Each signature page the inserts land on is then
        fetched (or appended), takes their signatures in its slots and is
        written once; the memoized matrix grows by their rows once those
        writes have succeeded.
        """
        signatures = [
            self.scheme.set_signature(elements)
            for op, elements, _ in ops
            if op == "insert"
        ]
        first = self.entry_count
        self.oid_file.apply([(op, oid) for op, _, oid in ops])
        if not signatures:
            return
        end = first + len(signatures)
        per_page = self.sigs_per_page
        version = self.signature_file.version
        for page_no in range(first // per_page, -(-end // per_page)):
            if page_no >= self.signature_file.num_pages:
                page = self.signature_file.append_page()[1]
            else:
                page = self.signature_file.read_page(page_no)
            lo = page_no * per_page
            for index in range(max(first, lo), min(end, lo + per_page)):
                write_signature_in_page(page, index - lo, signatures[index - first])
            self.signature_file.write_page(page_no, page)
        self._decode.follow(
            version,
            lambda decoded: kernels.append_rows(
                decoded, first, [signature.words for signature in signatures]
            ),
        )

    # ------------------------------------------------------------------
    # Packed scan substrate
    # ------------------------------------------------------------------
    def _signature_matrix(self) -> np.ndarray:
        """All stored signatures as an ``(entry_count, F/64)`` uint64 matrix.

        Decode-cache backed: page images are read through the
        accounting-free :meth:`PagedFile.peek_page`, and the full scan the
        paper bills every SSF search for is charged uniformly — hit or
        miss — through :meth:`PagedFile.charge_reads`, which replays per
        page exactly the counters and pool state a real fetch sequence
        would produce. The decode is memoized keyed on the file version as
        ``(row buffer, rows decoded)`` — the shape the OID file's table
        shares and :func:`kernels.append_rows` grows: the matrix is the
        ``[:rows]`` view, and :meth:`apply` appends behind it.
        """
        buffer, rows = self._decode.get(self._decoded_rows)
        self.signature_file.charge_reads(self.signature_file.num_pages)
        return buffer[:rows]

    def _decoded_rows(self) -> Tuple[np.ndarray, int]:
        matrix = self.decode_signatures()
        return matrix, len(matrix)

    def decode_signatures(self) -> np.ndarray:
        """Every stored signature, read with :meth:`PagedFile.peek_page`,
        as the packed matrix (nothing charged, nothing cached)."""
        if self.entry_count == 0:
            nwords = kernels.words_for_bits(self.signature_bits)
            return np.zeros((0, nwords), dtype=np.uint64)
        row_chunks: List[np.ndarray] = []
        for page_no in range(self.signature_file.num_pages):
            page = self.signature_file.peek_page(page_no)
            count = self._entries_on_page(page_no)
            raw = np.frombuffer(bytes(page.data), dtype=np.uint8)
            bits = np.unpackbits(
                raw, bitorder="little", count=count * self.signature_bits
            )
            row_chunks.append(bits.reshape(count, self.signature_bits))
        return kernels.pack_rows(np.vstack(row_chunks))

    def verify_decodes(self) -> None:
        """Check the signature matrix held at the file's version against
        its pages, then the OID file's entry table.

        On a mismatch the matrix is dropped, so the next search decodes
        afresh, and :class:`IndexCorruptionError` names the file and page.
        """
        self._decode.verify(self._diff)
        self.oid_file.verify_decodes()

    def _diff(self, decoded: Tuple[np.ndarray, int]) -> Optional[str]:
        buffer, rows = decoded
        fresh = self.decode_signatures()
        if rows != len(fresh):
            bad = min(rows, len(fresh))
        else:
            differs = np.flatnonzero((buffer[:rows] != fresh).any(axis=1))
            if not len(differs):
                return None
            bad = int(differs[0])
        return (
            f"SSF file {self.signature_file.name!r}: the signature matrix "
            f"cached for page {bad // self.sigs_per_page} differs from the page"
        )

    # ------------------------------------------------------------------
    # Search
    # ------------------------------------------------------------------
    @traced_search("ssf.search.superset")
    def search_superset(
        self, query: SetValue, use_elements: Optional[int] = None
    ) -> SearchResult:
        """Full-scan drop test for ``T ⊇ Q``.

        ``use_elements`` activates the §5.1.3 smart trick (query signature
        from only that many elements); for SSF it does not save signature
        pages (the scan is full either way) but is supported for symmetry
        and for the ablation bench.
        """
        if not query:
            # Every target contains the empty set.
            return self._all_live("superset", drops=self.entry_count)
        return self.search_words(
            "superset",
            query_words(self.scheme, "superset", query, use_elements=use_elements),
        )

    @traced_search("ssf.search.subset")
    def search_subset(
        self, query: SetValue, slices_to_examine: Optional[int] = None
    ) -> SearchResult:
        """Full-scan drop test for ``T ⊆ Q``.

        ``slices_to_examine`` restricts the check to that many of the query
        signature's zero positions (Appendix A form) — again only meaningful
        for cost in BSSF, supported here for strategy-parity experiments.

        An empty query short-circuits without scanning the signature file
        (parity with BSSF's fast path): only empty targets satisfy
        ``T ⊆ ∅``, so every live entry is returned as a candidate
        (``exact=False``) for drop resolution to settle.
        """
        if slices_to_examine is not None and slices_to_examine < 0:
            raise AccessFacilityError("slices_to_examine must be >= 0")
        if not query:
            return self._all_live(
                "subset", drops=self.entry_count, exact=False
            )
        return self.search_words(
            "subset",
            query_words(
                self.scheme, "subset", query, slices_to_examine=slices_to_examine
            ),
        )

    @traced_search("ssf.search.overlap")
    def search_overlap(self, query: SetValue) -> SearchResult:
        """Full-scan drop test for ``T ∩ Q ≠ ∅`` (§6 extension).

        Two sets sharing an element share at least one signature bit, so
        any target signature intersecting the query signature is a
        candidate; empty-signature targets (empty sets) never overlap.
        """
        if not query:
            return SearchResult([], exact=True, facility=self.name,
                                detail={"mode": "overlap", "drops": 0,
                                        "live_drops": 0})
        return self.search_words(
            "overlap", query_words(self.scheme, "overlap", query)
        )

    def search_words(self, mode: str, words: np.ndarray) -> SearchResult:
        """Scan the signature file with ``mode``'s row test against ``words``.

        ``words`` are what :func:`~repro.access.base.query_words` derives
        for ``mode``: the query signature, or for ``subset`` the mask of
        its examined zero positions (a target is covered by the query iff
        it has no 1 inside the mask).
        """
        hits = kernels.ROW_TESTS[mode](self._signature_matrix(), words)
        return self._resolve(np.nonzero(hits)[0].tolist(), mode=mode)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _entries_on_page(self, page_no: int) -> int:
        start = page_no * self.sigs_per_page
        return min(self.sigs_per_page, self.entry_count - start)

    def _resolve(self, drop_indices: List[int], mode: str) -> SearchResult:
        live = self.oid_file.live_words(drop_indices)
        return SearchResult(
            None,
            words=live,
            exact=False,
            facility=self.name,
            detail={"mode": mode, "drops": len(drop_indices), "live_drops": len(live)},
        )

    def _all_live(self, mode: str, drops: int, exact: bool = True) -> SearchResult:
        live = [oid for _, oid in self.oid_file.scan_live()]
        return SearchResult(
            candidates=live,
            exact=exact,
            facility=self.name,
            detail={"mode": mode, "drops": drops, "live_drops": len(live)},
        )

    def storage_pages(self) -> dict:
        return {
            "signature": self.signature_file.num_pages,
            "oid": self.oid_file.num_pages,
        }

    def decode_cache_stats(self) -> dict:
        """Hit/miss counters of the signature-matrix decode cache."""
        return self._decode.stats()

    def verify(self) -> None:
        """Structural check: signature file sized for the OID entry count."""
        expected = -(-self.entry_count // self.sigs_per_page) if self.entry_count else 0
        if self.signature_file.num_pages != expected:
            raise AccessFacilityError(
                f"SSF size mismatch: {self.signature_file.num_pages} signature "
                f"pages for {self.entry_count} entries (expected {expected})"
            )
