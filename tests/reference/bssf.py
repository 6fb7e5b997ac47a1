"""BSSF as the paper's §4.2 describes it: read a slice, AND/OR it, repeat."""

from typing import List, Optional

import numpy as np

from repro.access.base import SearchResult, SetAccessFacility, SetValue
from repro.access.bssf import BitSlicedSignatureFile
from repro.errors import AccessFacilityError
from repro.objects.oid import OID
from repro.obs.tracer import traced_search
from tests.reference.oid_file import ReferenceOIDFile


class ReferenceBSSF(BitSlicedSignatureFile):
    """Per-entry ``unpackbits``-into-bools search over the slice page files."""

    def __init__(
        self, storage, scheme, file_prefix: str = "bssf",
        worst_case_insert: bool = False,
    ):
        super().__init__(
            storage, scheme, file_prefix=file_prefix,
            worst_case_insert=worst_case_insert,
        )
        self.oid_file = ReferenceOIDFile(self.oid_file.file)

    def bulk_load(self, pairs) -> int:
        """Per-entry row construction, per-slice packing.

        Two logical writes (append + write-back) per slice page.
        """
        if self.entry_count:
            raise AccessFacilityError("bulk_load requires an empty BSSF")
        oids: List[OID] = []
        rows: List[np.ndarray] = []
        for elements, oid in pairs:
            signature = self.scheme.set_signature(elements)
            row = np.zeros(self.signature_bits, dtype=np.uint8)
            row[signature.set_positions()] = 1
            rows.append(row)
            oids.append(oid)
        if not rows:
            return 0
        matrix = np.stack(rows)
        entries = len(oids)
        pages_needed = -(-entries // self.entries_per_slice_page)
        page_bytes = self._storage.page_size
        for position in range(self.signature_bits):
            column = np.zeros(
                pages_needed * self.entries_per_slice_page, dtype=np.uint8
            )
            column[:entries] = matrix[:, position]
            packed = np.packbits(column, bitorder="little").tobytes()
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

    apply = SetAccessFacility.apply  # one insert or delete per op

    def delete(self, elements: SetValue, oid: OID) -> None:
        self.oid_file.delete(oid)

    def insert(self, elements: SetValue, oid: OID) -> None:
        """Fetch, flip and write back one page per slice rewritten."""
        index = self.oid_file.append(oid)
        self._format_slices_to(-(-(index + 1) // self.entries_per_slice_page))
        page_no = index // self.entries_per_slice_page
        bit_in_page = index % self.entries_per_slice_page
        ones = set(self.scheme.set_signature(elements).set_positions())
        slices = range(self.signature_bits) if self.worst_case_insert else sorted(ones)
        for position in slices:
            slice_file = self._slice_files[position]
            page = slice_file.read_page(page_no)
            if position in ones:
                page.data[bit_in_page // 8] |= 1 << (bit_in_page % 8)
            slice_file.write_page(page_no, page)

    def read_slice(self, position: int) -> np.ndarray:
        """Bit column ``position`` as a bool array: one read per slice page."""
        if not 0 <= position < self.signature_bits:
            raise AccessFacilityError(
                f"slice {position} out of range [0, {self.signature_bits})"
            )
        chunks = []
        slice_file = self._slice_files[position]
        for page_no in range(self.slice_pages):
            page = slice_file.read_page(page_no)
            raw = np.frombuffer(bytes(page.data), dtype=np.uint8)
            chunks.append(np.unpackbits(raw, bitorder="little"))
        if not chunks:
            return np.zeros(0, dtype=bool)
        return np.concatenate(chunks)[: self.entry_count].astype(bool)

    @traced_search("bssf.search.superset")
    def search_superset(
        self, query: SetValue, use_elements: Optional[int] = None
    ) -> SearchResult:
        if not query:
            live = [oid for _, oid in self.oid_file.scan_live()]
            return SearchResult(live, exact=True, facility=self.name,
                                detail={"mode": "superset", "slices_read": 0,
                                        "drops": self.entry_count,
                                        "live_drops": len(live)})
        if use_elements is not None:
            if use_elements < 1:
                raise AccessFacilityError("use_elements must be >= 1")
            signature = self.scheme.partial_query_signature(
                sorted(query, key=repr), use_elements
            )
        else:
            signature = self.scheme.set_signature(query)
        surviving = np.ones(self.entry_count, dtype=bool)
        slices_read = 0
        for position in signature.set_positions():
            surviving &= self.read_slice(position)
            slices_read += 1
            if not surviving.any():
                # Remaining slices cannot resurrect entries; a real
                # system would stop here too. Counted slices stay honest.
                break
        drop_indices = np.nonzero(surviving)[0].tolist()
        return self._resolve(drop_indices, "superset", slices_read)

    @traced_search("bssf.search.subset")
    def search_subset(
        self, query: SetValue, slices_to_examine: Optional[int] = None
    ) -> SearchResult:
        if slices_to_examine is not None and slices_to_examine < 0:
            raise AccessFacilityError("slices_to_examine must be >= 0")
        if not query:
            live = [oid for _, oid in self.oid_file.scan_live()]
            return SearchResult(live, exact=False, facility=self.name,
                                detail={"mode": "subset", "slices_read": 0,
                                        "drops": self.entry_count,
                                        "live_drops": len(live)})
        signature = self.scheme.set_signature(query)
        one_positions = set(signature.set_positions())
        zero_positions = [
            i for i in range(self.signature_bits) if i not in one_positions
        ]
        if slices_to_examine is not None:
            zero_positions = zero_positions[:slices_to_examine]
        eliminated = np.zeros(self.entry_count, dtype=bool)
        slices_read = 0
        for position in zero_positions:
            eliminated |= self.read_slice(position)
            slices_read += 1
            if eliminated.all():
                break
        drop_indices = np.nonzero(~eliminated)[0].tolist()
        return self._resolve(drop_indices, "subset", slices_read)

    @traced_search("bssf.search.overlap")
    def search_overlap(self, query: SetValue) -> SearchResult:
        if not query:
            return SearchResult([], exact=True, facility=self.name,
                                detail={"mode": "overlap", "slices_read": 0,
                                        "drops": 0, "live_drops": 0})
        signature = self.scheme.set_signature(query)
        overlapping = np.zeros(self.entry_count, dtype=bool)
        slices_read = 0
        for position in signature.set_positions():
            overlapping |= self.read_slice(position)
            slices_read += 1
            if overlapping.all():
                break
        drop_indices = np.nonzero(overlapping)[0].tolist()
        return self._resolve(drop_indices, "overlap", slices_read)
