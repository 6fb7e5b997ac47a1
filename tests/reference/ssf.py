"""SSF as the paper's §4.1 describes it: scan the signature file page by page."""

from typing import List, Optional

import numpy as np

from repro.access.base import SearchResult, SetAccessFacility, SetValue
from repro.access.sigpack import (
    signature_to_bits,
    store_bit_array,
    write_signature_in_page,
)
from repro.access.ssf import SequentialSignatureFile
from repro.errors import AccessFacilityError
from repro.objects.oid import OID
from repro.obs.tracer import traced_search
from tests.reference.oid_file import ReferenceOIDFile
from tests.reference.sigpack import read_signature_matrix


class ReferenceSSF(SequentialSignatureFile):
    """Page-at-a-time unpacked-matrix scan over the SSF page files."""

    def __init__(self, storage, scheme, file_prefix: str = "ssf"):
        super().__init__(storage, scheme, file_prefix=file_prefix)
        self.oid_file = ReferenceOIDFile(self.oid_file.file)

    apply = SetAccessFacility.apply  # one insert or delete per op

    def insert(self, elements: SetValue, oid: OID) -> None:
        """Append the OID entry, then fetch, fill and write the signature page."""
        signature = self.scheme.set_signature(elements)
        index = self.oid_file.append(oid)
        page_no, slot = divmod(index, self.sigs_per_page)
        if page_no >= self.signature_file.num_pages:
            page = self.signature_file.append_page()[1]
        else:
            page = self.signature_file.read_page(page_no)
        write_signature_in_page(page, slot, signature)
        self.signature_file.write_page(page_no, page)

    def delete(self, elements: SetValue, oid: OID) -> None:
        self.oid_file.delete(oid)

    def bulk_load(self, pairs) -> int:
        """Fill a per-page bit buffer entry by entry; one write per page."""
        if self.entry_count:
            raise AccessFacilityError("bulk_load requires an empty SSF")
        oids: List[OID] = []
        page_bits = np.zeros(self.signature_file.page_size * 8, dtype=np.uint8)
        slot = 0
        page_dirty = False
        for elements, oid in pairs:
            signature = self.scheme.set_signature(elements)
            start = slot * self.signature_bits
            page_bits[start : start + self.signature_bits] = signature_to_bits(
                signature
            )
            page_dirty = True
            oids.append(oid)
            slot += 1
            if slot == self.sigs_per_page:
                self._flush_bulk_page(page_bits)
                page_bits[:] = 0
                slot = 0
                page_dirty = False
        if page_dirty:
            self._flush_bulk_page(page_bits)
        self.oid_file.bulk_append(oids)
        self.verify()
        return len(oids)

    def _flush_bulk_page(self, page_bits) -> None:
        page_no, page = self.signature_file.append_page()
        store_bit_array(page, page_bits)
        self.signature_file.write_page(page_no, page)

    @traced_search("ssf.search.superset")
    def search_superset(
        self, query: SetValue, use_elements: Optional[int] = None
    ) -> SearchResult:
        if not query:
            return self._all_live("superset", drops=self.entry_count)
        if use_elements is None:
            signature = self.scheme.set_signature(query)
        elif use_elements < 1:
            raise AccessFacilityError("use_elements must be >= 1")
        else:
            signature = self.scheme.partial_query_signature(
                sorted(query, key=repr), use_elements
            )
        query_bits = signature_to_bits(signature)
        drop_indices: List[int] = []
        for page_no in range(self.signature_file.num_pages):
            count = self._entries_on_page(page_no)
            matrix = read_signature_matrix(
                self.signature_file.read_page(page_no), self.signature_bits, count
            )
            # target covers query  <=>  no position has query=1, target=0
            misses = np.any(query_bits & ~matrix.astype(bool), axis=1)
            for local in np.nonzero(~misses)[0]:
                drop_indices.append(page_no * self.sigs_per_page + int(local))
        return self._resolve(drop_indices, mode="superset")

    @traced_search("ssf.search.subset")
    def search_subset(
        self, query: SetValue, slices_to_examine: Optional[int] = None
    ) -> SearchResult:
        if slices_to_examine is not None and slices_to_examine < 0:
            raise AccessFacilityError("slices_to_examine must be >= 0")
        if not query:
            return self._all_live(
                "subset", drops=self.entry_count, exact=False
            )
        signature = self.scheme.set_signature(query)
        query_bits = signature_to_bits(signature).astype(bool)
        zero_positions = np.nonzero(~query_bits)[0]
        if slices_to_examine is not None:
            zero_positions = zero_positions[:slices_to_examine]
        drop_indices: List[int] = []
        for page_no in range(self.signature_file.num_pages):
            count = self._entries_on_page(page_no)
            matrix = read_signature_matrix(
                self.signature_file.read_page(page_no), self.signature_bits, count
            )
            # target covered by query <=> target has 0 at every examined
            # zero position of the query signature
            if len(zero_positions):
                hits = ~np.any(matrix[:, zero_positions].astype(bool), axis=1)
            else:
                hits = np.ones(count, dtype=bool)
            for local in np.nonzero(hits)[0]:
                drop_indices.append(page_no * self.sigs_per_page + int(local))
        return self._resolve(drop_indices, mode="subset")

    @traced_search("ssf.search.overlap")
    def search_overlap(self, query: SetValue) -> SearchResult:
        if not query:
            return SearchResult([], exact=True, facility=self.name,
                                detail={"mode": "overlap", "drops": 0,
                                        "live_drops": 0})
        query_bits = signature_to_bits(self.scheme.set_signature(query))
        drop_indices: List[int] = []
        for page_no in range(self.signature_file.num_pages):
            count = self._entries_on_page(page_no)
            matrix = read_signature_matrix(
                self.signature_file.read_page(page_no), self.signature_bits, count
            )
            hits = np.any(matrix.astype(bool) & query_bits.astype(bool), axis=1)
            for local in np.nonzero(hits)[0]:
                drop_indices.append(page_no * self.sigs_per_page + int(local))
        return self._resolve(drop_indices, mode="overlap")
