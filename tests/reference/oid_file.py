"""The OID file one slot at a time: every entry read through ``Page.read_bytes``."""

from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from repro.access.oid_file import _TOMBSTONE, OIDFile, _entry_word
from repro.errors import AccessFacilityError
from repro.objects.oid import OID, OID_BYTES


class ReferenceOIDFile(OIDFile):
    """:class:`OIDFile` whose lookups, scans and writes work on fetched pages.

    ``live_words`` is the shipped method's contract over the per-page
    ``get_many``, so a reference signature file's candidates come from
    fetched pages too, and ``apply`` is one ``append`` or ``delete`` per
    op.
    """

    def apply(self, ops) -> List[int]:
        return [
            self.append(oid) if op == "insert" else self.delete(oid)
            for op, oid in ops
        ]

    def append(self, oid: OID) -> int:
        _entry_word(oid)
        index = self._count
        page_no, offset = self._locate(index)
        if page_no >= self.file.num_pages:
            page = self.file.append_page()[1]
        else:
            page = self.file.read_page(page_no)
        page.write_bytes(offset, oid.to_bytes())
        self.file.write_page(page_no, page)
        self._count += 1
        return index

    def get_many(self, indices: Sequence[int]) -> List[Optional[OID]]:
        by_page: Dict[int, List[int]] = {}
        for index in sorted(set(indices)):
            self._check_index(index)
            by_page.setdefault(index // self.entries_per_page, []).append(index)
        results: Dict[int, Optional[OID]] = {}
        for page_no in sorted(by_page):
            page = self.file.read_page(page_no)
            for index in by_page[page_no]:
                offset = (index % self.entries_per_page) * OID_BYTES
                raw = page.read_bytes(offset, OID_BYTES)
                results[index] = None if raw == _TOMBSTONE else OID.from_bytes(raw)
        return [results[index] for index in indices]

    def live_words(self, indices: Sequence[int]) -> np.ndarray:
        live = [oid.to_int() for oid in self.get_many(indices) if oid is not None]
        return np.array(live, dtype=np.uint64)

    def delete(self, oid: OID) -> int:
        _entry_word(oid)
        needle = oid.to_bytes()
        for page_no in range(self.file.num_pages):
            page = self.file.read_page(page_no)
            for slot in range(self._entries_on_page(page_no)):
                offset = slot * OID_BYTES
                if page.read_bytes(offset, OID_BYTES) == needle:
                    page.write_bytes(offset, _TOMBSTONE)
                    self.file.write_page(page_no, page)
                    return page_no * self.entries_per_page + slot
        raise AccessFacilityError(f"OID {oid} not present in OID file")

    def scan_live(self) -> Iterable[tuple]:
        for page_no in range(self.file.num_pages):
            page = self.file.read_page(page_no)
            for slot in range(self._entries_on_page(page_no)):
                raw = page.read_bytes(slot * OID_BYTES, OID_BYTES)
                if raw != _TOMBSTONE:
                    yield page_no * self.entries_per_page + slot, OID.from_bytes(raw)
