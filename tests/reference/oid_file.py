"""OID-list lookup, one real page read per distinct page."""

from typing import Dict, List, Optional, Sequence

from repro.access.oid_file import _TOMBSTONE, OIDFile
from repro.objects.oid import OID, OID_BYTES


class ReferenceOIDFile(OIDFile):
    """:class:`OIDFile` whose ``get_many`` decodes entries from fetched pages."""

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
