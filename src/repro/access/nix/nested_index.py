"""The Nested Index (NIX) facility — paper §4.3.

A B+-tree whose leaf entries map an element value to the OIDs of all
objects whose indexed set attribute contains it (e.g. key ``"Baseball"`` →
every Student with that hobby). Retrieval:

``T ⊇ Q``
    Look up every query element and intersect the OID lists — an **exact**
    answer, no drop resolution needed (``RC = rc·Dq + Ps·A``).

``T ⊆ Q``
    Look up every query element and union the OID lists: all objects whose
    set *intersects* the query. These are candidates — objects containing
    elements outside the query are eliminated in drop resolution (the
    Appendix B cost). Objects with an *empty* set attribute are indexed
    under a reserved key so subset queries include them (an empty set is a
    subset of everything).

Smart ``T ⊇ Q`` (§5.1.3): look up only ``use_elements`` of the query's
elements, intersect those lists, and let drop resolution finish the job —
the result is then no longer exact.
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Optional, Set

import numpy as np

from repro.access.base import SearchResult, SetAccessFacility, SetValue
from repro.access.nix.btree import BPlusTree
from repro.access.nix.keycodec import EMPTY_SET_KEY, encode_key
from repro.access.nix.node import OID_WORD
from repro.errors import AccessFacilityError
from repro.objects.oid import OID
from repro.obs.tracer import traced_search
from repro.storage.paged_file import PagedFile, StorageManager


class NestedIndex(SetAccessFacility):
    """NIX over the paged B+-tree."""

    name = "nix"

    def __init__(
        self,
        storage: StorageManager,
        file_prefix: str = "nix",
        overflow_chains: bool = False,
    ):
        self._bind(storage.create_file, file_prefix, overflow_chains)

    @property
    def overflow_chains(self) -> bool:
        return self.tree.overflow_chains

    @classmethod
    def attach(
        cls,
        storage: StorageManager,
        file_prefix: str,
        overflow_chains: bool = False,
    ) -> "NestedIndex":
        """Bind to an existing NIX's B+-tree file (snapshot rehydration)."""
        facility = cls.__new__(cls)
        facility._bind(storage.open_file, file_prefix, overflow_chains)
        return facility

    def _bind(
        self,
        open_file: Callable[[str], PagedFile],
        file_prefix: str,
        overflow_chains: bool,
    ) -> None:
        """Set up over the B+-tree file ``open_file`` creates or opens."""
        self.file_prefix = file_prefix
        self.tree = BPlusTree(
            open_file(f"{file_prefix}:btree"), overflow_chains=overflow_chains
        )

    # ------------------------------------------------------------------
    # Maintenance — Dt tree operations per set value (UC = rc·Dt)
    # ------------------------------------------------------------------
    def bulk_load(self, pairs) -> int:
        """Build the index bottom-up from ``(set value, OID)`` pairs.

        Gathers the full posting map in memory, sorts it, and hands it to
        the B+-tree's bottom-up builder — one page write per node instead
        of ``rc`` page accesses per element. Only valid on an empty index.
        """
        postings = {}
        count = 0
        for elements, oid in pairs:
            oid_int = oid.to_int()
            count += 1
            if not elements:
                postings.setdefault(EMPTY_SET_KEY, set()).add(oid_int)
                continue
            for element in elements:
                postings.setdefault(encode_key(element), set()).add(oid_int)
        entries = [
            (key, sorted(oid_ints)) for key, oid_ints in sorted(postings.items())
        ]
        self.tree.bulk_load(entries)
        return count

    def insert(self, elements: SetValue, oid: OID) -> None:
        if not elements:
            self.tree.insert(EMPTY_SET_KEY, oid)
            return
        for element in elements:
            self.tree.insert(encode_key(element), oid)

    def delete(self, elements: SetValue, oid: OID) -> None:
        if not elements:
            removed = self.tree.delete(EMPTY_SET_KEY, oid)
            if not removed:
                raise AccessFacilityError(f"{oid} not indexed under empty set")
            return
        for element in elements:
            if not self.tree.delete(encode_key(element), oid):
                raise AccessFacilityError(
                    f"{oid} not indexed under element {element!r}"
                )

    # ------------------------------------------------------------------
    # Search
    # ------------------------------------------------------------------
    @traced_search("nix.search.superset")
    def search_superset(
        self, query: SetValue, use_elements: Optional[int] = None
    ) -> SearchResult:
        """Intersect per-element OID lists (exact unless partial)."""
        if not query:
            # Everything contains the empty set: candidates = every indexed
            # object. NIX cannot enumerate that cheaply; signal inexact full.
            oids = self._all_indexed()
            return SearchResult(sorted(oids), exact=True, facility=self.name,
                                detail={"mode": "superset", "lookups": 0})
        elements = sorted(query, key=repr)
        if use_elements is not None:
            if use_elements < 1:
                raise AccessFacilityError("use_elements must be >= 1")
            elements = elements[:use_elements]
        partial = len(elements) < len(query)
        words: Optional[np.ndarray] = None
        lookups = 0
        for element in elements:
            postings = self.tree.postings(encode_key(element))
            lookups += 1
            words = (
                postings
                if words is None
                # posting lists are sorted and duplicate-free
                else np.intersect1d(words, postings, assume_unique=True)
            )
            if not len(words):
                break
        return SearchResult(
            None,
            words=words,
            exact=not partial,
            facility=self.name,
            detail={"mode": "superset", "lookups": lookups, "partial": partial},
        )

    @traced_search("nix.search.subset")
    def search_subset(self, query: SetValue) -> SearchResult:
        """Union per-element OID lists plus the empty-set bucket."""
        keys = [EMPTY_SET_KEY] + [encode_key(e) for e in sorted(query, key=repr)]
        return SearchResult(
            None,
            words=self._union(keys),
            exact=False,
            facility=self.name,
            detail={"mode": "subset", "lookups": len(keys)},
        )

    @traced_search("nix.search.overlap")
    def search_overlap(self, query: SetValue) -> SearchResult:
        """``T ∩ Q ≠ ∅`` (§6 extension): the union of posting lists is
        exactly the overlapping objects — an exact answer for NIX."""
        keys = [encode_key(e) for e in sorted(query, key=repr)]
        return SearchResult(
            None,
            words=self._union(keys),
            exact=True,
            facility=self.name,
            detail={"mode": "overlap", "lookups": len(keys)},
        )

    def _union(self, keys: Iterable[bytes]) -> np.ndarray:
        """Every OID posted under any of ``keys``, looked up in order, as
        sorted packed words."""
        lists = [self.tree.postings(key) for key in keys]
        if not lists:
            return np.empty(0, dtype=OID_WORD)
        return np.unique(np.concatenate(lists))

    def lookup_element(self, element) -> List[OID]:
        """Single-element lookup (the membership operator ∈)."""
        return self.tree.lookup(encode_key(element))

    def _all_indexed(self) -> Set[OID]:
        oids: Set[OID] = set()
        for _, entry_oids in self.tree.iterate_entries():
            oids.update(entry_oids)
        return oids

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def storage_pages(self) -> dict:
        census = self.tree.page_census()
        pages = {"leaf": census["leaf"], "nonleaf": census["nonleaf"]}
        if census["overflow"]:
            pages["overflow"] = census["overflow"]
        return pages

    @property
    def height(self) -> int:
        return self.tree.height

    def lookup_cost_pages(self) -> int:
        """The model's ``rc``: pages read per element lookup."""
        return self.tree.height + 1

    def verify(self) -> None:
        self.tree.verify()

    def verify_decodes(self) -> None:
        self.tree.verify_decodes()
