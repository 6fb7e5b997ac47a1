"""The nested index with nothing remembered between page accesses.

The shipped :class:`~repro.access.nix.btree.BPlusTree` takes a node it has
already decoded from its node map and *charges* the page read — a writer
charges the fetch and changes a copy; a store charges the read half of its
read-modify-write; and
:class:`~repro.access.nix.nested_index.NestedIndex` unions and intersects
packed posting arrays. Here every node access is a real
``PagedFile.read_page`` decoded one field at a time
(:mod:`tests.reference.nix_node`), every store fetches the page it
rewrites, and the searches are the loops over Python sets of ``OID``
objects they replaced. Run on a twin ``StorageManager``, every counter
these produce is a real fetch the shipped path has to reproduce.
"""

from repro.access.base import SearchResult
from repro.access.nix.btree import BPlusTree
from repro.access.nix.keycodec import EMPTY_SET_KEY, encode_key
from repro.access.nix.nested_index import NestedIndex
from repro.errors import AccessFacilityError
from repro.objects.oid import OID
from tests.reference import nix_node


class ReferenceBPlusTree(BPlusTree):
    def _load(self, page_no):
        return nix_node.deserialize(self.file.read_page(page_no))

    _node = _writable = _load

    def _map(self):
        return {}  # no node map: a write starts from nothing remembered

    def _store(self, page_no, node, image=None):
        page = self.file.read_page(page_no)
        node.serialize_into(page)
        self.file.write_page(page_no, page)

    def lookup(self, key):
        _, leaf = self._descend(key)
        entry = leaf.find(key)
        if entry is None:
            return []
        values = sorted(
            entry.oids.tolist() + self._chain_collect(entry.overflow_page)
        )
        return [OID.from_int(value) for value in values]


class ReferenceNestedIndex(NestedIndex):
    def __init__(self, storage, file_prefix="nix", overflow_chains=False):
        self.tree = ReferenceBPlusTree(
            storage.create_file(f"{file_prefix}:btree"),
            overflow_chains=overflow_chains,
        )

    def search_superset(self, query, use_elements=None):
        if not query:
            return super().search_superset(query)
        elements = sorted(query, key=repr)
        if use_elements is not None:
            if use_elements < 1:
                raise AccessFacilityError("use_elements must be >= 1")
            elements = elements[:use_elements]
        partial = len(elements) < len(query)
        result = None
        lookups = 0
        for element in elements:
            oids = set(self.tree.lookup(encode_key(element)))
            lookups += 1
            result = oids if result is None else (result & oids)
            if not result:
                break
        return SearchResult(
            candidates=sorted(result or set()),
            exact=not partial,
            facility=self.name,
            detail={"mode": "superset", "lookups": lookups, "partial": partial},
        )

    def search_subset(self, query):
        result = set(self.tree.lookup(EMPTY_SET_KEY))
        lookups = 1
        for element in sorted(query, key=repr):
            result |= set(self.tree.lookup(encode_key(element)))
            lookups += 1
        return SearchResult(
            candidates=sorted(result),
            exact=False,
            facility=self.name,
            detail={"mode": "subset", "lookups": lookups},
        )

    def search_overlap(self, query):
        result = set()
        lookups = 0
        for element in sorted(query, key=repr):
            result |= set(self.tree.lookup(encode_key(element)))
            lookups += 1
        return SearchResult(
            candidates=sorted(result),
            exact=True,
            facility=self.name,
            detail={"mode": "overlap", "lookups": lookups},
        )
