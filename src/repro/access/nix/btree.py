"""Paged B+-tree mapping keys to OID lists.

The structural substrate of the nested index (§4.3): leaves hold
``key → {OIDs}`` entries, internal nodes route by separator keys, and every
node occupies exactly one page of the storage manager. Lookups therefore
cost ``height + 1`` logical page reads — the model's ``rc`` (3 pages for
the paper's parameter ranges).

Splitting is size-driven: after a mutation a node whose image no longer
fits a page is split at the byte midpoint. Deletion removes OIDs (and empty
entries) without rebalancing, matching the paper's update model, which
ignores structural reorganization.

A single entry must fit one page (~500 OIDs at P = 4096); the paper's
``d = Dt·N/V`` keeps lists an order of magnitude below that. Overflowing
that bound raises rather than silently corrupting.

Decoded nodes are kept in one ``{page_no: node}`` map, held in a
:class:`~repro.storage.decode_cache.DecodeSlot` under the file's version
and filled as pages are first read. Readers take a node from the map and
charge the page read it stands for (:meth:`PagedFile.charge_read`), so
every counter reads as if the page had been fetched. No node in the map is
ever changed: writers copy the shared node. A writer takes a node from the
same map, charging the fetch it stands for (:meth:`PagedFile.charge_fetch`,
which still verifies the stored image wherever a fetch would have moved
it), and changes a shallow copy — a new list of the leaf's immutable
entries, or new key and child lists. Once the last page write of its
insert, delete or bulk load has landed, the map is re-keyed at the new
version with exactly the pages it wrote replaced by the nodes it wrote. A
write that fails part-way leaves the map at a version the file has left,
and the next reader decodes afresh. Only :meth:`page_census`,
:meth:`verify` and :meth:`verify_decodes` decode pages for themselves; the
last compares every node the map holds with its page.
"""

from __future__ import annotations

import functools
from typing import Callable, Dict, Iterator, List, Optional, Tuple, Union

import numpy as np

from repro.access.nix.node import (
    OID_WORD,
    InternalNode,
    LeafEntry,
    LeafNode,
    OverflowNode,
    deserialize_node,
    install,
)
from repro.errors import AccessFacilityError, IndexCorruptionError
from repro.objects.oid import OID
from repro.storage.decode_cache import DecodeSlot
from repro.storage.page import Page
from repro.storage.paged_file import PagedFile

Node = Union[LeafNode, InternalNode, OverflowNode]


def as_oids(words: np.ndarray) -> List[OID]:
    """Packed ``OID_WORD`` words as :class:`OID` objects, in order."""
    return [OID.from_int(word) for word in words.tolist()]


def _written_through(write: Callable) -> Callable:
    """Carry the node map across the page writes of one tree write.

    The nodes ``write`` stored are what their pages now hold and are not
    touched again, so they replace the map's entries for those pages and
    the map moves to the file's new version. That happens only when
    ``write`` returns: if a page write raised, the map keeps a version the
    file has left, and the nodes stored so far are let go.
    """

    @functools.wraps(write)
    def carrying(tree: "BPlusTree", *args):
        before = tree.file.version
        tree._base = tree._map()
        written = tree._written
        try:
            result = write(tree, *args)
            if written:
                tree._decode.follow(
                    before, lambda nodes: nodes.update(written) or nodes
                )
        finally:
            tree._base = None
            tree._written = {}
        return result

    return carrying


class BPlusTree:
    """B+-tree of OID lists over one paged file.

    ``overflow_chains=True`` lets a posting list outgrow its leaf: the
    inline portion is capped (a third of the page) and the tail lives in
    chained overflow buckets. Without chains, an oversized list raises —
    the paper's single-leaf entry layout.
    """

    def __init__(self, paged_file: PagedFile, overflow_chains: bool = False):
        self.file = paged_file
        self.overflow_chains = overflow_chains
        # Entries whose inline image exceeds this spill to a chain (chains
        # enabled) or raise (paper layout). A third of the page keeps at
        # least two entries per leaf splittable.
        self.inline_cap = self.file.page_size // 3
        self._decode = DecodeSlot(lambda: paged_file.version)
        #: the node map the write in progress started from; None between writes
        self._base: Optional[Dict[int, Node]] = None
        #: nodes the write in progress has stored, by page; empty between writes
        self._written: Dict[int, Node] = {}
        if self.file.num_pages == 0:
            root_no, page = self.file.append_page()
            LeafNode().serialize_into(page)
            self.file.write_page(root_no, page)
            self.root_page = root_no
        else:
            self.root_page = 0
        #: internal levels above the leaves (0 = the root is a leaf)
        self.height = len(self._descend(b"")[0]) - 1

    # ------------------------------------------------------------------
    # Node I/O
    # ------------------------------------------------------------------
    def _map(self) -> Dict[int, Node]:
        """The node map at the file's version (a new, empty one if none is)."""
        return self._decode.get(dict)

    def _shared(self, page_no: int, charge: Callable[[int], None]) -> Node:
        """The node the map holds for ``page_no``, its page read ``charge``d.

        A page not in the map yet is fetched and decoded into it. During a
        write the file has moved on only by the write's own pages: those
        answer with the node stored there, every other page from the map
        the write started from.
        """
        node = self._written.get(page_no)
        if node is None:
            nodes = self._map() if self._base is None else self._base
            node = nodes.get(page_no)
            if node is None:
                nodes[page_no] = node = deserialize_node(self.file.read_page(page_no))
                return node
        charge(page_no)
        return node

    def _node(self, page_no: int) -> Node:
        """A reader's node: shared, charged as one page read, never changed."""
        return self._shared(page_no, self.file.charge_read)

    def _writable(self, page_no: int) -> Node:
        """A writer's node: a copy of the shared one, free to change,
        charged as the page fetch it stands for."""
        return self._shared(page_no, self.file.charge_fetch).copy()

    def _load(self, page_no: int) -> Node:
        """The node decoded from its page, past the map (for the checks)."""
        return deserialize_node(self.file.read_page(page_no))

    def _store(self, page_no: int, node: Node, image: Optional[bytes] = None) -> None:
        # The image is replaced whole, so the read half of this
        # read-modify-write is charged, not fetched.
        self.file.charge_read(page_no)
        self._put(page_no, node, image)

    def _allocate(self, node: Node) -> int:
        page_no, _ = self.file.append_page()
        self._put(page_no, node)
        return page_no

    def _put(self, page_no: int, node: Node, image: Optional[bytes] = None) -> None:
        """Write ``node`` (whose ``image`` the caller may have built) to its page."""
        page = Page(self.file.page_size)
        install(page, node.image() if image is None else image)
        self.file.write_page(page_no, page)
        self._written[page_no] = node

    def decode_cache_stats(self) -> Dict[str, int]:
        """Hit/miss counters of the node map (a miss = a new map)."""
        return self._decode.stats()

    def verify_decodes(self) -> None:
        """Check every node the map holds at the file's version against a
        fresh decode of its page (read with :meth:`PagedFile.peek_page`,
        nothing charged). On a mismatch the map is dropped, so the next
        reader decodes afresh, and :class:`IndexCorruptionError` names the
        file and page."""
        self._decode.verify(self._diff)

    def _diff(self, nodes: Dict[int, Node]) -> Optional[str]:
        for page_no, node in sorted(nodes.items()):
            if node != deserialize_node(self.file.peek_page(page_no)):
                return (
                    f"NIX file {self.file.name!r}: the node map cached for "
                    f"page {page_no} differs from the page"
                )
        return None

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def _descend(
        self, key: bytes, for_update: bool = False
    ) -> Tuple[List[int], LeafNode]:
        """Root-to-leaf path (page numbers) and the leaf.

        The internal levels are only read. ``for_update`` hands back a leaf
        the caller may change: everything from ``height`` levels down is a
        writer's copy.
        """
        path = [self.root_page]
        while True:
            writing = for_update and len(path) > self.height
            node = (self._writable if writing else self._node)(path[-1])
            if not isinstance(node, InternalNode):
                return path, node
            path.append(node.child_for(key))

    def postings(self, key: bytes) -> np.ndarray:
        """The key's OIDs as sorted packed words (empty if absent).

        Costs ``height + 1`` reads plus one per overflow bucket when the
        posting list is chained. The array may be a decoded node's own:
        callers must not write to it.
        """
        _, leaf = self._descend(key)
        entry = leaf.find(key)
        if entry is None:
            return np.empty(0, dtype=OID_WORD)
        return self._entry_words(entry)

    def lookup(self, key: bytes) -> List[OID]:
        """OID list for ``key`` (empty if absent), at :meth:`postings`' cost."""
        return as_oids(self.postings(key))

    def _entry_words(self, entry: LeafEntry) -> np.ndarray:
        """Inline and chained OIDs of ``entry`` as one sorted array."""
        if entry.overflow_page is None:
            return entry.oids
        chained = np.array(self._chain_collect(entry.overflow_page), dtype=OID_WORD)
        return np.sort(np.concatenate([entry.oids, chained]))

    # ------------------------------------------------------------------
    # Overflow chains
    # ------------------------------------------------------------------
    def _overflow(
        self, page_no: int, load: Callable[[int], Node]
    ) -> OverflowNode:
        """The bucket on ``page_no`` through ``load`` (``_node`` to read
        it, ``_writable`` to change it)."""
        node = load(page_no)
        if not isinstance(node, OverflowNode):
            raise IndexCorruptionError(
                f"page {page_no} expected to be an overflow bucket"
            )
        return node

    def _chain_collect(self, head: "Optional[int]") -> List[int]:
        values: List[int] = []
        page_no = head
        while page_no is not None:
            bucket = self._overflow(page_no, self._node)
            values.extend(bucket.oids)
            page_no = bucket.next_page
        return values

    def _chain_contains(self, head: "Optional[int]", oid_int: int) -> bool:
        page_no = head
        while page_no is not None:
            bucket = self._overflow(page_no, self._node)
            if oid_int in bucket.oids:
                return True
            page_no = bucket.next_page
        return False

    def _inline_budget(self, key: bytes) -> int:
        """OIDs an entry for ``key`` keeps inline when it has a chain."""
        return max(1, (self.inline_cap - (8 + len(key))) // 8)

    def _chain_spill(self, entry: LeafEntry) -> LeafEntry:
        """Push the entry's largest inline OID into its chain (the head
        bucket, else a new one); returns the entry without it."""
        oid_int = int(entry.oids[-1])
        head_page = entry.overflow_page
        if head_page is not None:
            head = self._overflow(head_page, self._writable)
            if len(head.oids) < OverflowNode.capacity(self.file.page_size):
                head.oids.append(oid_int)
                self._store(head_page, head)
                return LeafEntry(entry.key, entry.oids[:-1], head_page)
        bucket = OverflowNode(oids=[oid_int], next_page=head_page)
        return LeafEntry(entry.key, entry.oids[:-1], self._allocate(bucket))

    def _chain_remove(self, entry: LeafEntry, oid_int: int) -> Optional[LeafEntry]:
        """Remove one OID from the chain, compacting away an emptied bucket.

        Returns the entry as it then stands, or None if the OID is not
        chained.
        """
        previous_page: "Optional[int]" = None
        page_no = entry.overflow_page
        while page_no is not None:
            bucket = self._overflow(page_no, self._writable)
            if oid_int in bucket.oids:
                bucket.oids.remove(oid_int)
                if bucket.oids:
                    self._store(page_no, bucket)
                elif previous_page is None:
                    return LeafEntry(entry.key, entry.oids, bucket.next_page)
                else:
                    previous = self._overflow(previous_page, self._writable)
                    previous.next_page = bucket.next_page
                    self._store(previous_page, previous)
                return entry
            previous_page = page_no
            page_no = bucket.next_page
        return None

    def _chain_refill(self, entry: LeafEntry) -> LeafEntry:
        """The entry with its inline OIDs refilled from the chain head.

        So an entry never looks empty while OIDs remain chained; the
        refill is capped so the entry stays within the inline budget.
        """
        head_page = entry.overflow_page
        head = self._overflow(head_page, self._writable)
        pulled = sorted(head.oids)[: self._inline_budget(entry.key)]
        taken = set(pulled)
        head.oids = [v for v in head.oids if v not in taken]
        if head.oids:
            self._store(head_page, head)
            return LeafEntry(entry.key, pulled, head_page)
        return LeafEntry(entry.key, pulled, head.next_page)

    def contains_key(self, key: bytes) -> bool:
        _, leaf = self._descend(key)
        return leaf.find(key) is not None

    # ------------------------------------------------------------------
    # Bulk construction
    # ------------------------------------------------------------------
    @_written_through
    def bulk_load(self, entries: "List[Tuple[bytes, List[int]]]") -> None:
        """Build the tree bottom-up from sorted ``(key, sorted oid ints)``.

        Leaves are filled to page capacity and chained; internal levels are
        stacked until one root remains, which lands on the stable root page
        (page 0). Only valid on an empty tree.
        """
        if self.height != 0 or self._writable(self.root_page).entries:
            raise AccessFacilityError("bulk_load requires an empty tree")
        keys = [key for key, _ in entries]
        if keys != sorted(set(keys)):
            raise AccessFacilityError("bulk_load input must be sorted, unique keys")
        if not entries:
            return
        page_size = self.file.page_size
        # ---- build leaves ------------------------------------------------
        empty = len(LeafNode().image())
        leaves: List[LeafNode] = [LeafNode()]
        used = empty
        for key, oid_ints in entries:
            entry = LeafEntry(key=key, oids=oid_ints)
            if self.overflow_chains and len(entry.image) > self.inline_cap:
                entry = self._bulk_chain_entry(key, list(oid_ints))
            size = len(entry.image)
            if size > page_size - 16:
                raise AccessFacilityError(
                    f"OID list for key {key!r} does not fit one page"
                )
            if used + size > page_size and leaves[-1].entries:
                leaves.append(LeafNode())
                used = empty
            leaves[-1].entries.append(entry)
            used += size
        # ---- place nodes: root is page 0; everything else is appended ----
        if len(leaves) == 1:
            self._store(self.root_page, leaves[0])
            self.height = 0
            return
        leaf_pages = [self._allocate(leaf) for leaf in leaves]
        for leaf, next_page in zip(leaves[:-1], leaf_pages[1:]):
            leaf.next_leaf = next_page
        for leaf, page_no in zip(leaves, leaf_pages):
            self._store(page_no, leaf)
        # ---- stack internal levels ---------------------------------------
        level_pages = leaf_pages
        level_keys = [leaf.entries[0].key for leaf in leaves]
        height = 0
        while len(level_pages) > 1:
            height += 1
            parents: List[InternalNode] = [InternalNode(children=[level_pages[0]])]
            for key, child in zip(level_keys[1:], level_pages[1:]):
                candidate_size = parents[-1].serialized_size() + 2 + len(key) + 4
                if candidate_size > page_size:
                    parents.append(InternalNode(children=[child]))
                else:
                    parents[-1].keys.append(key)
                    parents[-1].children.append(child)
            if len(parents) == 1:
                self._store(self.root_page, parents[0])
                self.height = height
                return
            parent_pages = [self._allocate(node) for node in parents]
            # the separator guiding into each parent is the smallest key
            # reachable in its subtree (its first child's first key)
            first_child_keys = []
            child_key_by_page = dict(zip(level_pages, level_keys))
            for node in parents:
                first_child_keys.append(child_key_by_page[node.children[0]])
            level_pages = parent_pages
            level_keys = first_child_keys
        raise IndexCorruptionError("bulk_load failed to converge to a root")

    def _bulk_chain_entry(self, key: bytes, oid_ints: List[int]) -> LeafEntry:
        """Split a long posting list into inline prefix + overflow chain."""
        budget = self._inline_budget(key)
        inline, tail = oid_ints[:budget], oid_ints[budget:]
        capacity = OverflowNode.capacity(self.file.page_size)
        head: "Optional[int]" = None
        for start in range(len(tail) - capacity, -capacity, -capacity):
            chunk = tail[max(start, 0) : start + capacity]
            head = self._allocate(OverflowNode(oids=chunk, next_page=head))
        return LeafEntry(key=key, oids=inline, overflow_page=head)

    # ------------------------------------------------------------------
    # Insert
    # ------------------------------------------------------------------
    @_written_through
    def insert(self, key: bytes, oid: OID) -> bool:
        """Add ``oid`` to the key's list; False if it was already there."""
        path, leaf = self._descend(key, for_update=True)
        position, found = leaf.slot(key)
        entry = LeafEntry(key) if found is None else found
        oid_int = oid.to_int()
        if entry.overflow_page is not None and self._chain_contains(
            entry.overflow_page, oid_int
        ):
            return False
        grown = entry.add_oid(oid_int)
        if grown is entry:
            return False
        if self.overflow_chains:
            while len(grown.image) > self.inline_cap and len(grown.oids):
                # spill the largest OID; the inline prefix stays sorted
                grown = self._chain_spill(grown)
        elif len(grown.image) > self.file.page_size - 16:
            raise AccessFacilityError(
                f"OID list for key {key!r} no longer fits one page "
                f"({len(grown.oids)} OIDs); the nested index stores a "
                "key's posting list within a single leaf (enable "
                "overflow_chains to lift this)"
            )
        if found is None:
            leaf.entries.insert(position, grown)
        else:
            leaf.entries[position] = grown
        self._store_or_split_leaf(path, leaf)
        return True

    def _store_or_split_leaf(self, path: List[int], leaf: LeafNode) -> None:
        leaf_page = path[-1]
        image = leaf.image()
        if len(image) <= self.file.page_size:
            self._store(leaf_page, leaf, image)
            return
        left, right, separator = self._split_leaf(leaf)
        right_page = self._allocate(right)
        left.next_leaf = right_page
        self._store(leaf_page, left)
        self._propagate_split(path[:-1], leaf_page, separator, right_page)

    def _split_leaf(self, leaf: LeafNode) -> Tuple[LeafNode, LeafNode, bytes]:
        total = sum(len(e.image) for e in leaf.entries)
        accumulated = 0
        split_at = len(leaf.entries) - 1
        for i, entry in enumerate(leaf.entries):
            accumulated += len(entry.image)
            if accumulated >= total // 2:
                split_at = i + 1
                break
        split_at = max(1, min(split_at, len(leaf.entries) - 1))
        left = LeafNode(entries=leaf.entries[:split_at], next_leaf=None)
        right = LeafNode(entries=leaf.entries[split_at:], next_leaf=leaf.next_leaf)
        return left, right, right.entries[0].key

    def _propagate_split(
        self,
        ancestors: List[int],
        left_page: int,
        separator: bytes,
        right_page: int,
    ) -> None:
        if not ancestors:
            # Root split: move the old root's content to a new page so the
            # root page number stays stable, then rebuild the root above.
            old_root = self._writable(self.root_page)
            moved_page = self._allocate(old_root)
            new_root = InternalNode(
                keys=[separator],
                children=[
                    moved_page if left_page == self.root_page else left_page,
                    right_page,
                ],
            )
            self._store(self.root_page, new_root)
            self.height += 1
            return
        parent_page = ancestors[-1]
        parent = self._writable(parent_page)
        if not isinstance(parent, InternalNode):
            raise IndexCorruptionError("leaf found on the ancestor path")
        parent.insert_separator(separator, right_page)
        if parent.serialized_size() <= self.file.page_size:
            self._store(parent_page, parent)
            return
        mid = len(parent.keys) // 2
        up_key = parent.keys[mid]
        right_node = InternalNode(
            keys=parent.keys[mid + 1 :],
            children=parent.children[mid + 1 :],
        )
        left_node = InternalNode(
            keys=parent.keys[:mid],
            children=parent.children[: mid + 1],
        )
        new_right_page = self._allocate(right_node)
        self._store(parent_page, left_node)
        self._propagate_split(ancestors[:-1], parent_page, up_key, new_right_page)

    # ------------------------------------------------------------------
    # Delete
    # ------------------------------------------------------------------
    @_written_through
    def delete(self, key: bytes, oid: OID) -> bool:
        """Remove ``oid`` from the key's list; drop the entry when empty."""
        path, leaf = self._descend(key, for_update=True)
        position, entry = leaf.slot(key)
        if entry is None:
            return False
        oid_int = oid.to_int()
        shrunk = entry.remove_oid(oid_int)
        if shrunk is entry:
            shrunk = self._chain_remove(entry, oid_int)
            if shrunk is None:
                return False
        if not len(shrunk.oids) and shrunk.overflow_page is not None:
            shrunk = self._chain_refill(shrunk)
        if not len(shrunk.oids) and shrunk.overflow_page is None:
            del leaf.entries[position]
        else:
            leaf.entries[position] = shrunk
        self._store(path[-1], leaf)
        return True

    # ------------------------------------------------------------------
    # Scans & verification
    # ------------------------------------------------------------------
    def _leftmost_leaf(self) -> Tuple[int, LeafNode]:
        page_no = self.root_page
        node = self._node(page_no)
        while isinstance(node, InternalNode):
            page_no = node.children[0]
            node = self._node(page_no)
        return page_no, node

    def iterate_entries(self) -> Iterator[Tuple[bytes, List[OID]]]:
        """All entries in key order via the leaf chain."""
        return self.range_lookup(None, None)

    def range_lookup(
        self, low: Optional[bytes], high: Optional[bytes]
    ) -> Iterator[Tuple[bytes, List[OID]]]:
        """Entries with ``low <= key < high`` (either bound optional)."""
        if low is None:
            _, leaf = self._leftmost_leaf()
        else:
            _, leaf = self._descend(low)
        while True:
            for entry in leaf.entries:
                if low is not None and entry.key < low:
                    continue
                if high is not None and entry.key >= high:
                    return
                yield entry.key, as_oids(self._entry_words(entry))
            if leaf.next_leaf is None:
                return
            node = self._node(leaf.next_leaf)
            if not isinstance(node, LeafNode):
                raise IndexCorruptionError("next_leaf points at an internal node")
            leaf = node

    def key_count(self) -> int:
        return sum(1 for _ in self.iterate_entries())

    @property
    def num_pages(self) -> int:
        return self.file.num_pages

    def leaf_and_nonleaf_pages(self) -> Tuple[int, int]:
        """(leaf pages, internal pages) — the model's ``lp`` and ``nlp``."""
        census = self.page_census()
        return census["leaf"], census["nonleaf"]

    def page_census(self) -> dict:
        """Page counts by role: leaf / nonleaf / overflow.

        Like :meth:`verify`'s tree walk it decodes the pages themselves,
        not the node map: it is what checks the one against the other.
        """
        leaves = 0
        internals = 0
        overflow = 0
        stack = [self.root_page]
        seen = set()
        while stack:
            page_no = stack.pop()
            if page_no in seen:
                raise IndexCorruptionError(f"page {page_no} reachable twice")
            seen.add(page_no)
            node = self._load(page_no)
            if isinstance(node, LeafNode):
                leaves += 1
                for entry in node.entries:
                    chain = entry.overflow_page
                    while chain is not None:
                        if chain in seen:
                            raise IndexCorruptionError(
                                f"overflow page {chain} reachable twice"
                            )
                        seen.add(chain)
                        overflow += 1
                        chain = self._overflow(chain, self._load).next_page
            else:
                internals += 1
                stack.extend(node.children)
        return {"leaf": leaves, "nonleaf": internals, "overflow": overflow}

    def verify(self) -> None:
        """Full structural check: ordering, separators, sizes, leaf chain,
        overflow-chain integrity (no duplicates across inline + chain)."""
        self._verify_subtree(self.root_page, low=None, high=None)
        self.page_census()  # raises on chain sharing/cycles
        previous: Optional[bytes] = None
        for key, oids in self.iterate_entries():
            if previous is not None and key <= previous:
                raise IndexCorruptionError("leaf chain out of order")
            if not oids:
                raise IndexCorruptionError(f"empty OID list for key {key!r}")
            if len(set(oids)) != len(oids):
                raise IndexCorruptionError(
                    f"duplicate OIDs across inline+overflow for key {key!r}"
                )
            if oids != sorted(oids):
                raise IndexCorruptionError(f"unsorted OID list for key {key!r}")
            previous = key

    def _verify_subtree(
        self, page_no: int, low: Optional[bytes], high: Optional[bytes]
    ) -> None:
        node = self._load(page_no)
        if len(node.image()) > self.file.page_size:
            raise IndexCorruptionError(f"node on page {page_no} oversized")
        if isinstance(node, LeafNode):
            keys = node.keys()
            if keys != sorted(set(keys)):
                raise IndexCorruptionError(f"leaf {page_no} keys unsorted/dup")
            for key in keys:
                if low is not None and key < low:
                    raise IndexCorruptionError(f"leaf key below separator bound")
                if high is not None and key >= high:
                    raise IndexCorruptionError(f"leaf key above separator bound")
            return
        if node.keys != sorted(set(node.keys)):
            raise IndexCorruptionError(f"internal {page_no} keys unsorted/dup")
        bounds = [low] + list(node.keys) + [high]
        for child, (child_low, child_high) in zip(
            node.children, zip(bounds[:-1], bounds[1:])
        ):
            self._verify_subtree(child, child_low, child_high)
