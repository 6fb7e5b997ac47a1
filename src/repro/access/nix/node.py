"""B+-tree node representations and page serialization.

Three node kinds share one page format family:

Leaf page
    ``u8 kind=0 | u16 entry_count | u32 next_leaf(+1, 0 = none) |``
    per entry: ``u16 key_len | key | u16 oid_count |
    u32 overflow_page(+1, 0 = none) | oid_count × u64``.
    An entry is the paper's nested-index leaf record: a key value and the
    OID list of all objects whose indexed set attribute contains it. When
    overflow chains are enabled and a posting list outgrows its inline
    budget, the tail lives in a chain of overflow pages.

Internal page
    ``u8 kind=1 | u16 key_count | u32 child_0 |``
    per key: ``u16 key_len | key | u32 child``.
    ``key_i`` separates ``child_{i-1}`` (keys < key_i) from ``child_i``
    (keys >= key_i).

Overflow page
    ``u8 kind=2 | u32 next(+1, 0 = none) | u16 count | count × u64``.
    A bucket of posting-list OIDs continuing one leaf entry.

Nodes are deserialized into plain Python objects and encoded back as one
joined :meth:`image`; the tree splits a node whose image outgrows the page.
A leaf entry is the exception to "plain": an immutable value that carries
its own bytes — the slice of the page it was decoded from, or the bytes it
was built with — with its posting list a read-only ``<u8`` view of them,
one word per OID exactly as on the page (and as in the ``OIDFile``). So the
nested index unions and intersects lists without unpacking them, a leaf's
image is its header and its entries' images joined, and changing an entry
makes a new one: a writer changes a copy of a node's entry list, never an
entry a reader may hold.

The codec works on the page buffer directly: fixed fields go through
precompiled :class:`struct.Struct` objects, and decoding checks each
entry's extent against the page once before slicing it. A page that does
not hold what its counts claim raises :class:`~repro.errors.PageError` —
never a bare ``struct.error``, never a silently truncated key.
"""

from __future__ import annotations

import bisect
import functools
import struct
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.errors import IndexCorruptionError, PageError
from repro.storage.page import Page

LEAF_KIND = 0
INTERNAL_KIND = 1
OVERFLOW_KIND = 2

_TREE_HEAD = struct.Struct("<BHI")  # leaf and internal: kind, count, next+1 / child0
_OVERFLOW_HEAD = struct.Struct("<BIH")  # kind, next+1, count
_KEY_LEN = struct.Struct("<H")
_POSTINGS = struct.Struct("<HI")  # oid_count, overflow_page+1
_CHILD = struct.Struct("<I")
_OID = struct.Struct("<Q")
OID_WORD = np.dtype("<u8")  # OID.to_int() as stored: the OIDFile word format

_LEAF_HEADER = _INTERNAL_HEADER = _TREE_HEAD.size
_OVERFLOW_HEADER = _OVERFLOW_HEAD.size
_ENTRY_FIELDS = _KEY_LEN.size + _POSTINGS.size  # an entry's bytes besides key and OIDs


def _page_errors(codec):
    """Report what ``struct`` rejects as a :class:`PageError`.

    That is a read past the end of the page when decoding and a value too
    wide for its field when encoding.
    """

    @functools.wraps(codec)
    def checked(*args):
        try:
            return codec(*args)
        except struct.error as exc:
            raise PageError(f"{codec.__qualname__}: {exc}") from exc

    return checked


def _link(raw: int) -> Optional[int]:
    """A ``page+1`` link field: 0 means none."""
    return None if raw == 0 else raw - 1


def _raw_link(page_no: Optional[int]) -> int:
    return 0 if page_no is None else page_no + 1


def install(page: Page, image: bytes) -> None:
    """Make a node's ``image``, zero-padded, the page image."""
    if len(image) > page.page_size:
        raise IndexCorruptionError(
            f"node of {len(image)} bytes exceeds page ({page.page_size})"
        )
    page.write_bytes(0, image.ljust(page.page_size, b"\0"))


_new = object.__new__
_assign = object.__setattr__


class LeafEntry:
    """One nested-index entry: key bytes → sorted OID list. Immutable.

    ``image`` is the entry as it stands on a leaf page and ``oids`` a
    read-only ``<u8`` view of its OID words (``OID.to_int`` order is OID
    order); the tree converts to :class:`OID` only at its public boundary.
    Nothing is rebound or written in place — :meth:`add_oid` and
    :meth:`remove_oid` return a new entry — so the entries of a decoded
    node can be shared by readers and by a writer's copy of the node.
    """

    __slots__ = ("key", "oids", "overflow_page", "image")

    def __init__(
        self, key: bytes, oids=(), overflow_page: Optional[int] = None
    ) -> None:
        try:
            words = np.asarray(oids, dtype=OID_WORD)
        except OverflowError as exc:
            raise PageError(f"OID too wide for its 8-byte field: {exc}") from exc
        _encode(self, key, words.tobytes(), overflow_page)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"a LeafEntry is immutable; cannot set {name!r}")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LeafEntry):
            return NotImplemented
        return self.image == other.image  # the encoding is canonical

    def __repr__(self) -> str:
        return (
            f"LeafEntry(key={self.key!r}, oids={self.oids.tolist()}, "
            f"overflow_page={self.overflow_page})"
        )

    def _position(self, oid_int: int) -> "tuple[int, bool]":
        """Where ``oid_int`` sorts, and whether it is already there."""
        position = int(np.searchsorted(self.oids, np.uint64(oid_int)))
        present = position < len(self.oids) and int(self.oids[position]) == oid_int
        return position, present

    def _words(self) -> bytes:
        return self.image[_ENTRY_FIELDS + len(self.key) :]

    def add_oid(self, oid_int: int) -> "LeafEntry":
        """This entry with ``oid_int`` in sort order (itself if already there)."""
        position, present = self._position(oid_int)
        if present:
            return self
        words, cut = self._words(), 8 * position
        return _encode(
            _new(LeafEntry),
            self.key,
            words[:cut] + _OID.pack(oid_int) + words[cut:],
            self.overflow_page,
        )

    def remove_oid(self, oid_int: int) -> "LeafEntry":
        """This entry without ``oid_int`` (itself if it is not there)."""
        position, present = self._position(oid_int)
        if not present:
            return self
        words, cut = self._words(), 8 * position
        return _encode(
            _new(LeafEntry),
            self.key,
            words[:cut] + words[cut + 8 :],
            self.overflow_page,
        )


def _fill(
    entry: LeafEntry, key: bytes, image: bytes, count: int, overflow_page
) -> LeafEntry:
    """Bind ``entry``'s fields to its ``image``, once."""
    _assign(entry, "key", key)
    oids = np.frombuffer(image, OID_WORD, count, _ENTRY_FIELDS + len(key))
    _assign(entry, "oids", oids)
    _assign(entry, "overflow_page", overflow_page)
    _assign(entry, "image", image)
    return entry


@_page_errors
def _encode(entry: LeafEntry, key: bytes, words: bytes, overflow_page) -> LeafEntry:
    """Give ``entry`` the image of ``key`` → packed ``words``."""
    count = len(words) // 8
    image = b"".join(
        (
            _KEY_LEN.pack(len(key)),
            key,
            _POSTINGS.pack(count, _raw_link(overflow_page)),
            words,
        )
    )
    return _fill(entry, key, image, count, overflow_page)


@dataclass
class LeafNode:
    entries: List[LeafEntry] = field(default_factory=list)
    next_leaf: Optional[int] = None

    kind = LEAF_KIND

    def keys(self) -> List[bytes]:
        return [entry.key for entry in self.entries]

    def find(self, key: bytes) -> Optional[LeafEntry]:
        return self.slot(key)[1]

    def slot(self, key: bytes) -> Tuple[int, Optional[LeafEntry]]:
        """Where ``key`` sorts among the entries, and its entry if present."""
        position = self.insert_position(key)
        entries = self.entries
        if position < len(entries) and entries[position].key == key:
            return position, entries[position]
        return position, None

    def insert_position(self, key: bytes) -> int:
        """``bisect_left`` over the entries' keys (``bisect``'s own ``key=``
        needs Python 3.10; the package declares 3.9)."""
        entries = self.entries
        low, high = 0, len(entries)
        while low < high:
            mid = (low + high) // 2
            if entries[mid].key < key:
                low = mid + 1
            else:
                high = mid
        return low

    def copy(self) -> "LeafNode":
        """A writer's leaf: a new list of the same (immutable) entries."""
        return LeafNode(list(self.entries), self.next_leaf)

    @_page_errors
    def image(self) -> bytes:
        """The leaf as on its page, unpadded: header plus entry images."""
        head = _TREE_HEAD.pack(LEAF_KIND, len(self.entries), _raw_link(self.next_leaf))
        return head + b"".join([entry.image for entry in self.entries])

    def serialize_into(self, page: Page) -> None:
        install(page, self.image())

    @classmethod
    @_page_errors
    def deserialize(cls, page: Page) -> "LeafNode":
        data = page.data
        kind, count, next_raw = _TREE_HEAD.unpack_from(data, 0)
        if kind != LEAF_KIND:
            raise IndexCorruptionError("page is not a leaf node")
        entries = []
        offset = _LEAF_HEADER
        for _ in range(count):
            start = offset
            key_end = start + 2 + _KEY_LEN.unpack_from(data, start)[0]
            oid_count, overflow_raw = _POSTINGS.unpack_from(data, key_end)
            offset = key_end + 6 + 8 * oid_count
            if offset > page.page_size:
                raise PageError(
                    f"leaf entry [{start}, {offset}) runs past the page "
                    f"({page.page_size} bytes)"
                )
            # a copy: the page buffer may be a pool frame, written in place
            image = bytes(data[start:offset])
            entries.append(
                _fill(
                    _new(LeafEntry),
                    image[2 : key_end - start],
                    image,
                    oid_count,
                    _link(overflow_raw),
                )
            )
        return cls(entries=entries, next_leaf=_link(next_raw))


@dataclass
class InternalNode:
    keys: List[bytes] = field(default_factory=list)
    children: List[int] = field(default_factory=list)  # len(keys) + 1 pages

    kind = INTERNAL_KIND

    def child_for(self, key: bytes) -> int:
        """Child page to descend into for ``key``."""
        position = bisect.bisect_right(self.keys, key)
        return self.children[position]

    def insert_separator(self, key: bytes, right_child: int) -> None:
        """Install a separator produced by a child split."""
        position = bisect.bisect_left(self.keys, key)
        self.keys.insert(position, key)
        self.children.insert(position + 1, right_child)

    def copy(self) -> "InternalNode":
        """A writer's node: new key and child lists."""
        return InternalNode(list(self.keys), list(self.children))

    def serialized_size(self) -> int:
        return _INTERNAL_HEADER + sum(2 + len(k) + 4 for k in self.keys)

    @_page_errors
    def image(self) -> bytes:
        """The node as on its page, unpadded."""
        if len(self.children) != len(self.keys) + 1:
            raise IndexCorruptionError(
                f"internal node has {len(self.keys)} keys but "
                f"{len(self.children)} children"
            )
        parts = [_TREE_HEAD.pack(INTERNAL_KIND, len(self.keys), self.children[0])]
        for key, child in zip(self.keys, self.children[1:]):
            parts += (_KEY_LEN.pack(len(key)), key, _CHILD.pack(child))
        return b"".join(parts)

    def serialize_into(self, page: Page) -> None:
        install(page, self.image())

    @classmethod
    @_page_errors
    def deserialize(cls, page: Page) -> "InternalNode":
        data = page.data
        kind, count, first_child = _TREE_HEAD.unpack_from(data, 0)
        if kind != INTERNAL_KIND:
            raise IndexCorruptionError("page is not an internal node")
        keys = []
        children = [first_child]
        offset = _INTERNAL_HEADER
        for _ in range(count):
            key_at = offset + 2
            key_end = key_at + _KEY_LEN.unpack_from(data, offset)[0]
            offset = key_end + 4
            if offset > page.page_size:
                raise PageError(
                    f"internal entry [{key_at - 2}, {offset}) runs past the "
                    f"page ({page.page_size} bytes)"
                )
            keys.append(bytes(data[key_at:key_end]))
            children.append(_CHILD.unpack_from(data, key_end)[0])
        return cls(keys=keys, children=children)


@dataclass
class OverflowNode:
    """One bucket of a posting-list overflow chain."""

    oids: List[int] = field(default_factory=list)
    next_page: Optional[int] = None

    kind = OVERFLOW_KIND

    @staticmethod
    def capacity(page_size: int) -> int:
        """OIDs one overflow page holds."""
        return (page_size - _OVERFLOW_HEADER) // 8

    def copy(self) -> "OverflowNode":
        """A writer's bucket: a new OID list."""
        return OverflowNode(list(self.oids), self.next_page)

    @_page_errors
    def image(self) -> bytes:
        """The bucket as on its page, unpadded."""
        head = _OVERFLOW_HEAD.pack(
            OVERFLOW_KIND, _raw_link(self.next_page), len(self.oids)
        )
        return head + struct.pack(f"<{len(self.oids)}Q", *self.oids)

    def serialize_into(self, page: Page) -> None:
        install(page, self.image())

    @classmethod
    @_page_errors
    def deserialize(cls, page: Page) -> "OverflowNode":
        kind, next_raw, count = _OVERFLOW_HEAD.unpack_from(page.data, 0)
        if kind != OVERFLOW_KIND:
            raise IndexCorruptionError("page is not an overflow bucket")
        oids = list(struct.unpack_from(f"<{count}Q", page.data, _OVERFLOW_HEADER))
        return cls(oids=oids, next_page=_link(next_raw))


def node_kind(page: Page) -> int:
    kind = page.data[0]
    if kind not in (LEAF_KIND, INTERNAL_KIND, OVERFLOW_KIND):
        raise IndexCorruptionError(f"unknown node kind byte: {kind}")
    return kind


def deserialize_node(page: Page):
    """Dispatch on the kind byte."""
    kind = node_kind(page)
    if kind == LEAF_KIND:
        return LeafNode.deserialize(page)
    if kind == OVERFLOW_KIND:
        return OverflowNode.deserialize(page)
    return InternalNode.deserialize(page)
