"""The nested-index node codec against its field-at-a-time reference.

``repro.access.nix.node`` packs and unpacks the page buffer with
precompiled structs; ``tests/reference/nix_node.py`` is the same layout
written one bounds-checked ``Page`` accessor at a time. Same pages, same
bytes — and a page that does not hold what its counts claim is reported as
a library error, never as ``struct.error`` or a silently short key.
"""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.access.nix.node import (
    InternalNode,
    LeafEntry,
    LeafNode,
    OverflowNode,
    deserialize_node,
)
from repro.errors import IndexCorruptionError, PageError, ReproError
from repro.storage.page import Page
from tests.reference import nix_node as reference

PAGE_SIZE = 512  # above the largest node the strategies below can draw

keys = st.binary(min_size=0, max_size=12)
oid_ints = st.integers(0, 2**64 - 1)
links = st.one_of(st.none(), st.integers(0, 2**32 - 2))

leaf_nodes = st.builds(
    LeafNode,
    entries=st.lists(
        st.builds(
            LeafEntry,
            key=keys,
            oids=st.lists(oid_ints, max_size=4),
            overflow_page=links,
        ),
        max_size=6,
    ),
    next_leaf=links,
)
internal_nodes = st.lists(keys, max_size=8).flatmap(
    lambda node_keys: st.builds(
        InternalNode,
        keys=st.just(node_keys),
        children=st.lists(
            st.integers(0, 2**32 - 1),
            min_size=len(node_keys) + 1,
            max_size=len(node_keys) + 1,
        ),
    )
)
overflow_nodes = st.builds(
    OverflowNode, oids=st.lists(oid_ints, max_size=20), next_page=links
)
nodes = st.one_of(leaf_nodes, internal_nodes, overflow_nodes)


def dirty_page() -> Page:
    """Whatever the page held before must not show through the new image."""
    return Page(PAGE_SIZE, b"\xa5" * PAGE_SIZE)


class TestSameBytesSameNodes:
    @settings(max_examples=200, deadline=None)
    @given(node=nodes)
    def test_round_trip_matches_the_reference(self, node):
        shipped, expected = dirty_page(), dirty_page()
        node.serialize_into(shipped)
        reference.serialize_into(node, expected)
        assert shipped.image() == expected.image()
        assert deserialize_node(shipped) == node
        assert reference.deserialize(shipped) == node
        assert type(node).deserialize(shipped) == node

    def test_full_page_leaf(self):
        """An entry may end on the page's last byte."""
        entry = LeafEntry(key=b"k" * (PAGE_SIZE - 7 - 8 - 8), oids=[7])
        node = LeafNode(entries=[entry])
        assert len(node.image()) == PAGE_SIZE
        page = Page(PAGE_SIZE)
        node.serialize_into(page)
        assert deserialize_node(page) == node

    def test_oversized_nodes_are_refused(self):
        page = Page(PAGE_SIZE)
        with pytest.raises(IndexCorruptionError):
            LeafNode([LeafEntry(b"k" * PAGE_SIZE, [1])]).serialize_into(page)
        with pytest.raises(IndexCorruptionError):
            InternalNode([b"k" * PAGE_SIZE], [1, 2]).serialize_into(page)
        with pytest.raises(IndexCorruptionError):
            OverflowNode(list(range(PAGE_SIZE))).serialize_into(page)
        with pytest.raises(IndexCorruptionError):
            InternalNode([b"a"], [1]).serialize_into(page)

    def test_a_field_too_wide_for_its_slot_is_a_page_error(self):
        with pytest.raises(PageError):
            InternalNode([b"a"], [1, 2**32]).serialize_into(Page(PAGE_SIZE))
        with pytest.raises(PageError):
            LeafNode([LeafEntry(b"a", [2**64])]).serialize_into(Page(PAGE_SIZE))


class TestDamagedPages:
    """Flip counts and lengths on a good image: decoding must notice."""

    @staticmethod
    def leaf_page() -> Page:
        page = Page(PAGE_SIZE)
        LeafNode(
            [LeafEntry(b"alpha", [1, 2, 3]), LeafEntry(b"beta", [4], 9)], next_leaf=5
        ).serialize_into(page)
        return page

    @staticmethod
    def internal_page() -> Page:
        page = Page(PAGE_SIZE)
        InternalNode([b"m", b"t"], [1, 2, 3]).serialize_into(page)
        return page

    def test_entry_count_beyond_the_page(self):
        for page in (self.leaf_page(), self.internal_page()):
            page.write_u16(1, 0xFFFF)
            with pytest.raises(PageError):
                deserialize_node(page)

    def test_key_length_beyond_the_page(self):
        for page in (self.leaf_page(), self.internal_page()):
            page.write_u16(7, PAGE_SIZE)  # first entry's key_len
            with pytest.raises(PageError):
                deserialize_node(page)

    def test_key_running_to_the_last_byte_leaves_no_room_for_the_rest(self):
        """The slice ``data[a:b]`` would come back short without a check."""
        for page in (self.leaf_page(), self.internal_page()):
            page.write_u16(7, PAGE_SIZE - 9)
            with pytest.raises(PageError):
                deserialize_node(page)

    def test_oid_count_beyond_the_page(self):
        page = self.leaf_page()
        page.write_u16(7 + 2 + 5, 0xFFFF)  # first entry's oid_count
        with pytest.raises(PageError):
            deserialize_node(page)
        page = Page(PAGE_SIZE)
        OverflowNode([1, 2]).serialize_into(page)
        page.write_u16(5, 0xFFFF)
        with pytest.raises(PageError):
            deserialize_node(page)

    def test_wrong_kind(self):
        page = self.leaf_page()
        with pytest.raises(IndexCorruptionError):
            InternalNode.deserialize(page)
        with pytest.raises(IndexCorruptionError):
            OverflowNode.deserialize(page)
        with pytest.raises(IndexCorruptionError):
            LeafNode.deserialize(self.internal_page())
        page.data[0] = 7
        with pytest.raises(IndexCorruptionError):
            deserialize_node(page)

    @settings(max_examples=300, deadline=None)
    @given(
        node=nodes,
        damage=st.lists(
            st.tuples(st.integers(0, PAGE_SIZE - 1), st.integers(0, 255)),
            min_size=1,
            max_size=4,
        ),
    )
    def test_random_damage_decodes_or_raises_a_library_error(self, node, damage):
        page = Page(PAGE_SIZE)
        node.serialize_into(page)
        for offset, byte in damage:
            page.data[offset] = byte
        try:
            decoded = deserialize_node(page)
        except ReproError:
            return
        except struct.error:  # pragma: no cover - the regression
            pytest.fail("struct.error escaped the node codec")
        # Whatever still decodes lies inside the page: it re-encodes.
        assert len(decoded.image()) <= PAGE_SIZE
        # ...and the reference reads the same node from the same bytes
        assert reference.deserialize(page) == decoded


def test_a_node_costs_a_constant_number_of_page_accessor_calls(page_accessor_calls):
    """Not one per field: a 30-entry leaf is one buffer write and no reads."""
    node = LeafNode([LeafEntry(bytes([i]), [i, i + 1]) for i in range(30)])
    calls = page_accessor_calls
    page = Page(4096)
    node.serialize_into(page)
    assert deserialize_node(page) == node
    assert len(calls) <= 2
    del calls[:]
    reference.serialize_into(node, page)
    reference.deserialize(page)
    assert len(calls) > 4 * 30  # what the guard is counting
