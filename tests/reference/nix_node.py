"""The nested-index node codec one field at a time.

Every ``u16``/``u32`` goes through a bounds-checked ``Page.read_*`` /
``Page.write_*`` accessor. The shipped codec in
:mod:`repro.access.nix.node` packs and unpacks the page buffer directly and
must produce the same bytes and the same nodes.
"""


from repro.access.nix.node import (
    INTERNAL_KIND,
    LEAF_KIND,
    OVERFLOW_KIND,
    InternalNode,
    LeafEntry,
    LeafNode,
    OverflowNode,
)
from repro.storage.page import Page

_HEADER = 7


def serialize_into(node, page: Page) -> None:
    page.zero()
    page.write_bytes(0, bytes([node.kind]))
    if isinstance(node, LeafNode):
        page.write_u16(1, len(node.entries))
        page.write_u32(3, 0 if node.next_leaf is None else node.next_leaf + 1)
        offset = _HEADER
        for entry in node.entries:
            page.write_u16(offset, len(entry.key))
            offset += 2
            page.write_bytes(offset, entry.key)
            offset += len(entry.key)
            page.write_u16(offset, len(entry.oids))
            offset += 2
            page.write_u32(
                offset,
                0 if entry.overflow_page is None else entry.overflow_page + 1,
            )
            offset += 4
            for oid_int in entry.oids:
                page.write_u64(offset, oid_int)
                offset += 8
    elif isinstance(node, InternalNode):
        page.write_u16(1, len(node.keys))
        page.write_u32(3, node.children[0])
        offset = _HEADER
        for key, child in zip(node.keys, node.children[1:]):
            page.write_u16(offset, len(key))
            offset += 2
            page.write_bytes(offset, key)
            offset += len(key)
            page.write_u32(offset, child)
            offset += 4
    else:
        page.write_u32(1, 0 if node.next_page is None else node.next_page + 1)
        page.write_u16(5, len(node.oids))
        for slot, oid_int in enumerate(node.oids):
            page.write_u64(_HEADER + 8 * slot, oid_int)


def deserialize(page: Page):
    kind = page.read_bytes(0, 1)[0]
    if kind == LEAF_KIND:
        count = page.read_u16(1)
        next_raw = page.read_u32(3)
        node = LeafNode(next_leaf=None if next_raw == 0 else next_raw - 1)
        offset = _HEADER
        for _ in range(count):
            key_len = page.read_u16(offset)
            offset += 2
            key = page.read_bytes(offset, key_len)
            offset += key_len
            oid_count = page.read_u16(offset)
            offset += 2
            overflow_raw = page.read_u32(offset)
            offset += 4
            oids = [page.read_u64(offset + 8 * slot) for slot in range(oid_count)]
            offset += 8 * oid_count
            node.entries.append(
                LeafEntry(
                    key=key,
                    oids=oids,
                    overflow_page=None if overflow_raw == 0 else overflow_raw - 1,
                )
            )
        return node
    if kind == INTERNAL_KIND:
        count = page.read_u16(1)
        node = InternalNode(children=[page.read_u32(3)])
        offset = _HEADER
        for _ in range(count):
            key_len = page.read_u16(offset)
            offset += 2
            node.keys.append(page.read_bytes(offset, key_len))
            offset += key_len
            node.children.append(page.read_u32(offset))
            offset += 4
        return node
    assert kind == OVERFLOW_KIND
    next_raw = page.read_u32(1)
    count = page.read_u16(5)
    oids = [page.read_u64(_HEADER + 8 * slot) for slot in range(count)]
    return OverflowNode(oids=oids, next_page=None if next_raw == 0 else next_raw - 1)
