"""``verify_decodes``: a cached table that differs from its pages is named and dropped.

The facilities write from what they hold decoded — the OID file's entry
table, the SSF signature matrix, the BSSF slice matrix, the nested
index's node map — so a poisoned entry would be written back as page
content. Each check compares
the entry held at its file's version with a fresh decode, raises
:class:`IndexCorruptionError` naming the file and page on a mismatch, and
drops the entry so the next reader decodes afresh.
"""

from __future__ import annotations

import pytest

from repro.access.nix.node import LeafEntry, LeafNode
from repro.errors import IndexCorruptionError
from repro.objects.database import Database
from repro.objects.oid import OID
from repro.objects.schema import ClassSchema
from repro.storage.paged_file import StorageManager
from tests.access.test_writer_parity import DOMAIN, current, make, preload_set


def warm(kind: str):
    """A facility of ``kind`` on 512-byte pages (4096 for a NIX without
    chains, whose 200-OID list must fit a leaf), 200 entries, every cache
    full."""
    page_size = 4096 if kind == "nix" else 512
    manager = StorageManager(page_size=page_size, pool_capacity=0)
    facility = make(kind, manager, oracle=False)
    for serial in range(200):
        facility.insert(preload_set(serial), OID(1, serial))
    facility.delete(preload_set(3), OID(1, 3))
    facility.search_subset(frozenset(range(DOMAIN)))
    return facility


def held(cache, version: int):
    payload = current(cache, version)
    assert payload is not None
    return payload


@pytest.mark.parametrize("kind", ["ssf", "bssf", "nix", "nix-chains"])
def test_fresh_decodes_pass(kind):
    warm(kind).verify_decodes()


def test_a_poisoned_oid_table():
    ssf = warm("ssf")
    oids = ssf.oid_file
    buffer, _ = held(oids._decode, oids.file.version)
    buffer[70] ^= 1  # 64 entries a page: page 1
    with pytest.raises(IndexCorruptionError, match=r"'ssf:oids'.* page 1 "):
        ssf.verify_decodes()
    assert oids._decode.held() is None
    ssf.verify_decodes()  # nothing held: nothing to check
    assert OID(1, 70) in ssf.search_superset(preload_set(70)).candidates


def test_a_poisoned_signature_matrix():
    ssf = warm("ssf")
    name = ssf.signature_file.name
    buffer, _ = held(ssf._decode, ssf.signature_file.version)
    buffer[150, 0] ^= 1
    page = 150 // ssf.sigs_per_page
    with pytest.raises(IndexCorruptionError, match=rf"'{name}'.* page {page} "):
        ssf.verify_decodes()
    assert ssf._decode.held() is None
    assert OID(1, 150) in ssf.search_superset(preload_set(150)).candidates


def test_a_poisoned_slice_matrix():
    bssf = warm("bssf")
    group = bssf._group_name
    matrix = held(bssf._decode, bssf._storage.store.group_version(group))
    matrix[5, 0] ^= 1
    with pytest.raises(IndexCorruptionError, match=r"'bssf:slice:0005'.* page 0 "):
        bssf.verify_decodes()
    assert bssf._decode.held() is None
    assert OID(1, 0) in bssf.search_superset(preload_set(0)).candidates


def test_check_consistency_runs_the_checks():
    db = Database(page_size=512)
    db.define_class(ClassSchema.build("Item", items="set"))
    for serial in range(40):
        db.insert("Item", {"items": set(preload_set(serial))})
    bssf = db.create_bssf_index("Item", "items", 64, 2, lsm=False)
    db.check_consistency()  # searches fill the slice matrix
    group = bssf._group_name
    held(bssf._decode, bssf._storage.store.group_version(group))[1, 0] ^= 1
    with pytest.raises(IndexCorruptionError, match="slice matrix"):
        db.check_consistency()
    db.check_consistency()  # dropped, decoded afresh


def test_verify_indexes_runs_the_checks():
    db = Database(page_size=512)
    db.define_class(ClassSchema.build("Item", items="set"))
    for serial in range(40):
        db.insert("Item", {"items": set(preload_set(serial))})
    bssf = db.create_bssf_index("Item", "items", 64, 2, lsm=False)
    bssf.search_superset(preload_set(0))
    held(bssf._decode, bssf._storage.store.group_version(bssf._group_name))[5, 0] ^= 1
    with pytest.raises(IndexCorruptionError, match=r"slice:0005'.* page 0 "):
        db.verify_indexes()
    db.verify_indexes()  # dropped, decoded afresh


@pytest.mark.parametrize("kind", ["nix", "nix-chains"])
def test_a_poisoned_nix_node(kind):
    nix = warm(kind)
    tree = nix.tree
    nodes = held(tree._decode, tree.file.version)
    page_no, leaf = next(
        (page_no, node)
        for page_no, node in sorted(nodes.items())
        if isinstance(node, LeafNode) and node.entries
    )
    entry = leaf.entries[0]
    expected = tree.lookup(entry.key)
    flipped = entry.oids.copy()
    flipped[0] ^= 1
    leaf.entries[0] = LeafEntry(entry.key, flipped, entry.overflow_page)
    name = tree.file.name
    with pytest.raises(IndexCorruptionError, match=rf"'{name}'.* page {page_no} "):
        nix.verify_decodes()
    assert tree._decode.held() is None
    assert tree.lookup(entry.key) == expected
    nix.verify_decodes()
