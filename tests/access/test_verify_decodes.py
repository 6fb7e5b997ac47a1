"""``verify_decodes``: a cached table that differs from its pages is named and dropped.

The signature files write from what they hold decoded — the OID file's
entry table, the SSF signature matrix, the BSSF slice matrix — so a
poisoned entry would be written back as page content. Each check compares
the entry held at its file's version with a fresh decode, raises
:class:`IndexCorruptionError` naming the file and page on a mismatch, and
drops the entry so the next reader decodes afresh.
"""

from __future__ import annotations

import pytest

from repro.errors import IndexCorruptionError
from repro.objects.database import Database
from repro.objects.oid import OID
from repro.objects.schema import ClassSchema
from repro.storage.paged_file import StorageManager
from tests.access.test_writer_parity import DOMAIN, current, make, preload_set


def warm(kind: str):
    """A facility of ``kind`` on 512-byte pages, 200 entries, every cache full."""
    manager = StorageManager(page_size=512, pool_capacity=0)
    facility = make(kind, manager, oracle=False)
    for serial in range(200):
        facility.insert(preload_set(serial), OID(1, serial))
    facility.delete(preload_set(3), OID(1, 3))
    facility.search_subset(frozenset(range(DOMAIN)))
    return facility


def held(cache, name: str, version: int):
    payload = current(cache, name, version)
    assert payload is not None
    return payload


@pytest.mark.parametrize("kind", ["ssf", "bssf", "nix-chains"])
def test_fresh_decodes_pass(kind):
    warm(kind).verify_decodes()


def test_a_poisoned_oid_table():
    ssf = warm("ssf")
    oids = ssf.oid_file
    buffer, _ = held(oids._decode_cache, oids.file.name, oids.file.version)
    buffer[70] ^= 1  # 64 entries a page: page 1
    with pytest.raises(IndexCorruptionError, match=r"'ssf:oids'.* page 1 "):
        ssf.verify_decodes()
    assert oids._decode_cache.entry(oids.file.name) is None
    ssf.verify_decodes()  # nothing held: nothing to check
    assert OID(1, 70) in ssf.search_superset(preload_set(70)).candidates


def test_a_poisoned_signature_matrix():
    ssf = warm("ssf")
    name = ssf.signature_file.name
    buffer, _ = held(ssf._decode_cache, name, ssf.signature_file.version)
    buffer[150, 0] ^= 1
    page = 150 // ssf.sigs_per_page
    with pytest.raises(IndexCorruptionError, match=rf"'{name}'.* page {page} "):
        ssf.verify_decodes()
    assert ssf._decode_cache.entry(name) is None
    assert OID(1, 150) in ssf.search_superset(preload_set(150)).candidates


def test_a_poisoned_slice_matrix():
    bssf = warm("bssf")
    group = bssf._group_name
    matrix = held(bssf._decode_cache, group, bssf._storage.store.group_version(group))
    matrix[5, 0] ^= 1
    with pytest.raises(IndexCorruptionError, match=r"'bssf:slice:0005'.* page 0 "):
        bssf.verify_decodes()
    assert bssf._decode_cache.entry(group) is None
    assert OID(1, 0) in bssf.search_superset(preload_set(0)).candidates


def test_check_consistency_runs_the_checks():
    db = Database(page_size=512)
    db.define_class(ClassSchema.build("Item", items="set"))
    for serial in range(40):
        db.insert("Item", {"items": set(preload_set(serial))})
    bssf = db.create_bssf_index("Item", "items", 64, 2, lsm=False)
    db.check_consistency()  # searches fill the slice matrix
    group = bssf._group_name
    held(bssf._decode_cache, group, bssf._storage.store.group_version(group))[1, 0] ^= 1
    with pytest.raises(IndexCorruptionError, match="slice matrix"):
        db.check_consistency()
    db.check_consistency()  # dropped, decoded afresh
