"""Faults in the middle of a leaf split, with the nested index's node map warm.

The tree carries its decoded-node map across an insert only after the
insert's last page write has landed, and the file version stays the only
validity test. So a crash after ``k`` of a split's page writes must leave
the map keyed at a version the file has left (the next lookup decodes what
is really on the pages, whatever state the split reached), and a transient
fault the pool retries must not be noticed at all. Either way every lookup
answers exactly what ``tests/reference/nix_tree.py`` — a tree that fetches
and decodes each page it touches — reads from the same file.
"""

from __future__ import annotations

import pytest

from repro.access.nix.btree import BPlusTree
from repro.errors import SimulatedCrashError, TransientIOError
from repro.objects.oid import OID
from repro.obs.metrics import REGISTRY
from repro.storage import FaultRule
from repro.storage.paged_file import StorageManager
from tests.reference import ReferenceBPlusTree

KEYS = [bytes([65 + i]) * 2 for i in range(12)]
NEW = (KEYS[5], OID(1, 99))
#: the right half's page append and its image, the left half, the parent
SPLIT_WRITES = 4


def warm_tree():
    """A two-level tree whose next insert of ``NEW`` splits a leaf; every
    node is in the map."""
    manager = StorageManager(page_size=128, pool_capacity=0)
    tree = BPlusTree(manager.create_file("t"))
    history = ((key, OID(1, serial)) for serial in range(12) for key in KEYS)
    for key, oid in history:
        tree.insert(key, oid)
        if tree.height == 1 and split_writes(manager, tree) == SPLIT_WRITES:
            break
    for key in KEYS:
        tree.lookup(key)
    return tree, manager


def split_writes(manager, tree) -> int:
    """Device writes ``insert(*NEW)`` would make: counted on a copy."""
    copy = StorageManager(page_size=manager.page_size, pool_capacity=0)
    copy.create_file("t")
    images = [
        bytes(tree.file.peek_page(page_no).data)
        for page_no in range(tree.file.num_pages)
    ]
    copy.store.adopt_pages("t", images)
    injector = copy.attach_fault_injector(
        rules=[FaultRule("write", "crash", file="t", at_call=10**9)]
    )
    BPlusTree(copy.open_file("t")).insert(*NEW)
    return injector.rule_calls(0)


def lookups(tree):
    return [tree.lookup(key) for key in KEYS] + [list(tree.iterate_entries())]


def oracle_over(manager):
    """The remembering-nothing tree attached to the very file ``tree`` wrote."""
    return ReferenceBPlusTree(manager.open_file("t"))


def test_the_insert_under_test_is_a_split():
    tree, manager = warm_tree()
    pages = tree.file.num_pages
    assert split_writes(manager, tree) == SPLIT_WRITES
    tree.insert(*NEW)
    assert tree.file.num_pages == pages + 1
    assert NEW[1] in tree.lookup(NEW[0])


@pytest.mark.parametrize("k", range(SPLIT_WRITES))
def test_crash_after_k_writes_of_the_split(k):
    tree, manager = warm_tree()
    misses = tree.decode_cache_stats()["misses"]
    manager.attach_fault_injector(
        rules=[FaultRule("write", "crash", file="t", at_call=k + 1)]
    )
    with pytest.raises(SimulatedCrashError):
        tree.insert(*NEW)
    manager.detach_fault_injector()
    assert tree._written == {}  # the k nodes it stored are let go
    observed = lookups(tree)
    assert tree.decode_cache_stats()["misses"] == misses + 1  # decoded afresh
    assert observed == lookups(oracle_over(manager))
    # and the tree it decoded is the one a restart would find
    assert observed == lookups(BPlusTree(manager.open_file("t")))


@pytest.mark.parametrize("k", range(SPLIT_WRITES))
def test_retried_transient_fault_after_k_writes_of_the_split(k):
    tree, manager = warm_tree()
    misses = tree.decode_cache_stats()["misses"]
    manager.attach_fault_injector(
        rules=[FaultRule("write", "transient", file="t", at_call=k + 1, count=2)]
    )
    tree.insert(*NEW)  # the pool's third attempt lands
    manager.detach_fault_injector()
    assert REGISTRY.counter("storage.retries").value == 2
    observed = lookups(tree)
    assert tree.decode_cache_stats()["misses"] == misses  # carried across the split
    assert observed == lookups(oracle_over(manager))
    assert NEW[1] in observed[KEYS.index(NEW[0])]
    tree.verify()


@pytest.mark.parametrize("k", range(SPLIT_WRITES))
def test_exhausted_retries_fall_back_to_a_fresh_decode(k):
    """Same as the crash, but the process lives on and keeps the tree."""
    tree, manager = warm_tree()
    misses = tree.decode_cache_stats()["misses"]
    manager.attach_fault_injector(
        rules=[FaultRule("write", "transient", file="t", at_call=k + 1, count=3)]
    )
    with pytest.raises(TransientIOError):
        tree.insert(*NEW)
    manager.detach_fault_injector()
    assert tree._written == {}  # the k nodes it stored are let go
    observed = lookups(tree)
    assert tree.decode_cache_stats()["misses"] == misses + 1
    assert observed == lookups(oracle_over(manager))
    # The tree still takes writes, and carries the new map across them.
    tree.insert(KEYS[0], OID(1, 500))
    assert OID(1, 500) in tree.lookup(KEYS[0])
    assert tree.decode_cache_stats()["misses"] == misses + 1
    assert lookups(tree) == lookups(oracle_over(manager))


class TestEveryOtherWayThePagesChange:
    """Corruption, a rebuild and a snapshot reload, each with the map warm:
    all end in nodes decoded from the pages as they now are."""

    @staticmethod
    def warm_db():
        from tests.faults.conftest import QUERY_SETS, build_indexed_db, superset_results

        db = build_indexed_db()
        for query_set in QUERY_SETS:
            superset_results(db, query_set, "nix")
        tree = db.index("Student", "hobbies", "nix").tree
        assert tree._decode.held()[1]  # nodes are in the map
        return db, tree

    def test_a_corrupted_page_is_met_by_the_next_lookup(self):
        from tests.faults.conftest import (
            QUERY_SETS,
            corrupt_page,
            scan_ground_truth,
            superset_results,
        )

        db, tree = self.warm_db()
        corrupt_page(db, tree.file.name, tree.root_page)
        oids, stats = superset_results(db, QUERY_SETS[0], "nix")
        assert "degraded" in stats.detail  # not answered from the stale map
        assert oids == scan_ground_truth(db, QUERY_SETS[0])
        rebuilt = db.rebuild_facility("Student", "hobbies", "nix")
        assert rebuilt.tree is not tree
        oids, stats = superset_results(db, QUERY_SETS[0], "nix")
        assert "degraded" not in stats.detail
        assert oids == scan_ground_truth(db, QUERY_SETS[0])
        rebuilt.verify()

    def test_a_reloaded_snapshot_decodes_its_own_nodes(self, tmp_path, node_decodes):
        from repro.persistence.snapshot import load_database, save_database
        from tests.faults.conftest import QUERY_SETS, superset_results

        db, _ = self.warm_db()
        expected = superset_results(db, QUERY_SETS[0], "nix")[0]
        path = str(tmp_path / "warm.sigdb")
        save_database(db, path)
        del node_decodes[:]
        reloaded = load_database(path)
        assert superset_results(reloaded, QUERY_SETS[0], "nix")[0] == expected
        assert node_decodes  # nothing came across with the snapshot
        tree = reloaded.index("Student", "hobbies", "nix").tree
        assert tree.decode_cache_stats()["misses"] == 1
