"""The nested index's decoded-node map against a tree that remembers nothing.

``BPlusTree`` keeps one ``{page_no: node}`` map under the file's version:
readers take nodes from it and charge the page read, writers copy the
shared node, charge the fetch it stands for and, once their last page
write has landed, replace in the map exactly the pages they wrote. ``tests/reference/nix_tree.py`` is the same
tree fetching and decoding every page it touches, and the searches as
loops over Python sets. After every step of a random history the two must
agree on answers, on every logical, physical and pool counter and on the
page files; every node in the map must equal what a newly attached tree
decodes from its page; and nothing may have started a new map.
"""

from __future__ import annotations

import random
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.access.nix.btree import BPlusTree
from repro.access.nix.nested_index import NestedIndex
from repro.access.nix.node import InternalNode, LeafNode
from repro.errors import AccessFacilityError
from repro.objects.database import Database
from repro.objects.oid import OID
from repro.objects.schema import ClassSchema
from repro.obs.metrics import REGISTRY
from repro.storage.paged_file import StorageManager
from tests.access.test_kernel_parity import page_images
from tests.reference import ReferenceBPlusTree, ReferenceNestedIndex, nix_node

TINY_PAGE = 128  # a leaf holds a handful of entries: splits come quickly
KEYS = [bytes([65 + i % 26]) * (1 + i % 3) + bytes([97 + i // 26]) for i in range(40)]


def metered(manager, op):
    """``op()``'s result (or library error) with the I/O and pool deltas."""
    before_pool = (manager.pool.hits, manager.pool.misses)
    before = manager.snapshot()
    try:
        result = op()
    except AccessFacilityError as exc:
        result = ("raised", str(exc))
    delta = manager.snapshot() - before
    pool = (manager.pool.hits - before_pool[0], manager.pool.misses - before_pool[1])
    return result, delta, pool, list(manager.pool._frames)


def cached_nodes(tree: BPlusTree) -> dict:
    """The node map, which must be keyed at the file's current version.

    Only so without a buffer pool: with one, a read that evicts a dirty
    frame writes it back, the store counts that as a change to the file,
    and the map is (needlessly but safely) left behind or dropped.
    """
    version, nodes = tree._decode.held() or (None, {})
    if tree.file._pool.capacity:
        return nodes if version == tree.file.version else {}
    assert version == tree.file.version
    return nodes


def assert_map_is_a_fresh_decode(tree: BPlusTree, manager) -> None:
    """Every cached node is what its page decodes to, three ways.

    ``manager`` holds the tree's pages (its own, or the twin's identical
    ones). They are copied out without accounting and a new tree is
    attached to the copy, so neither pool notices the check.
    """
    name = tree.file.name
    copy = StorageManager(page_size=manager.page_size, pool_capacity=0)
    copy.create_file(name)
    copy.store.adopt_pages(name, page_images(manager)[name])
    fresh = BPlusTree(copy.open_file(name), overflow_chains=tree.overflow_chains)
    assert fresh.height == tree.height
    nodes = cached_nodes(tree)
    assert nodes or tree.file._pool.capacity  # the step before read something
    for page_no, node in nodes.items():
        assert node == fresh._load(page_no)
        assert node == nix_node.deserialize(tree.file.peek_page(page_no))
        assert type(node) is type(fresh._load(page_no))


tree_steps = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), st.integers(0, 39), st.integers(0, 39)),
        st.tuples(st.just("insert"), st.integers(0, 2), st.integers(0, 39)),  # long lists
        st.tuples(st.just("delete"), st.integers(0, 39), st.integers(0, 39)),
        st.tuples(st.just("lookup"), st.integers(0, 39), st.just(0)),
        st.tuples(st.just("range"), st.integers(0, 39), st.integers(0, 39)),
        st.tuples(st.just("iterate"), st.just(0), st.just(0)),
    ),
    max_size=40,
)


def tree_op(step, key_no, argument):
    key = KEYS[key_no]
    if step == "insert":
        return lambda tree: tree.insert(key, OID(1, argument))
    if step == "delete":
        return lambda tree: tree.delete(key, OID(1, argument))
    if step == "lookup":
        return lambda tree: tree.lookup(key)
    if step == "range":
        low, high = sorted((key, KEYS[argument]))
        return lambda tree: list(tree.range_lookup(low, high))
    return lambda tree: list(tree.iterate_entries())


class TestNodeMapFollowsWrites:
    @staticmethod
    def twins(chains: bool, pool_capacity: int):
        fast_mgr = StorageManager(page_size=TINY_PAGE, pool_capacity=pool_capacity)
        twin_mgr = StorageManager(page_size=TINY_PAGE, pool_capacity=pool_capacity)
        fast = BPlusTree(fast_mgr.create_file("t"), overflow_chains=chains)
        oracle = ReferenceBPlusTree(twin_mgr.create_file("t"), overflow_chains=chains)
        assert fast.decode_cache_stats()["misses"] == 1  # the constructor's map
        return (fast, fast_mgr), (oracle, twin_mgr)

    @staticmethod
    def check_step(fast_pair, oracle_pair, op):
        (fast, fast_mgr), (oracle, twin_mgr) = fast_pair, oracle_pair
        want = metered(twin_mgr, lambda: op(oracle))
        got = metered(fast_mgr, lambda: op(fast))
        assert got == want
        assert page_images(fast_mgr) == page_images(twin_mgr)
        assert fast.height == oracle.height
        assert_map_is_a_fresh_decode(fast, twin_mgr)
        if not fast_mgr.pool.capacity:
            assert fast.decode_cache_stats()["misses"] == 1

    @pytest.mark.parametrize("pool_capacity", [0, 3], ids=["uncached", "pool3"])
    @pytest.mark.parametrize("chains", [False, True], ids=["inline", "chains"])
    @settings(max_examples=20, deadline=None)
    @given(steps=tree_steps, grown=st.booleans())
    def test_after_every_step(self, chains, pool_capacity, steps, grown):
        fast_pair, oracle_pair = self.twins(chains, pool_capacity)
        fast = fast_pair[0]
        if grown:  # start three levels deep
            for tree in (fast, oracle_pair[0]):
                for i in range(200):
                    tree.insert(KEYS[i % 40], OID(1, i // 40))
            assert fast.height == 2
        for step, key_no, argument in steps:
            self.check_step(fast_pair, oracle_pair, tree_op(step, key_no, argument))
        fast.verify()

    @pytest.mark.parametrize("chains", [False, True], ids=["inline", "chains"])
    def test_splits_at_every_level(self, chains):
        """From one empty leaf to three levels, checked after every insert:
        leaf splits, the root splitting as a leaf and as an internal node,
        and (with chains) lists spilling into overflow buckets."""
        fast_pair, oracle_pair = self.twins(chains, 0)
        fast = fast_pair[0]
        heights = set()
        for i in range(240):
            key, oid = KEYS[i % 40], OID(1, i // 40)
            self.check_step(fast_pair, oracle_pair, lambda tree: tree.insert(key, oid))
            heights.add(fast.height)
        if chains:
            for serial in range(10, 40):
                oid = OID(1, serial)
                self.check_step(
                    fast_pair, oracle_pair, lambda tree: tree.insert(KEYS[0], oid)
                )
            assert fast.page_census()["overflow"] >= 1
        assert heights == {0, 1, 2}
        kinds = {type(node) for node in cached_nodes(fast).values()}
        assert kinds >= {InternalNode, LeafNode}
        fast.verify()

    def test_a_refused_insert_leaves_the_map_alone(self):
        """Without chains a list that outgrows its page raises before any
        write: the writer's own leaf is discarded, the shared one intact."""
        manager = StorageManager(page_size=TINY_PAGE, pool_capacity=0)
        tree = BPlusTree(manager.create_file("t"))
        serial = 0
        with pytest.raises(AccessFacilityError):
            for serial in range(40):
                tree.insert(b"k", OID(1, serial))
        assert tree.lookup(b"k") == [OID(1, i) for i in range(serial)]
        assert_map_is_a_fresh_decode(tree, manager)
        assert tree.decode_cache_stats()["misses"] == 1

    def test_patches_are_counted_and_a_foreign_write_drops_the_map(self):
        manager = StorageManager(page_size=TINY_PAGE, pool_capacity=0)
        tree = BPlusTree(manager.create_file("t"))
        patches = REGISTRY.counter("storage.decode_cache.patches")
        drops = REGISTRY.counter("storage.decode_cache.drops")
        before = (patches.value, drops.value)
        tree.insert(b"a", OID(1, 1))
        tree.insert(b"a", OID(1, 1))  # already there: nothing written, no patch
        tree.delete(b"a", OID(1, 2))  # not there: likewise
        assert (patches.value, drops.value) == (before[0] + 1, before[1])
        # A write the tree did not make (raw corruption of its page) leaves
        # the map at a version the file has left: the next reader starts a
        # new map and meets the damage; the next writer would drop it.
        store = manager.store
        store._apply_corruption("t", 0, store.page_image("t", 0))
        misses = tree.decode_cache_stats()["misses"]
        assert tree.lookup(b"a") == [OID(1, 1)]
        assert tree.decode_cache_stats()["misses"] == misses + 1

    @pytest.mark.parametrize("chains", [False, True])
    def test_bulk_load_carries_the_map_and_lets_its_nodes_go(self, chains):
        manager = StorageManager(page_size=TINY_PAGE, pool_capacity=0)
        tree = BPlusTree(manager.create_file("t"), overflow_chains=chains)
        postings = list(range(1, 4 + 20 * chains))  # chained when allowed
        tree.bulk_load([(key, postings) for key in sorted(set(KEYS))])
        assert tree._written == {}
        # every node the load stored is in the map: reading decodes nothing
        assert set(cached_nodes(tree)) == set(range(tree.num_pages))
        assert tree.lookup(KEYS[0]) == [OID.from_int(v) for v in postings]
        assert tree.decode_cache_stats()["misses"] == 1
        assert_map_is_a_fresh_decode(tree, manager)

    def test_a_second_tree_on_the_file_sees_the_first_ones_writes(self):
        manager = StorageManager(page_size=TINY_PAGE, pool_capacity=0)
        writer = BPlusTree(manager.create_file("t"))
        reader = BPlusTree(manager.open_file("t"))
        for serial in range(30):  # through a root split the reader never made
            writer.insert(KEYS[serial % 14], OID(1, serial))
            assert reader.lookup(KEYS[serial % 14]) == writer.lookup(KEYS[serial % 14])
        assert writer.height > reader.height == 0
        reader.insert(KEYS[0], OID(1, 99))  # descends by node kind, not by its height
        assert OID(1, 99) in writer.lookup(KEYS[0])
        writer.verify()


search_steps = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), st.frozensets(st.integers(0, 11), max_size=4)),
        st.tuples(st.just("delete"), st.integers(0, 10**6)),
        st.tuples(st.just("search_superset"), st.frozensets(st.integers(0, 11), max_size=3)),
        st.tuples(st.just("search_subset"), st.frozensets(st.integers(0, 11), max_size=8)),
        st.tuples(st.just("search_overlap"), st.frozensets(st.integers(0, 11), max_size=4)),
    ),
    max_size=30,
)


class TestPackedPostingSearches:
    """Union and intersection over packed words, against sets of OIDs."""

    @pytest.mark.parametrize("chains", [False, True], ids=["inline", "chains"])
    @settings(max_examples=30, deadline=None)
    @given(steps=search_steps, use_elements=st.sampled_from([None, 1, 2]))
    def test_same_candidates_details_and_charges(self, chains, steps, use_elements):
        fast_mgr = StorageManager(page_size=TINY_PAGE, pool_capacity=0)
        twin_mgr = StorageManager(page_size=TINY_PAGE, pool_capacity=0)
        fast = NestedIndex(fast_mgr, overflow_chains=chains)
        oracle = ReferenceNestedIndex(twin_mgr, overflow_chains=chains)
        preload = [
            frozenset({i % 12, (i * 5) % 12, (i * 7) % 12}) if i % 9 else frozenset()
            for i in range(30)
        ]
        live = {OID(1, i): elements for i, elements in enumerate(preload)}
        for facility in (fast, oracle):
            facility.bulk_load([(elements, oid) for oid, elements in live.items()])
        next_serial = len(preload)
        for step, argument in steps:
            if step == "insert":
                oid = OID(1, next_serial)
                next_serial += 1
                live[oid] = argument
                op = lambda facility: facility.insert(argument, oid)
            elif step == "delete":
                if not live:
                    continue
                oid = sorted(live)[argument % len(live)]
                elements = live.pop(oid)
                op = lambda facility: facility.delete(elements, oid)
            elif step == "search_superset" and argument:
                op = lambda facility: facility.search_superset(
                    argument, use_elements=use_elements
                )
            else:
                op = lambda facility: getattr(facility, step)(argument)
            want = metered(twin_mgr, lambda: op(oracle))
            got = metered(fast_mgr, lambda: op(fast))
            assert got[1:] == want[1:]
            if isinstance(want[0], tuple):
                # Both facilities refused the step (an inline posting that
                # outgrows its page) with the same error.
                assert got[0] == want[0]
            elif want[0] is not None:
                assert got[0].candidates == want[0].candidates
                assert (got[0].detail, got[0].exact) == (want[0].detail, want[0].exact)
                assert all(type(oid) is OID for oid in got[0].candidates)
            assert page_images(fast_mgr) == page_images(twin_mgr)
        everything = fast.search_subset(frozenset(range(12))).candidates
        assert everything == sorted(live)


def students(count: int = 400) -> Database:
    """A database whose NIX is two levels deep (small pages), warmed."""
    db = Database(page_size=512, pool_capacity=0)
    db.define_class(ClassSchema.build("Item", items="set"))
    rng = random.Random(3)
    for _ in range(count):
        db.insert("Item", {"items": set(rng.sample(range(120), 6))})
    db.create_nested_index("Item", "items")
    return db


class TestCountingGuards:
    def test_a_warm_subset_search_decodes_no_node(self, node_decodes):
        db = students()
        nix = db.index("Item", "items", "nix")
        assert nix.height >= 1
        query = frozenset(range(0, 120, 4))  # Dq = 30
        cold = nix.search_subset(query)
        assert node_decodes  # what the guard is counting
        del node_decodes[:]
        warm = nix.search_subset(query)
        assert node_decodes == []
        assert warm.candidates == cold.candidates and len(warm.candidates) > 100

    def test_a_warm_update_decodes_no_internal_node(self, node_decodes):
        db = students()
        nix = db.index("Item", "items", "nix")
        for element in range(120):  # every leaf and internal node is in the map
            nix.lookup_element(element)
        oid = next(iter(db.scan("Item")))[0]
        old = db.get(oid)["items"]
        new = {(element + 1) % 120 for element in old}
        del node_decodes[:]
        db.update(oid, {"items": new})
        changed = len(old - new) + len(new - old)
        # Writers copy the shared leaf: no internal node, and no leaf either.
        assert changed and node_decodes == []
        assert nix.search_superset(frozenset(sorted(new)[:2])).candidates.count(oid) == 1
        assert node_decodes == []  # the written leaves were carried, not dropped


def test_two_readers_fill_a_cold_map_into_one_consistent_map():
    db = students()
    nix = db.index("Item", "items", "nix")
    tree = nix.tree
    expected = {element: nix.lookup_element(element) for element in range(120)}
    tree._decode.drop()  # cold again, same file version
    failures = []
    start = threading.Barrier(2)

    def reader(elements):
        try:
            start.wait(timeout=10)
            for element in elements:
                if nix.lookup_element(element) != expected[element]:
                    failures.append(element)
        except Exception as exc:  # surfaced below
            failures.append(exc)

    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [
            threading.Thread(target=reader, args=(list(range(120)),)),
            threading.Thread(target=reader, args=(list(range(119, -1, -1)),)),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(old_interval)
    assert failures == []
    # One map survives, at the file's version, and it is a fresh decode.
    assert_map_is_a_fresh_decode(tree, db.storage)
    for element in range(120):
        assert nix.lookup_element(element) == expected[element]
    assert tree._decode.held() is not None
