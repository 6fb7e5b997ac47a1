"""Facility writes that rebuild pages from decodes, against oracles that fetch them.

A shipped write takes the read half of each rewrite from what is already
decoded: the nested index copies the shared node from its node map, a
BSSF insert images its slice pages from the stacked slice matrix, and the
OID file images its page from the decoded word table — charging each read
as the fetch it stands for (``PagedFile.charge_fetch``). The oracles in
``tests/reference/`` fetch every page they rewrite. Random histories on
twin ``StorageManager``s must leave the same page images, the same I/O
deltas and the same buffer-pool hits, misses and LRU order after every
step, with or without a pool, cold or warm, on small and large pages;
every payload a cache still holds at its file's version must equal a fresh
decode, and pass the facility's own ``verify_decodes``; and what a fetch
would have caught — a torn page — is still caught.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.access.bssf import BitSlicedSignatureFile
from repro.access.nix.btree import BPlusTree
from repro.access.nix.nested_index import NestedIndex
from repro.access.nix.node import InternalNode, LeafEntry, LeafNode
from repro.access.ssf import SequentialSignatureFile
from repro.core.signature import SignatureScheme
from repro.errors import AccessFacilityError, CorruptPageError, SimulatedCrashError
from repro.objects.database import Database
from repro.objects.oid import OID
from repro.objects.schema import ClassSchema
from repro.storage.faults import FaultRule
from repro.storage.paged_file import StorageManager
from tests.access.test_kernel_parity import page_images
from tests.reference import (
    ReferenceBSSF,
    ReferenceNestedIndex,
    ReferenceSSF,
    nix_node,
)

DOMAIN = 40
KINDS = ["nix", "nix-chains", "bssf", "ssf"]
# 512-byte pages split leaves and the root; 64-byte ones fill OID pages
# (eight entries) and SSF pages, too small for a tree node
HISTORIES = [(kind, size) for kind in KINDS for size in (512, 4096)] + [
    ("bssf", 64),
    ("ssf", 64),
]


def scheme() -> SignatureScheme:
    return SignatureScheme(64, 2, seed=7)


def make(kind: str, manager: StorageManager, oracle: bool):
    """The shipped facility of ``kind`` (or its oracle) on ``manager``."""
    if kind.startswith("nix"):
        cls = ReferenceNestedIndex if oracle else NestedIndex
        return cls(manager, overflow_chains=kind == "nix-chains")
    if kind == "bssf":
        return (ReferenceBSSF if oracle else BitSlicedSignatureFile)(manager, scheme())
    return (ReferenceSSF if oracle else SequentialSignatureFile)(manager, scheme())


def caches(facility) -> list:
    """Every decode slot the facility keeps."""
    if isinstance(facility, NestedIndex):
        return [facility.tree._decode]
    return [facility._decode, facility.oid_file._decode]


def forget(facility) -> None:
    for cache in caches(facility):
        cache.drop()


def preload_set(serial: int) -> frozenset:
    """Element 0 is in every preloaded set: one long list, chained at 512."""
    return frozenset({0, serial % DOMAIN, (serial * 7) % DOMAIN, (serial * 13) % DOMAIN})


def summary(result):
    if result is None or isinstance(result, tuple):
        return result
    return sorted(result.candidates), result.exact, result.detail


def metered(manager, op):
    """``op()``'s outcome with its I/O delta, pool delta and LRU order."""
    pool = manager.pool
    before_pool = (pool.hits, pool.misses)
    before = manager.snapshot()
    try:
        result = summary(op())
    except AccessFacilityError as exc:
        result = ("raised", str(exc))
    delta = manager.snapshot() - before
    return (
        result,
        delta,
        (pool.hits - before_pool[0], pool.misses - before_pool[1]),
        list(pool._frames),
    )


def copy_of(manager) -> StorageManager:
    """The manager's page files, copied without accounting."""
    copy = StorageManager(page_size=manager.page_size, pool_capacity=0)
    for name, images in page_images(manager).items():
        copy.create_file(name)
        copy.store.adopt_pages(name, images)
    return copy


def current(cache, version: int):
    """The payload the decode slot ``cache`` holds at ``version``, else None."""
    entry = cache.held()
    return entry[1] if entry is not None and entry[0] == version else None


def assert_caches_are_fresh(fast, manager) -> None:
    """What a cache still holds at its file's version is a fresh decode."""
    copy = copy_of(manager)
    if isinstance(fast, NestedIndex):
        tree = fast.tree
        nodes = current(tree._decode, tree.file.version) or {}
        fresh = BPlusTree(copy.open_file(tree.file.name), tree.overflow_chains)
        for page_no, node in nodes.items():
            assert node == fresh._load(page_no)
            assert node == nix_node.deserialize(tree.file.peek_page(page_no))
        return
    fresh = type(fast).attach(
        copy, fast.scheme, file_prefix=fast.name, entry_count=fast.entry_count
    )
    if isinstance(fast, BitSlicedSignatureFile):
        group = fast._group_name
        matrix = current(fast._decode, manager.store.group_version(group))
        if matrix is not None:
            assert np.array_equal(matrix, fresh._stacked_slices())
    else:
        decoded = current(fast._decode, fast.signature_file.version)
        if decoded is not None:
            buffer, rows = decoded
            assert np.array_equal(buffer[:rows], fresh._signature_matrix())
    oids = fast.oid_file
    decoded = current(oids._decode, oids.file.version)
    if decoded is not None:
        # the whole word buffer mirrors the pages, not only its rows
        buffer, rows = decoded
        fresh_buffer, fresh_rows = fresh.oid_file._decoded()
        assert rows == fresh_rows
        assert np.array_equal(buffer[: len(fresh_buffer)], fresh_buffer)
        assert not buffer[len(fresh_buffer) :].any()


element_sets = st.frozensets(st.integers(0, DOMAIN - 1), max_size=6)
history = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), element_sets),
        st.tuples(st.just("update"), st.integers(0, 10**6), element_sets),
        st.tuples(st.just("same"), st.integers(0, 10**6)),  # to an equal set
        st.tuples(st.just("delete"), st.integers(0, 10**6)),
        st.tuples(st.just("search"), element_sets),
        st.tuples(st.just("forget")),
    ),
    max_size=20,
)


class TestRandomHistories:
    @pytest.mark.parametrize("pool_capacity", [0, 2], ids=["uncached", "pool2"])
    @pytest.mark.parametrize("kind,page_size", HISTORIES)
    @settings(max_examples=15, deadline=None)
    @given(steps=history, warm=st.booleans())
    def test_same_pages_charges_and_pool(
        self, kind, pool_capacity, page_size, steps, warm
    ):
        managers = [
            StorageManager(page_size=page_size, pool_capacity=pool_capacity)
            for _ in range(2)
        ]
        fast, oracle = (
            make(kind, manager, oracle=side) for side, manager in enumerate(managers)
        )
        twins = ((fast, managers[0]), (oracle, managers[1]))
        live = {OID(1, serial): preload_set(serial) for serial in range(24)}
        for facility, _ in twins:
            for oid, elements in live.items():
                facility.insert(elements, oid)
            if warm:
                facility.search_subset(frozenset(range(DOMAIN)))
        serial = len(live)
        for step in steps:
            if step[0] == "forget":
                forget(fast)
                continue
            if step[0] == "insert":
                oid, new = OID(1, serial), step[1]
                serial += 1
                live[oid] = new
                op = lambda facility: facility.insert(new, oid)
            elif step[0] == "search":
                query = step[1]
                op = (
                    (lambda facility: facility.search_superset(query))
                    if query
                    else (lambda facility: facility.search_subset(frozenset({1, 2})))
                )
            else:
                if not live:
                    continue
                oid = sorted(live)[step[1] % len(live)]
                old = live[oid]
                if step[0] == "delete":
                    del live[oid]
                    op = lambda facility: facility.delete(old, oid)
                else:
                    new = old if step[0] == "same" else step[2]
                    live[oid] = new

                    def op(facility):
                        facility.delete(old, oid)
                        facility.insert(new, oid)

            want = metered(managers[1], lambda: op(oracle))
            got = metered(managers[0], lambda: op(fast))
            assert got == want
            assert page_images(managers[0]) == page_images(managers[1])
        assert_caches_are_fresh(fast, managers[0])
        fast.verify_decodes()  # the engine's own check agrees


batch = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), element_sets),
        st.tuples(st.just("update"), st.integers(0, 10**6), element_sets),
        st.tuples(st.just("delete"), st.integers(0, 10**6)),
    ),
    min_size=1,
    max_size=30,
)


def batch_charges(fast, before_words, start, ops, pages_before):
    """``{file: (logical reads, logical writes)}`` the batch charging rule
    gives ``ops`` on ``fast``: each page of a file the batch reads fetched
    once, each changed page written once (a page it opens appended once
    more), and the OID delete scan charged once, up to the furthest
    tombstone."""
    oids = fast.oid_file
    after = oids._entry_words()
    tombstoned = [
        index
        for index, word in enumerate(after.tolist())
        if word == 2**64 - 1 and (index >= start or before_words[index] != word)
    ]
    changed = {index // oids.entries_per_page for index in tombstoned}
    changed |= {index // oids.entries_per_page for index in range(start, len(after))}
    existing = pages_before[oids.file.name]
    scanned = max(tombstoned) // oids.entries_per_page + 1 if tombstoned else 0
    fetched = set(range(min(scanned, existing))) | {p for p in changed if p < existing}
    opened = {p for p in changed if p >= existing}
    charges = {oids.file.name: (len(fetched), len(changed) + len(opened))}
    inserts = [elements for op, elements, _ in ops if op == "insert"]
    if isinstance(fast, BitSlicedSignatureFile):
        per_page = fast.entries_per_slice_page
        for position, slice_file in enumerate(fast._slice_files):
            pages = {
                index // per_page
                for index, elements in enumerate(inserts, start)
                if fast.worst_case_insert
                or position in fast.scheme.set_signature(elements).set_positions()
            }
            if pages:
                charges[slice_file.name] = (len(pages), len(pages))
    else:
        name, per_page = fast.signature_file.name, fast.sigs_per_page
        pages = {index // per_page for index in range(start, start + len(inserts))}
        read = {p for p in pages if p < pages_before[name]}
        if pages:
            charges[name] = (len(read), len(pages) + len(pages - read))
    return charges


class TestABatch:
    """``apply`` with many ops against the oracle applying them one at a
    time: the same page images, caches that are fresh decodes, and I/O
    exactly as the batch charging rule counts it."""

    @pytest.mark.parametrize("pool_capacity", [0, 2], ids=["uncached", "pool2"])
    @pytest.mark.parametrize(
        "kind,page_size",
        [("ssf", 64), ("ssf", 512), ("bssf", 64), ("bssf", 512), ("bssf-worst", 512)],
    )
    @settings(max_examples=15, deadline=None)
    @given(steps=batch, warm=st.booleans())
    def test_same_pages_as_one_op_at_a_time(
        self, kind, page_size, pool_capacity, steps, warm
    ):
        managers = [
            StorageManager(page_size=page_size, pool_capacity=pool_capacity)
            for _ in range(2)
        ]
        fast, oracle = (
            make(kind.split("-")[0], manager, oracle=side)
            for side, manager in enumerate(managers)
        )
        for facility in (fast, oracle):
            facility.worst_case_insert = kind == "bssf-worst"
        live = {OID(1, serial): preload_set(serial) for serial in range(24)}
        for facility in (fast, oracle):
            for oid, elements in live.items():
                facility.insert(elements, oid)
        if warm:
            fast.search_subset(frozenset(range(DOMAIN)))
        ops, serial = [], len(live)
        for step in steps:
            if step[0] == "insert":
                live[OID(1, serial)] = step[1]
                ops.append(("insert", step[1], OID(1, serial)))
                serial += 1
                continue
            oid = sorted(live)[step[1] % len(live)]
            ops.append(("delete", live.pop(oid), oid))
            if step[0] == "update":
                live[oid] = step[2]
                ops.append(("insert", step[2], oid))
        oracle.apply(ops)
        start, before_words = fast.entry_count, fast.oid_file._entry_words().copy()
        pages_before = {
            name: len(images) for name, images in page_images(managers[0]).items()
        }
        snapshot = managers[0].snapshot()
        fast.apply(ops)
        delta = managers[0].snapshot() - snapshot
        assert page_images(managers[0]) == page_images(managers[1])
        assert_caches_are_fresh(fast, managers[0])
        fast.verify_decodes()  # the engine's own check agrees
        want = batch_charges(fast, before_words, start, ops, pages_before)
        got = {
            name: (counts.logical_reads, counts.logical_writes)
            for name, counts in delta.files()
            if counts.logical_total
        }
        assert got == want

    def test_an_op_that_cannot_apply_writes_nothing(self):
        manager = StorageManager(page_size=64, pool_capacity=0)
        ssf = make("ssf", manager, oracle=False)
        for serial in range(20):
            ssf.insert(preload_set(serial), OID(1, serial))
        images = page_images(manager)
        snapshot = manager.snapshot()
        with pytest.raises(AccessFacilityError, match="not present"):
            ssf.apply(
                [
                    ("insert", frozenset({1}), OID(1, 20)),
                    ("delete", frozenset({1}), OID(1, 99)),
                ]
            )
        delta = manager.snapshot() - snapshot
        oid_pages = ssf.oid_file.num_pages
        assert delta.for_file("ssf:oids").logical_reads == oid_pages  # the whole scan
        assert delta.total().logical_writes == 0
        assert page_images(manager) == images and ssf.entry_count == 20
        assert_caches_are_fresh(ssf, manager)
        ssf.verify_decodes()  # the engine's own check agrees


def test_small_pages_split_leaves_root_and_chains():
    """The histories above run where they mean to: at 512 bytes the tree
    is two levels deep and, with chains, one list has spilled."""
    manager = StorageManager(page_size=512, pool_capacity=0)
    nix = make("nix-chains", manager, oracle=False)
    for serial in range(24):
        nix.insert(preload_set(serial), OID(1, serial))
    assert nix.height >= 1
    assert nix.tree.page_census()["overflow"] >= 1


# ----------------------------------------------------------------------
# What a fetch would have caught
# ----------------------------------------------------------------------
def torn_then_rewritten(kind, page_size, preload, victim, first, second):
    """Tear ``victim`` (file, page) with ``first``, rewrite it with ``second``.

    Run on the shipped facility and its oracle twin; returns the outcome of
    ``second`` on each, metered.
    """
    outcomes = []
    for oracle in (False, True):
        manager = StorageManager(page_size=page_size, pool_capacity=0)
        facility = make(kind, manager, oracle)
        for serial, elements in enumerate(preload):
            facility.insert(elements, OID(1, serial))
        facility.search_subset(frozenset(range(DOMAIN)))  # everything decoded
        injector = manager.attach_fault_injector(
            rules=[FaultRule("write", "torn", file=victim[0], page=victim[1])]
        )
        first(facility)
        assert [fault.kind for fault in injector.injected] == ["torn"]
        assert manager.store.corrupt_pages(victim[0]) == [victim[1]]

        def second_raises():
            with pytest.raises(CorruptPageError):
                second(facility)

        outcomes.append(metered(manager, second_raises))
    return outcomes


class TestTornPages:
    """A torn write, then a write to that page: the rewrite's read half
    meets the damage (``CorruptPageError``) on the shipped path as on the
    page-fetching oracle, with the same charges."""

    def test_a_torn_leaf(self):
        # one leaf, more than half full: a new first entry shifts its tail
        preload = [frozenset({element}) for element in range(1, 13)]
        shipped, oracle = torn_then_rewritten(
            "nix",
            512,
            preload,
            ("nix:btree", 0),
            lambda nix: nix.insert(frozenset({0}), OID(1, 100)),
            lambda nix: nix.insert(frozenset({0}), OID(1, 101)),
        )
        assert shipped == oracle

    def test_a_torn_slice_page(self):
        # 16-byte pages: 128 entries a slice page, and entry 100's bit lies
        # in the half of the page a tear leaves stale
        preload = [frozenset({serial % 7}) for serial in range(100)]
        positions = scheme().set_signature(frozenset({3})).set_positions()
        victim = (f"bssf:slice:{positions[0]:04d}", 0)
        shipped, oracle = torn_then_rewritten(
            "bssf",
            16,
            preload,
            victim,
            lambda bssf: bssf.insert(frozenset({3}), OID(1, 100)),
            lambda bssf: bssf.insert(frozenset({3}), OID(1, 101)),
        )
        assert shipped == oracle

    @pytest.mark.parametrize("second", ["append", "delete"])
    def test_a_torn_oid_page(self, second):
        # 32-byte pages hold four OIDs: entry 10 opens the second half of
        # page 2, and entry 11 is appended to the same page
        preload = [frozenset({serial % 7}) for serial in range(10)]
        rewrite = {
            "append": lambda bssf: bssf.insert(frozenset({1}), OID(1, 11)),
            "delete": lambda bssf: bssf.delete(frozenset({2}), OID(1, 10)),
        }[second]
        shipped, oracle = torn_then_rewritten(
            "bssf",
            32,
            preload,
            ("bssf:oids", 2),
            lambda bssf: bssf.insert(frozenset({2}), OID(1, 10)),
            rewrite,
        )
        assert shipped == oracle


def crash_points(kind, page_size, preload, file, write):
    """Device writes of ``file`` that ``write`` makes (a never-firing rule counts them)."""
    manager = StorageManager(page_size=page_size, pool_capacity=0)
    facility = make(kind, manager, oracle=False)
    for serial, elements in enumerate(preload):
        facility.insert(elements, OID(1, serial))
    injector = manager.attach_fault_injector(
        rules=[FaultRule("write", "crash", file=file, at_call=10**9)]
    )
    write(facility)
    return injector.rule_calls(0)


class TestAWriteThatFailsPartWay:
    """Crash at every device write of one facility write: each cache of the
    file it was writing is left at a version the file has left, every
    cache still current is a fresh decode, and reads afterwards agree with
    the oracle twin that crashed at the same point."""

    CASES = {
        # forty tree inserts through a two-level tree, some splitting a leaf
        "nix-split": (
            "nix",
            512,
            [frozenset({element}) for element in range(40)],
            "nix:btree",
            lambda nix: nix.insert(frozenset(range(40)), OID(1, 99)),
        ),
        "bssf-insert": (
            "bssf",
            512,
            [frozenset({serial % 9}) for serial in range(30)],
            "bssf:slice:*",
            lambda bssf: bssf.insert(frozenset({1, 2, 3}), OID(1, 99)),
        ),
        "oid-delete": (
            "ssf",
            512,
            [frozenset({serial % 9}) for serial in range(30)],
            "ssf:oids",
            lambda ssf: ssf.delete(frozenset({5}), OID(1, 5)),
        ),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_every_crash_point(self, case):
        kind, page_size, preload, file, write = self.CASES[case]
        points = crash_points(kind, page_size, preload, file, write)
        assert points >= 1
        for at_call in range(1, points + 1):
            twins = []
            for oracle in (False, True):
                manager = StorageManager(page_size=page_size, pool_capacity=0)
                facility = make(kind, manager, oracle)
                for serial, elements in enumerate(preload):
                    facility.insert(elements, OID(1, serial))
                facility.search_subset(frozenset(range(DOMAIN)))  # warm
                manager.attach_fault_injector(
                    rules=[FaultRule("write", "crash", file=file, at_call=at_call)]
                )
                with pytest.raises(SimulatedCrashError):
                    write(facility)
                manager.detach_fault_injector()
                twins.append((facility, manager))
            (fast, fast_mgr), (oracle, oracle_mgr) = twins
            self.assert_left_behind(fast, fast_mgr, file)
            assert_caches_are_fresh(fast, fast_mgr)
            fast.verify_decodes()  # the engine's own check agrees
            assert page_images(fast_mgr) == page_images(oracle_mgr)
            for query in (frozenset({1}), frozenset({0, 39})):
                want = metered(oracle_mgr, lambda: oracle.search_superset(query))
                got = metered(fast_mgr, lambda: fast.search_superset(query))
                assert got == want

    @staticmethod
    def assert_left_behind(fast, manager, file):
        """The cache over the file the crashed write was writing is stale."""
        if isinstance(fast, NestedIndex):
            tree = fast.tree
            assert current(tree._decode, tree.file.version) is None
        elif isinstance(fast, BitSlicedSignatureFile):
            group = fast._group_name
            version = manager.store.group_version(group)
            assert current(fast._decode, version) is None
        else:
            oids = fast.oid_file
            assert oids.file.name == file
            assert current(oids._decode, oids.file.version) is None


class TestReadersAreNeverWrittenTo:
    def test_a_readers_nodes_and_entries_survive_writes(self):
        """Nodes a reader took from the map — and the entries they share
        with a writer's copy — read the same after inserts, deletes and
        splits through them."""
        manager = StorageManager(page_size=512, pool_capacity=0)
        tree = NestedIndex(manager).tree
        for serial in range(60):
            tree.insert(bytes([65 + serial % 20]) * 3, OID(1, serial))
        assert tree.height >= 1
        path, leaf = tree._descend(b"AAA")
        held = [tree._node(page_no) for page_no in path]
        assert isinstance(held[0], InternalNode) and isinstance(leaf, LeafNode)
        snapshot = [repr(node) for node in held]
        entries = list(leaf.entries)
        images = [entry.image for entry in entries]
        for serial in range(60, 80):
            tree.insert(b"AAA", OID(1, serial))  # through the same leaf
        for serial in range(60, 120):
            tree.insert(bytes([65 + serial % 26]) * 2, OID(1, serial))  # splits
        for serial in range(0, 60, 2):
            tree.delete(bytes([65 + serial % 20]) * 3, OID(1, serial))
        assert [repr(node) for node in held] == snapshot
        assert len(leaf.entries) == len(entries)
        assert all(now is then for now, then in zip(leaf.entries, entries))
        assert [entry.image for entry in entries] == images
        # ...while the tree moved on
        assert tree.lookup(b"AAA") == [OID(1, serial) for serial in range(60, 80)]
        assert [OID.from_int(w) for w in leaf.find(b"AAA").oids.tolist()] == [
            OID(1, serial) for serial in (0, 20, 40)
        ]
        tree.verify()

    def test_an_entry_is_immutable(self):
        entry = LeafEntry(b"k", [1, 2, 3])
        for name, value in (("key", b"x"), ("oids", []), ("overflow_page", 4)):
            with pytest.raises(AttributeError):
                setattr(entry, name, value)
        with pytest.raises(ValueError):
            entry.oids[0] = 9  # a view of the image, read-only
        grown = LeafEntry(b"k", [1, 3]).add_oid(2)
        assert grown.oids.tolist() == [1, 2, 3]
        assert grown == LeafEntry(b"k", [1, 2, 3])
        assert grown.remove_oid(7) is grown and grown.add_oid(3) is grown
        assert grown.remove_oid(2) == LeafEntry(b"k", [1, 3])


# ----------------------------------------------------------------------
# The counting guard: a warm update re-reads nothing it already holds
# ----------------------------------------------------------------------
def local_read_shaped(count: int = 300) -> Database:
    """SSF, BSSF and NIX over one set attribute, every decode warm."""
    db = Database(page_size=4096, pool_capacity=0)
    db.define_class(ClassSchema.build("Item", items="set"))
    rng = np.random.default_rng(11)
    for _ in range(count):
        db.insert("Item", {"items": set(rng.choice(200, 10, replace=False).tolist())})
    db.create_ssf_index("Item", "items", 500, 2)
    db.create_bssf_index("Item", "items", 500, 2)
    db.create_nested_index("Item", "items")
    for element in range(200):  # every NIX node
        db.index("Item", "items", "nix").lookup_element(element)
    for kind in ("ssf", "bssf"):  # slice/signature matrix and OID tables
        db.index("Item", "items", kind).search_superset(frozenset({1}))
    return db


def test_a_warm_update_reads_no_leaf_slice_or_oid_page(device_reads, node_decodes):
    db = local_read_shaped()
    oids = [oid for oid, _ in db.scan("Item")]
    del device_reads[:], node_decodes[:]
    for oid in oids[:6]:  # a write cycle of the ledger's read workloads
        old = db.get(oid)["items"]
        db.update(oid, {"items": {(element + 1) % 200 for element in old}})
    db.insert("Item", {"items": set(range(10))})
    db.delete(oids[6])
    assert node_decodes == []
    facility_reads = [
        (name, page_no)
        for name, page_no in device_reads
        if name.startswith(("nix:", "bssf:")) or name.endswith(":oids")
    ]
    assert facility_reads == []
    # what the guard is counting: the object pages are still fetched
    assert {name for name, _ in device_reads} == {"objects:Item", "ssf:Item.items:signatures"}
