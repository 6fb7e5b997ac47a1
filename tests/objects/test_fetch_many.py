"""``fetch_many`` against the per-OID ``fetch`` loop it replaces.

``ObjectStore.fetch_many`` fetches a list of OIDs (a scan's, a caller's)
lazily. Candidates that share an object page cost one real page fetch; the
rest of the run are cut from that image and *charged*. Nothing the paper's metric or the pool can see may
move, so every test here runs the same OID list through ``fetch_many`` on
one database and through ``[get(o) for o in oids]`` on a twin holding the
same pages, and compares rows, the error and where it struck, every I/O
counter, and the buffer pool's counters and LRU order.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import (
    CorruptPageError,
    ObjectStoreError,
    ReproError,
    TransientIOError,
    UnknownOIDError,
)
from repro.objects.database import Database
from repro.objects.object_file import ObjectFile, RecordAddress
from repro.objects.oid import OID
from repro.objects.schema import ClassSchema
from repro.storage import FaultRule
from repro.storage.paged_file import StorageManager

PAGE_SIZE = 256  # three to five objects a page: runs of every length
OBJECTS = 60
DELETED = (7, 8, 30, 59)  # 7 and 8 share a page with live neighbours
CAPACITIES = [0, 2, 8]


def build(pool_capacity: int):
    """A database of 60 small objects in two classes, four of them deleted.

    Returns it with a pool of OIDs to draw from: every object ever
    inserted (the deleted ones now unknown to the directory), one OID past
    the end of a class, and one of a class that does not exist.
    """
    db = Database(page_size=PAGE_SIZE, pool_capacity=pool_capacity)
    db.define_class(ClassSchema.build("Item", items="set"))
    db.define_class(ClassSchema.build("Tag", label="scalar", items="set"))
    oids = []
    for i in range(OBJECTS):
        items = {(i * 7 + j) % 97 for j in range(3 + i % 5)}
        if i % 4 == 3:
            oids.append(db.insert("Tag", {"label": f"t{i}", "items": items}))
        else:
            oids.append(db.insert("Item", {"items": items}))
    for i in DELETED:
        db.delete(oids[i])
    db.storage.pool.clear()  # both twins start cold, every counter at zero
    db.storage.stats.reset()
    return db, oids + [OID(1, 10_000), OID(9, 0)]


def observe(db: Database) -> dict:
    pool = db.storage.pool
    return {
        "io": db.io_snapshot(),
        "pool": (pool.hits, pool.misses),
        "lru": list(pool._frames),
        "dirty": sorted(pool._dirty),
    }


def drain(rows_iter) -> tuple:
    """Rows until the iterator ends or raises, and the error it raised."""
    rows = []
    try:
        for row in rows_iter:
            rows.append(row)
    except ReproError as exc:
        return rows, (type(exc), str(exc))
    return rows, None


def get_many(db: Database, oids) -> list:
    return list(db.objects.fetch_many(oids))


def one_at_a_time(db: Database, oids):
    for oid in oids:
        yield db.get(oid)


positions = st.integers(0, OBJECTS + 1)
oid_lists = st.one_of(
    st.lists(positions, max_size=40),  # any order, repeats
    st.lists(positions, max_size=40).map(sorted),  # candidate order: long runs
    st.lists(st.integers(0, OBJECTS - 1), max_size=40).map(sorted),
)


@pytest.mark.parametrize("pool_capacity", CAPACITIES)
@settings(max_examples=60, deadline=None)
@given(picks=oid_lists)
def test_same_rows_errors_counters_and_pool_state(pool_capacity, picks):
    batched, pool_of_oids = build(pool_capacity)
    looped, _ = build(pool_capacity)
    oids = [pool_of_oids[i] for i in picks]
    got = drain(batched.objects.fetch_many(oids))
    want = drain(one_at_a_time(looped, oids))
    assert got == want
    assert observe(batched) == observe(looped)
    # the failed call left both in the same state: so does a second pass
    live = [oid for oid in oids if batched.objects.exists(oid)]
    assert get_many(batched, live) == [looped.get(oid) for oid in live]
    assert observe(batched) == observe(looped)


@pytest.mark.parametrize("pool_capacity", CAPACITIES)
def test_get_many_raises_where_the_loop_would(pool_capacity):
    batched, oids = build(pool_capacity)
    looped, _ = build(pool_capacity)
    wanted = [oids[5], oids[6], oids[7], oids[9]]  # 7 is deleted
    with pytest.raises(UnknownOIDError):
        get_many(batched, wanted)
    with pytest.raises(UnknownOIDError):
        [looped.get(oid) for oid in wanted]
    assert observe(batched) == observe(looped)
    assert observe(batched)["io"].total().logical_reads == 2


@pytest.mark.parametrize("pool_capacity", CAPACITIES)
def test_scan_charges_what_fetching_each_object_charges(pool_capacity):
    batched, oids = build(pool_capacity)
    looped, _ = build(pool_capacity)
    items = sorted(
        oid for i, oid in enumerate(oids[:OBJECTS]) if i % 4 != 3 and i not in DELETED
    )
    scan = batched.scan("Item")
    first = next(scan)  # lazy: one object charged so far
    assert first == (items[0], looped.get(items[0]))
    assert observe(batched) == observe(looped)
    assert list(scan) == [(oid, looped.get(oid)) for oid in items[1:]]
    assert observe(batched) == observe(looped)


class TestRuns:
    """What makes a run, seen from the device."""

    @staticmethod
    def same_page_pair(db: Database, oids):
        """Two live Item OIDs on one page and one on the next page."""
        address = db.objects._address
        by_page = {}
        for i, oid in enumerate(oids[:OBJECTS]):
            if i % 4 != 3 and i not in DELETED:
                by_page.setdefault(address(oid).page_no, []).append(oid)
        pages = sorted(page for page, members in by_page.items() if len(members) >= 2)
        return by_page[pages[0]][:2], by_page[pages[1]][0], pages[0]

    def test_a_run_is_one_device_read(self):
        db, oids = build(0)
        (a, b), c, page = self.same_page_pair(db, oids)
        injector = db.storage.attach_fault_injector(
            rules=[FaultRule("read", "crash", file="objects:Item", at_call=10**9)]
        )
        assert get_many(db, [a, b, a, c, a]) == [db.get(o) for o in (a, b, a, c, a)]
        # a b a | c | a  →  three runs, then five single gets
        assert injector.rule_calls(0) == 3 + 5

    def test_a_fault_on_the_runs_page_surfaces_from_inside_the_run(self):
        batched, oids = build(0)
        looped, _ = build(0)
        (a, b), c, page = self.same_page_pair(batched, oids)
        for db in (batched, looped):
            db.storage.attach_fault_injector(
                rules=[
                    FaultRule(
                        "read", "transient", file="objects:Item", page=page, count=3
                    )
                ]
            )
        got = drain(batched.objects.fetch_many([c, a, b]))
        want = drain(one_at_a_time(looped, [c, a, b]))
        assert got == want and got[1][0] is TransientIOError
        assert len(got[0]) == 1  # c answered, the run on `page` never started
        assert observe(batched) == observe(looped)
        # the rule is spent: the same list now answers, from a fresh read
        assert get_many(batched, [c, a, b]) == [looped.get(o) for o in (c, a, b)]

    def test_a_retried_fault_is_not_noticed(self):
        db, oids = build(0)
        (a, b), c, page = self.same_page_pair(db, oids)
        expected = [db.get(o) for o in (a, b, c)]
        db.storage.attach_fault_injector(
            rules=[
                FaultRule("read", "transient", file="objects:Item", page=page, count=2)
            ]
        )
        assert get_many(db, [a, b, c]) == expected

    def test_a_corrupt_page_is_caught_by_the_runs_one_read(self):
        db, oids = build(0)
        (a, b), c, page = self.same_page_pair(db, oids)
        store = db.storage.store
        image = bytearray(store.page_image("objects:Item", page))
        image[40] ^= 0xFF
        store._apply_corruption("objects:Item", page, bytes(image))
        rows, error = drain(db.objects.fetch_many([c, a, b]))
        assert len(rows) == 1 and error[0] is CorruptPageError

    def test_a_write_between_two_records_ends_the_run(self):
        """The consumer runs between records; what it writes must be read."""
        db, oids = build(0)
        (a, b), _, _ = self.same_page_pair(db, oids)
        replacement = {"items": {-(x + 1) for x in db.get(b)["items"]}}  # same size
        rows = db.objects.fetch_many([a, b])
        next(rows)
        db.update(b, replacement)
        assert next(rows) == replacement == db.get(b)


class TestReadMany:
    """The record file under it, by address: the errors ``read`` raises."""

    @staticmethod
    def twin_files():
        files = []
        for _ in range(2):
            manager = StorageManager(page_size=128, pool_capacity=0)
            heap = ObjectFile(manager.create_file("heap"))
            addresses = [heap.insert(bytes([i]) * (10 + i)) for i in range(20)]
            heap.delete(addresses[4])
            manager.stats.reset()
            files.append((manager, heap, addresses))
        return files

    @pytest.mark.parametrize(
        "bad",
        [
            lambda addresses: addresses[4],  # deleted
            lambda addresses: RecordAddress(addresses[3].page_no, 200),  # no such slot
        ],
        ids=["deleted", "slot-out-of-range"],
    )
    def test_bad_address_mid_run(self, bad):
        (manager_a, batched, addresses), (manager_b, looped, _) = self.twin_files()
        wanted = [addresses[2], addresses[3], bad(addresses), addresses[5]]
        assert addresses[2].page_no == addresses[3].page_no == wanted[2].page_no
        got = drain(batched.read_many(wanted))
        want = drain(looped.read(address) for address in wanted)
        assert got == want and got[1][0] is ObjectStoreError
        assert len(got[0]) == 2
        assert manager_a.snapshot() == manager_b.snapshot()
        assert manager_a.snapshot().total().logical_reads == 3  # the bad one is charged

    def test_records_are_bytes_of_their_own(self):
        (_, heap, addresses), _ = self.twin_files()
        records = list(heap.read_many(addresses[:4]))
        assert records == [bytes([i]) * (10 + i) for i in range(4)]
        assert all(type(record) is bytes for record in records)
