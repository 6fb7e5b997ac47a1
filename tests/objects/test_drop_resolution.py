"""``ObjectStore.resolve`` against the per-candidate loop it replaces.

Drop resolution reads each page run once, charges the rest of the run in
one call, and tests predicates on a version-keyed decode of the records
(``ObjectFile.select``). None of that may show: every test here runs the
same candidates through the shipped store on one database and through
``tests/reference/drop_resolution.py`` on a twin holding the same pages,
and compares the rows, the error (type and message), every I/O counter,
and the buffer pool's counters, LRU order and dirty set. Resolution
returns a list, so where an error struck is read off the counters: equal
snapshots after a raise mean both stopped at the same candidate.
"""

from __future__ import annotations

import random
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import (
    CorruptPageError,
    IndexCorruptionError,
    QueryError,
    ReproError,
    TransientIOError,
    UnknownOIDError,
)
from repro.objects.database import Database
from repro.objects.oid import OID
from repro.objects.schema import ClassSchema
from repro.query.executor import QueryExecutor
from repro.query.options import ExecutionOptions
from repro.query.parser import parse_query
from repro.query.planner import CostContext, plan_query
from repro.query.predicates import (
    ScalarPredicate,
    has_subset,
    in_subset,
    overlaps,
)
from repro.recovery.fsck import run_fsck
from repro.storage import FaultRule
from repro.workloads.university import build_university
from tests.objects.test_fetch_many import (
    CAPACITIES,
    DELETED,
    OBJECTS,
    build,
    observe,
)
from tests.reference.drop_resolution import resolve_one_at_a_time, use_reference

ITEM_FILE = "objects:Item"
PREDICATES = [
    (),  # every candidate survives
    (in_subset("items", *range(0, 60)),),
    (has_subset("items", 7),),
    (overlaps("items", 1, 2, 3), in_subset("items", *range(97))),
    (ScalarPredicate("label", "t3"),),  # an Item has no label: raises
]


class RaisesOn:
    """A predicate that raises for one set value and passes the rest."""

    def __init__(self, items: frozenset):
        self.items = items

    def matches(self, values) -> bool:
        if frozenset(values["items"]) == self.items:
            raise QueryError("raised on purpose")
        return True


def outcome(run):
    """What ``run()`` returned, or the type and message of what it raised."""
    try:
        return run()
    except ReproError as exc:
        return type(exc), str(exc)


def twins(pool_capacity: int):
    """Two identical databases (see ``build``) and their OID pool."""
    shipped, oids = build(pool_capacity)
    reference, _ = build(pool_capacity)
    return shipped, reference, oids


def assert_same(shipped, reference, words, predicates):
    got = outcome(lambda: shipped.objects.resolve(words, predicates))
    want = outcome(
        lambda: resolve_one_at_a_time(reference.objects, words, predicates)
    )
    assert got == want
    assert observe(shipped) == observe(reference)
    return got


def live_items(db: Database, oids):
    return [
        oid for i, oid in enumerate(oids[:OBJECTS])
        if i % 4 != 3 and i not in DELETED
    ]


def record_cache(db: Database, class_name: str = "Item"):
    """``(version, {address: values})`` the object file holds, or None."""
    object_file = db.objects._files[class_name]
    return object_file._decode.held()


positions = st.integers(0, OBJECTS + 1)
pick_lists = st.one_of(
    st.lists(positions, max_size=40),  # any order, repeats, both classes
    st.lists(positions, max_size=40).map(sorted),  # candidate order: long runs
    st.lists(st.integers(0, OBJECTS - 1), max_size=40).map(sorted),
)


@pytest.mark.parametrize("pool_capacity", CAPACITIES)
@settings(max_examples=60, deadline=None)
@given(
    picks=pick_lists,
    which=st.integers(0, len(PREDICATES) - 1),
    packed=st.booleans(),
)
def test_same_rows_errors_counters_and_pool_state(
    pool_capacity, picks, which, packed
):
    shipped, reference, oids = twins(pool_capacity)
    words = [oids[i].to_int() for i in picks]
    if packed:
        words = np.array(words, dtype=np.uint64)
    predicates = PREDICATES[which]
    assert_same(shipped, reference, words, predicates)  # cold
    assert_same(shipped, reference, words, predicates)  # warm: from the cache


@pytest.mark.parametrize("pool_capacity", CAPACITIES)
def test_rows_are_fresh_and_only_survivors_are_rows(pool_capacity):
    shipped, reference, oids = twins(pool_capacity)
    words = [oid.to_int() for oid in live_items(shipped, oids)]
    predicate = (in_subset("items", *range(0, 40)),)
    rows = assert_same(shipped, reference, words, predicate)
    assert 0 < len(rows) < len(words)
    rows[0][1]["items"].add(-1)  # a caller's row is its own
    assert assert_same(shipped, reference, words, predicate)[0][1]["items"] == (
        shipped.get(rows[0][0])["items"]
    )
    cached = record_cache(shipped)[1]
    assert len(cached) == len(words)
    assert all(type(values["items"]) is frozenset for values in cached.values())


class TestChargingRule:
    """Pending charges of a run are made before an error leaves it."""

    @staticmethod
    def same_page(db: Database, oids, count: int):
        address = db.objects._address
        by_page = {}
        for oid in live_items(db, oids):
            by_page.setdefault(address(oid).page_no, []).append(oid)
        return next(m for m in by_page.values() if len(m) >= count)[:count]

    @pytest.mark.parametrize("pool_capacity", CAPACITIES)
    @pytest.mark.parametrize(
        "bad", [OID(1, 10_000), OID(9, 0)], ids=["unknown-serial", "unknown-class"]
    )
    def test_an_unknown_oid_after_a_run(self, pool_capacity, bad):
        shipped, reference, oids = twins(pool_capacity)
        a, b, c = self.same_page(shipped, oids, 3)
        words = [a.to_int(), b.to_int(), c.to_int(), bad.to_int()]
        error = assert_same(shipped, reference, words, ())
        assert error[0] is UnknownOIDError
        assert observe(shipped)["io"].for_file(ITEM_FILE).logical_reads == 3

    @pytest.mark.parametrize("pool_capacity", CAPACITIES)
    def test_a_deleted_oid_inside_a_run(self, pool_capacity):
        shipped, reference, oids = twins(pool_capacity)
        # 7 and 8 are deleted and share a page with 5 and 6
        words = [oids[i].to_int() for i in (5, 6, 7, 9)]
        error = assert_same(shipped, reference, words, ())
        assert error == (UnknownOIDError, f"no live object for {oids[7]}")
        assert observe(shipped)["io"].total().logical_reads == 2

    @pytest.mark.parametrize("pool_capacity", CAPACITIES)
    def test_a_predicate_error_mid_run(self, pool_capacity):
        shipped, reference, oids = twins(pool_capacity)
        tag = oids[3]  # a Tag, then Items: the scalar test passes, then raises
        a, b = self.same_page(shipped, oids, 2)
        words = [tag.to_int(), a.to_int(), b.to_int()]
        error = assert_same(shipped, reference, words, PREDICATES[-1])
        assert error[0] is QueryError
        assert observe(shipped)["io"].total().logical_reads == 2

    @pytest.mark.parametrize("pool_capacity", CAPACITIES)
    def test_a_predicate_error_late_in_a_run(self, pool_capacity):
        shipped, reference, oids = twins(pool_capacity)
        a, b, c = self.same_page(shipped, oids, 3)
        raises_on_c = RaisesOn(frozenset(reference.get(c)["items"]))
        reference.storage.pool.clear()
        reference.storage.stats.reset()
        words = [a.to_int(), b.to_int(), c.to_int(), a.to_int()]
        error = assert_same(shipped, reference, words, (raises_on_c,))
        assert error == (QueryError, "raised on purpose")
        assert observe(shipped)["io"].total().logical_reads == 3

    def test_a_run_is_one_device_read(self):
        db, oids = build(0)
        a, b, c = self.same_page(db, oids, 3)
        injector = db.storage.attach_fault_injector(
            rules=[FaultRule("read", "crash", file=ITEM_FILE, at_call=10**9)]
        )
        rows = db.objects.resolve([a.to_int(), b.to_int(), c.to_int()], ())
        assert [oid for oid, _ in rows] == [a, b, c]
        assert injector.rule_calls(0) == 1
        assert db.io_snapshot().for_file(ITEM_FILE).logical_reads == 3


class TestWritesBetweenQueries:
    """Every object-file write carries the record decode across itself,
    forgetting only the records it touched; the next query reads what
    the pages now hold."""

    PREDICATE = (in_subset("items", *range(0, 60)),)

    def run(self, pool_capacity, write):
        shipped, reference, oids = twins(pool_capacity)
        words = shipped.objects.live_words("Item")
        assert_same(shipped, reference, words, self.PREDICATE)
        version, before = record_cache(shipped)
        kept = dict(before)
        for address in write(shipped, oids):
            kept.pop(address)
        write(reference, oids)
        version_after, after = record_cache(shipped)
        assert version_after == shipped.objects._files["Item"].file.version
        assert version_after != version
        assert after == kept
        words = shipped.objects.live_words("Item")
        assert_same(shipped, reference, words, self.PREDICATE)
        assert_same(shipped, reference, words, self.PREDICATE)

    @pytest.mark.parametrize("pool_capacity", CAPACITIES)
    def test_insert(self, pool_capacity):
        def write(db, oids):
            db.insert("Item", {"items": {1, 2, 3}})
            return []  # a new slot: nothing cached to forget

        self.run(pool_capacity, write)

    @pytest.mark.parametrize("pool_capacity", CAPACITIES)
    def test_in_place_update(self, pool_capacity):
        def write(db, oids):
            address = db.objects._address(oids[5])
            values = db.get(oids[5])
            db.update(oids[5], {"items": {-(x + 1) for x in values["items"]}})
            assert db.objects._address(oids[5]) == address
            return [address]

        self.run(pool_capacity, write)

    @pytest.mark.parametrize("pool_capacity", CAPACITIES)
    def test_relocating_update(self, pool_capacity):
        def write(db, oids):
            address = db.objects._address(oids[5])
            db.update(oids[5], {"items": set(range(100, 108))})
            assert db.objects._address(oids[5]) != address
            return [address]

        self.run(pool_capacity, write)

    @pytest.mark.parametrize("pool_capacity", CAPACITIES)
    def test_delete(self, pool_capacity):
        def write(db, oids):
            address = db.objects._address(oids[6])
            db.delete(oids[6])
            return [address]

        self.run(pool_capacity, write)

    def test_a_write_that_fails_leaves_the_decode_behind(self):
        shipped, reference, oids = twins(0)
        words = shipped.objects.live_words("Item")
        assert_same(shipped, reference, words, self.PREDICATE)
        page = shipped.objects._address(oids[5]).page_no
        for db in (shipped, reference):
            db.storage.attach_fault_injector(
                rules=[FaultRule("write", "transient", file=ITEM_FILE, page=page, count=3)]
            )
            with pytest.raises(TransientIOError):
                db.objects.update(oids[5], {"items": {-1, -2}})
        assert record_cache(shipped)[0] != shipped.objects._files["Item"].file.version
        assert_same(shipped, reference, words, self.PREDICATE)


class TestStorageFaults:
    """A run's one real read meets every fault the loop's first read met."""

    PREDICATE = (in_subset("items", *range(0, 60)),)

    @staticmethod
    def page_of(db: Database, oids) -> int:
        return db.objects._address(live_items(db, oids)[4]).page_no

    def both(self, pool_capacity, rules):
        shipped, reference, oids = twins(pool_capacity)
        words = shipped.objects.live_words("Item")
        assert_same(shipped, reference, words, self.PREDICATE)  # warm
        page = self.page_of(shipped, oids)
        for db in (shipped, reference):
            db.storage.pool.clear()
            db.storage.stats.reset()
            db.storage.attach_fault_injector(rules=rules(page))
        return shipped, reference, words

    @pytest.mark.parametrize("pool_capacity", CAPACITIES)
    def test_a_transient_read_that_exhausts_its_retries(self, pool_capacity):
        shipped, reference, words = self.both(
            pool_capacity,
            lambda page: [FaultRule("read", "transient", file=ITEM_FILE, page=page, count=3)],
        )
        error = assert_same(shipped, reference, words, self.PREDICATE)
        assert error[0] is TransientIOError
        assert assert_same(shipped, reference, words, self.PREDICATE)  # spent

    @pytest.mark.parametrize("pool_capacity", CAPACITIES)
    def test_a_retried_transient_read_is_not_noticed(self, pool_capacity):
        shipped, reference, words = self.both(
            pool_capacity,
            lambda page: [FaultRule("read", "transient", file=ITEM_FILE, page=page, count=2)],
        )
        assert isinstance(assert_same(shipped, reference, words, self.PREDICATE), list)

    @pytest.mark.parametrize("pool_capacity", CAPACITIES)
    def test_a_bitflip_read(self, pool_capacity):
        shipped, reference, words = self.both(
            pool_capacity,
            lambda page: [FaultRule("read", "bitflip", file=ITEM_FILE, page=page, bit=77)],
        )
        error = assert_same(shipped, reference, words, self.PREDICATE)
        assert error[0] is CorruptPageError
        assert assert_same(shipped, reference, words, self.PREDICATE)[0] is CorruptPageError

    @pytest.mark.parametrize("pool_capacity", CAPACITIES)
    def test_a_torn_object_page(self, pool_capacity):
        """The torn write is followed into the cache; the run's read of the
        page refuses it all the same."""
        shipped, reference, oids = twins(pool_capacity)
        words = shipped.objects.live_words("Item")
        assert_same(shipped, reference, words, self.PREDICATE)
        victim = live_items(shipped, oids)[4]
        page = shipped.objects._address(victim).page_no
        for db in (shipped, reference):
            db.storage.attach_fault_injector(
                rules=[FaultRule("write", "torn", file=ITEM_FILE, page=page)]
            )
            db.delete(victim)  # its slot entry sits in the page's torn half
            db.storage.flush()  # a pool holds the page dirty until written back
            db.storage.pool.clear()
            db.storage.stats.reset()
        words = shipped.objects.live_words("Item")
        error = assert_same(shipped, reference, words, self.PREDICATE)
        assert error[0] is CorruptPageError


class TestThroughTheExecutor:
    """Plans, scans and predicates of every kind, against the oracle."""

    @staticmethod
    def run_both(shipped, reference, run):
        use_reference(reference)
        for db in (shipped, reference):
            db.storage.pool.clear()
            db.storage.stats.reset()
        for _ in range(2):  # cold, then warm
            got, want = outcome(lambda: run(shipped)), outcome(lambda: run(reference))
            if isinstance(got, tuple):
                assert got == want
            else:
                assert got.rows == want.rows
                assert got.statistics.plan == want.statistics.plan
                assert got.statistics.candidates == want.statistics.candidates
                assert got.statistics.results == want.statistics.results
                assert got.statistics.io == want.statistics.io
                assert got.statistics.detail == want.statistics.detail
            assert observe(shipped) == observe(reference)
        return got

    @pytest.fixture(params=CAPACITIES)
    def campus(self, request):
        """Two identical Section 1 campuses: strings and OIDs as elements."""
        built = []
        for _ in range(2):
            db = build_university(
                num_students=150, seed=11, page_size=512,
                pool_capacity=request.param,
            ).database
            db.create_index("nix", "Student", "hobbies", [])
            db.create_index("ssf", "Student", "hobbies", [64, 2])
            db.create_index("bssf", "Student", "courses", [64, 2])
            built.append(db)
        return built

    @pytest.mark.parametrize(
        "text, facility, answered",
        [
            ('select Student where hobbies in-subset ("Chess", "Golf", "Tennis", '
             '"Skiing", "Reading", "Cooking", "Running")', "nix", True),
            ('select Student where hobbies in-subset ("Chess", "Golf", "Tennis", '
             '"Skiing", "Reading", "Cooking", "Running")', "ssf", True),
            ('select Student where hobbies has-subset ("Chess") '
             'and name = "Hugo-0001"', "ssf", True),
            ('select Student where courses has-subset '
             '(select Course where category = "DB")', None, True),
            ('select Course where category = "DB"', None, True),
            ('select Student where hobbies contains "Chess" and hobbies = "x"',
             "nix", False),
        ],
        ids=["strings-nix", "strings-ssf", "scalar-residual", "oid-elements",
             "scan", "residual-raises"],
    )
    def test_university(self, campus, text, facility, answered):
        options = ExecutionOptions(prefer_facility=facility) if facility else None
        result = self.run_both(
            *campus, lambda db: QueryExecutor(db).execute_text(text, options)
        )
        if answered:
            assert result.rows and result.statistics.candidates
        else:
            assert result[0] is QueryError

    @pytest.mark.parametrize("pool_capacity", CAPACITIES)
    def test_an_intersection_plan(self, pool_capacity):
        colors = ["red", "green", "blue", "cyan", "teal", "plum", "gold", "gray"]
        shapes = ["cube", "ball", "cone", "ring", "disc", "star", "tube", "wedge"]
        built = []
        for _ in range(2):
            rng = random.Random(17)
            db = Database(page_size=1024, pool_capacity=pool_capacity)
            db.define_class(ClassSchema.build("Item", colors="set", shapes="set"))
            for _ in range(200):
                db.insert("Item", {
                    "colors": set(rng.sample(colors, 3)),
                    "shapes": set(rng.sample(shapes, 3)),
                })
            db.create_nested_index("Item", "colors")
            db.create_nested_index("Item", "shapes")
            db.create_bssf_index("Item", "colors", 64, 2)
            built.append(db)
        query = parse_query(
            'select Item where colors has-subset ("red") '
            'and shapes has-subset ("cube")'
        )
        context = CostContext(num_objects=200, domain_cardinality=8, target_cardinality=3)
        plan = plan_query(built[0], query, context=context)
        assert plan.intersect_with is not None
        result = self.run_both(
            *built, lambda db: QueryExecutor(db).execute_plan(plan, query)
        )
        assert result.statistics.detail["intersected_with"]["surviving"] == (
            result.statistics.candidates
        )

    @pytest.mark.parametrize("pool_capacity", CAPACITIES)
    def test_a_degraded_scan(self, pool_capacity):
        shipped, reference, _ = twins(pool_capacity)
        for db in (shipped, reference):
            db.create_index("nix", "Item", "items", [])
            db.mark_degraded("Item", "items", "nix", "test")
        text = "select Item where items in-subset (" + ", ".join(
            str(x) for x in range(50)
        ) + ")"
        result = self.run_both(
            shipped, reference,
            lambda db: QueryExecutor(db).execute_text(
                text, ExecutionOptions(prefer_facility="nix")
            ),
        )
        assert "degraded" in result.statistics.detail


class TestVerifyDecodes:
    """A cached record that differs from its slot is caught in memory."""

    @staticmethod
    def warmed(pool_capacity=0):
        db, oids = build(pool_capacity)
        db.objects.resolve(db.objects.live_words("Item"), ())
        return db, oids

    def test_a_clean_cache_verifies(self):
        db, _ = self.warmed()
        db.objects.verify_decodes("Item")
        assert db.check_consistency() == {}
        assert record_cache(db) is not None

    @pytest.mark.parametrize(
        "poison",
        [
            lambda values: {**values, "items": values["items"] | {999}},
            lambda values: {},
        ],
        ids=["element", "attribute"],
    )
    def test_a_poisoned_record_names_its_file_page_and_slot(self, poison):
        db, oids = self.warmed()
        victim = live_items(db, oids)[2]
        address = db.objects._address(victim)
        records = record_cache(db)[1]
        records[address] = poison(records[address])
        with pytest.raises(IndexCorruptionError) as raised:
            db.objects.verify_decodes("Item")
        message = str(raised.value)
        assert ITEM_FILE in message
        assert f"page {address.page_no}, slot {address.slot}" in message
        assert record_cache(db) is None  # dropped: the next reader decodes afresh
        db.objects.verify_decodes("Item")

    def test_the_poison_answers_queries_until_it_is_found(self):
        db, oids = self.warmed()
        victim = live_items(db, oids)[2]
        address = db.objects._address(victim)
        records = record_cache(db)[1]
        records[address] = {"items": records[address]["items"] | {999}}
        wrong = (has_subset("items", 999),)
        assert db.objects.resolve([victim.to_int()], wrong)  # only in memory
        with pytest.raises(IndexCorruptionError):
            db.check_consistency()
        assert db.objects.resolve([victim.to_int()], wrong) == []

    def test_a_record_cached_for_a_deleted_slot(self):
        db, oids = self.warmed()
        victim = live_items(db, oids)[2]
        address = db.objects._address(victim)
        saved = record_cache(db)[1][address]
        db.delete(victim)
        record_cache(db)[1][address] = saved  # a delete that did not follow
        with pytest.raises(IndexCorruptionError):
            db.objects.verify_decodes("Item")

    def test_fsck_deep_reports_it(self):
        db, oids = self.warmed()
        db.create_index("nix", "Item", "items", [])
        address = db.objects._address(live_items(db, oids)[0])
        records = record_cache(db)[1]
        records[address] = {**records[address], "items": frozenset()}
        assert run_fsck(db).ok
        report = run_fsck(db, deep=True)
        assert not report.ok
        assert any(
            issue.kind == "consistency" and f"slot {address.slot}" in issue.detail
            for issue in report.issues
        )
        assert run_fsck(db, deep=True).ok  # the payload was dropped


def test_readers_share_the_record_decode_with_a_writer():
    """Readers fill the decode under the read scope while a writer patches
    it under the write scope: every answer must equal the per-candidate
    loop run inside the same read scope, and the cache must verify after.
    A forgotten address — a lost patch — would answer from the old set."""
    db, oids = build(0)
    flipped = live_items(db, oids)[:6]
    states = [
        ({(x * 5) % 97 for x in range(3 + i % 5)}, {(x * 5 + 50) % 97 for x in range(3 + i % 5)})
        for i in range(len(flipped))
    ]
    predicate = (in_subset("items", *range(0, 50)),)
    words = db.objects.live_words("Item")
    failures, stop = [], threading.Event()

    def reader():
        for _ in range(150):
            with db.read_scope():
                got = db.objects.resolve(words, predicate)
                want = resolve_one_at_a_time(db.objects, words, predicate)
            if got != want:
                failures.append((got, want))
                return

    def writer():
        turn = 0
        while not stop.is_set():
            for oid, pair in zip(flipped, states):
                db.update(oid, {"items": pair[turn % 2]})  # in place after the first
            turn += 1

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        readers = [threading.Thread(target=reader) for _ in range(6)]
        writing = threading.Thread(target=writer)
        writing.start()
        for thread in readers:
            thread.start()
        for thread in readers:
            thread.join(timeout=120)
        stop.set()
        writing.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in readers + [writing])
    assert not failures
    db.objects.verify_decodes("Item")
