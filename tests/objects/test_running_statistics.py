"""Statistics kept as running aggregates equal statistics collected by scan.

The first ``analyze`` of a path scans; after that the facade's insert /
update / delete keep a cardinality histogram and per-element reference
counts current, and a refresh reads them instead of the objects. Whatever
the history — equal-set updates, explicit OIDs, writes that go around the
facade, ``invalidate``, a WAL reopen, the LSM write path — a refreshed
``AttributeStatistics`` must equal, field for field, what
:func:`repro.objects.statistics.analyze` scans from the store at that
instant, and what a plain-dict model of the class says.
"""

from __future__ import annotations

import math
import random
import shutil
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.objects.database import Database
from repro.objects.oid import OID
from repro.objects.schema import ClassSchema
from repro.objects.statistics import REANALYZE_DRIFT, analyze
from repro.query import planner
from repro.query.executor import QueryExecutor
from repro.wal.replay import replay_records

PATHS = ("tags", "marks")
_OPS = (
    "insert", "insert", "insert_with_oid", "update", "update", "update_equal",
    "delete", "store_insert", "store_update", "store_delete",
    "invalidate", "reopen", "refresh", "plan",
)


def _values(rng: random.Random) -> dict:
    return {
        "tags": set(rng.sample(range(12), rng.randrange(0, 5))),
        "marks": {rng.choice("abcdef") for _ in range(rng.randrange(1, 4))},
        "n": rng.randrange(100),
    }


def _open(durability: str, wal_dir: str) -> Database:
    if durability == "none":
        db = Database(pool_capacity=0, durability="none")
    else:
        db = Database(pool_capacity=0, durability=durability, wal_dir=wal_dir)
    db.define_class(ClassSchema.build("Thing", tags="set", marks="set", n="scalar"))
    db.create_ssf_index("Thing", "tags", 64, 2)
    db.create_bssf_index("Thing", "marks", 64, 2)
    return db


def _around_the_facade(db: Database, oid, old, new):
    """One store write with its index upkeep done by hand, around the
    facade's write path (which WAL replay takes too).

    ``oid`` is ``None`` for an insert, ``new`` for a delete; returns the OID.
    """
    if oid is None:
        oid = db.objects.insert("Thing", new)
    elif new is None:
        db.objects.delete(oid)
    else:
        db.objects.update(oid, new)
    for attribute in PATHS:
        for facility in db.indexes_on("Thing", attribute).values():
            if old is not None:
                facility.delete(frozenset(old[attribute]), oid)
            if new is not None:
                facility.insert(frozenset(new[attribute]), oid)
    return oid


def _model_statistics(model: dict, attribute: str):
    sizes = [len(values[attribute]) for values in model.values()]
    distinct = set().union(*(values[attribute] for values in model.values()))
    return (
        max(len(sizes), 1),
        max(len(distinct), 1),
        sum(sizes) / len(sizes) if sizes else 1.0,
        min(sizes, default=1),
        max(sizes, default=1),
    )


def _check_refreshed(db: Database, model: dict, attribute: str, stats) -> None:
    assert stats == analyze(db.objects, "Thing", attribute)
    assert (
        stats.num_objects,
        stats.distinct_elements,
        stats.mean_cardinality,
        stats.min_cardinality,
        stats.max_cardinality,
    ) == _model_statistics(model, attribute)
    assert stats.collected_at_count == len(model)
    assert stats.collected_at_mutations == db.objects.mutation_count("Thing")


def _run_history(durability: str, seed: int, ops) -> None:
    rng = random.Random(seed)
    scratch = tempfile.mkdtemp(prefix="stats-history-")
    db = _open(durability, scratch + "/wal")
    try:
        model = {}
        for _ in range(6):
            values = _values(rng)
            model[db.insert("Thing", values)] = values
        class_id = db.objects.class_ids()["Thing"]
        graveyard = []
        for op in ops:
            victim = rng.choice(sorted(model)) if model else None
            values = _values(rng)
            if op == "insert":
                model[db.insert("Thing", values)] = values
            elif op == "insert_with_oid":
                # a deleted OID comes back (replay, shard loading), or a gap opens
                oid = graveyard.pop() if graveyard else OID(
                    class_id, db.objects.peek_next_oid("Thing").serial + 2
                )
                model[db.insert_with_oid("Thing", oid, values)] = values
            elif op.startswith("store_") and durability != "none":
                continue  # an unlogged write would not survive the reopen
            elif op == "store_insert":
                model[_around_the_facade(db, None, None, values)] = values
            elif victim is None:
                continue
            elif op == "update":
                db.update(victim, values)
                model[victim] = values
            elif op == "update_equal":
                db.update(victim, dict(model[victim], n=values["n"]))
                model[victim] = dict(model[victim], n=values["n"])
            elif op == "delete":
                db.delete(victim)
                del model[victim]
                graveyard.append(victim)
            elif op == "store_update":
                _around_the_facade(db, victim, model[victim], values)
                model[victim] = values
            elif op == "store_delete":
                _around_the_facade(db, victim, model[victim], None)
                del model[victim]
            elif op == "invalidate":
                db.statistics.invalidate(rng.choice(["Thing", None]))
            elif op == "reopen" and durability != "none":
                db.close()
                db = Database.open(scratch + "/wal")
                model = dict(db.scan("Thing"))
            elif op == "refresh":
                attribute = rng.choice(PATHS)
                stats = db.analyze("Thing", attribute, refresh=True)
                _check_refreshed(db, model, attribute, stats)
            elif op == "plan":
                # what the planner does: take the cache unless it drifted
                attribute = rng.choice(PATHS)
                before = db.statistics.peek("Thing", attribute)
                stats = db.analyze("Thing", attribute, refresh=False)
                if stats is not before:
                    _check_refreshed(db, model, attribute, stats)
                else:
                    assert stats.staleness(
                        db.count("Thing"), db.objects.mutation_count("Thing")
                    ) <= REANALYZE_DRIFT
        for attribute in PATHS:
            _check_refreshed(
                db, model, attribute, db.analyze("Thing", attribute, refresh=True)
            )
    finally:
        db.close()
        shutil.rmtree(scratch, ignore_errors=True)


@pytest.mark.parametrize("durability", ["none", "wal", "lsm"])
@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    ops=st.lists(st.sampled_from(_OPS), min_size=1, max_size=60),
)
def test_property_refreshed_statistics_equal_a_scan(durability, seed, ops):
    _run_history(durability, seed, ops)


# ----------------------------------------------------------------------
# Fixed cases
# ----------------------------------------------------------------------
@pytest.fixture
def thing_db():
    db = _open("none", "")
    rng = random.Random(7)
    for _ in range(20):
        db.insert("Thing", _values(rng))
    return db


def test_first_analyze_scans_and_later_refreshes_do_not(thing_db, class_scans):
    first = thing_db.analyze("Thing", "tags")
    assert class_scans == ["Thing"]
    rng = random.Random(8)
    for oid, _ in list(thing_db.scan("Thing"))[:12]:
        thing_db.update(oid, _values(rng))
    del class_scans[:]
    refreshed = thing_db.analyze("Thing", "tags", refresh=False)
    assert refreshed is not first  # 12 mutations of 20 objects: past the drift
    assert class_scans == []
    assert refreshed == analyze(thing_db.objects, "Thing", "tags")


def test_a_write_around_the_facade_makes_the_next_refresh_scan(thing_db, class_scans):
    thing_db.analyze("Thing", "tags")
    stray = _around_the_facade(
        thing_db, None, None, {"tags": {99}, "marks": {"z"}, "n": 0}
    )
    # later facade writes must not trip over the aggregates that missed one
    thing_db.update(stray, {"tags": {98}, "marks": {"y"}, "n": 1})
    thing_db.delete(stray)
    del class_scans[:]
    refreshed = thing_db.analyze("Thing", "tags")
    assert class_scans == ["Thing"]
    assert refreshed == analyze(thing_db.objects, "Thing", "tags")
    # re-seeded: in step again, so the next refresh reads the aggregates
    thing_db.insert("Thing", {"tags": {97}, "marks": {"x"}, "n": 2})
    del class_scans[:]
    again = thing_db.analyze("Thing", "tags")
    assert class_scans == []
    assert again == analyze(thing_db.objects, "Thing", "tags")


def test_a_replica_s_aggregates_follow_a_shipped_record(tmp_path, class_scans):
    """Replay redoes a record through the facade's write path, so a
    replica's aggregates follow shipped records as they follow writes."""
    primary = _open("wal", str(tmp_path / "wal"))
    rng = random.Random(9)
    for _ in range(6):
        primary.insert("Thing", _values(rng))
    shipped = primary.wal.records()
    primary.insert("Thing", _values(rng))
    last = primary.wal.records()[-1]
    primary.close()
    replica = Database(pool_capacity=0)
    replay_records(replica, shipped)
    replica.analyze("Thing", "tags")
    replay_records(replica, [last])
    followed = replica.statistics._aggregates["Thing"]["tags"].followed
    assert followed == replica.objects.mutation_count("Thing") == 7
    del class_scans[:]
    refreshed = replica.analyze("Thing", "tags")
    assert class_scans == []  # read off the aggregates, no scan
    assert refreshed == analyze(replica.objects, "Thing", "tags")


def test_paths_seeded_at_different_times_each_follow_the_writes(thing_db, class_scans):
    thing_db.analyze("Thing", "tags")
    thing_db.insert("Thing", {"tags": {1, 2}, "marks": {"q"}, "n": 0})
    thing_db.analyze("Thing", "marks")  # seeded one mutation later
    oid = thing_db.insert("Thing", {"tags": set(), "marks": {"q", "r"}, "n": 0})
    thing_db.delete(oid)
    del class_scans[:]
    for attribute in PATHS:
        assert thing_db.analyze("Thing", attribute) == analyze(
            thing_db.objects, "Thing", attribute
        )
    assert class_scans == ["Thing", "Thing"]  # only the two reference scans


def test_an_element_that_does_not_equal_itself_falls_back_to_a_scan(thing_db, class_scans):
    thing_db.analyze("Thing", "tags")
    oid = thing_db.insert("Thing", {"tags": {float("nan")}, "marks": {"a"}, "n": 0})
    thing_db.delete(oid)  # the stored NaN is not the inserted one: no KeyError
    del class_scans[:]
    refreshed = thing_db.analyze("Thing", "tags")
    assert class_scans == ["Thing"]
    assert refreshed == analyze(thing_db.objects, "Thing", "tags")


def test_one_nan_object_inserted_twice_falls_back_to_a_scan(thing_db, class_scans):
    """Two inserts sharing ``math.nan`` are one key here, two elements to a scan."""
    thing_db.analyze("Thing", "tags")
    for n in range(2):
        thing_db.insert("Thing", {"tags": {math.nan, "x"}, "marks": {"a"}, "n": n})
    del class_scans[:]
    refreshed = thing_db.analyze("Thing", "tags", refresh=True)
    assert class_scans == ["Thing"]
    assert refreshed == analyze(thing_db.objects, "Thing", "tags")


def test_an_update_to_an_equal_set_touches_no_count(thing_db, class_scans):
    thing_db.analyze("Thing", "tags")
    oid, values = next(iter(thing_db.scan("Thing")))
    aggregates = thing_db.statistics._aggregates["Thing"]["tags"]
    before = (dict(aggregates.sizes), dict(aggregates.elements))
    thing_db.update(oid, dict(values, tags=set(values["tags"]), n=99))
    assert (aggregates.sizes, aggregates.elements) == before
    assert aggregates.followed == thing_db.objects.mutation_count("Thing")
    del class_scans[:]
    refreshed = thing_db.analyze("Thing", "tags", refresh=True)
    assert class_scans == []
    assert refreshed == analyze(thing_db.objects, "Thing", "tags")


def test_a_store_without_a_mutation_counter_is_never_trusted_after_a_write(thing_db):
    class CounterlessStore:
        def __init__(self, inner):
            self._inner = inner

        def __getattr__(self, name):
            if name == "mutation_count":
                raise AttributeError(name)
            return getattr(self._inner, name)

    legacy = CounterlessStore(thing_db.objects)
    thing_db.statistics.get(legacy, "Thing", "tags")  # seeded at "0 mutations"
    rng = random.Random(9)
    for _ in range(10):
        thing_db.insert("Thing", _values(rng))
    refreshed = thing_db.statistics.get(legacy, "Thing", "tags")
    assert refreshed.num_objects == 30
    assert refreshed == analyze(legacy, "Thing", "tags")


def test_emptied_class_degenerates_like_a_scan(thing_db):
    thing_db.analyze("Thing", "tags")
    for oid, _ in list(thing_db.scan("Thing")):
        thing_db.delete(oid)
    refreshed = thing_db.analyze("Thing", "tags")
    assert refreshed == analyze(thing_db.objects, "Thing", "tags")
    assert (refreshed.num_objects, refreshed.collected_at_count) == (1, 0)


def test_a_warm_churn_block_scans_nothing_and_builds_no_cost_model(
    class_scans, cost_models_built
):
    """Counting guard: 96 cycles of 6 updates, 1 insert, 1 delete, 2 queries.

    The domain is small enough that every value stays in use and each
    cycle nets zero objects, so the cost context is the same at every
    refresh: after the first plan of the two shapes, a plan looks its
    prices up, and a refresh reads the running aggregates.
    """
    rng = random.Random(24)
    domain = range(40)
    db = Database(pool_capacity=0, durability="none")
    db.define_class(ClassSchema.build("Item", items="set"))
    oids = [
        db.insert("Item", {"items": set(rng.sample(domain, 10))})
        for _ in range(256)
    ]
    db.create_ssf_index("Item", "items", 500, 2)
    db.create_bssf_index("Item", "items", 500, 2)
    executor = QueryExecutor(db)
    del class_scans[:]  # the two index backfills

    def cycle():
        for _ in range(6):
            db.update(rng.choice(oids), {"items": set(rng.sample(domain, 10))})
        oids.append(db.insert("Item", {"items": set(rng.sample(domain, 10))}))
        db.delete(oids.pop(rng.randrange(len(oids))))
        for kind, dq in (("has-subset", 2), ("in-subset", 30)):
            body = ", ".join(map(str, rng.sample(domain, dq)))
            executor.execute_text(f"select Item where items {kind} ({body})")

    cycle()  # warm-up: the seeding scan, the first plan of each shape
    assert class_scans == ["Item"]
    assert cost_models_built
    del class_scans[:], cost_models_built[:]
    seen = {id(db.statistics.peek("Item", "items"))}
    hits_before = planner._price.cache_info().hits
    for _ in range(96):
        cycle()
        seen.add(id(db.statistics.peek("Item", "items")))
    assert len(seen) > 5  # 768 mutations of 256 objects: many drift refreshes
    assert class_scans == []
    assert cost_models_built == []
    assert planner._price.cache_info().hits - hits_before == 96 * 2 * 2
    assert db.analyze("Item", "items") == analyze(db.objects, "Item", "items")
