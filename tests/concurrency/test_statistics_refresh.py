"""Planning across a statistics refresh while a writer mutates the class.

``plan_query`` runs before the executor takes its read scope, so the
statistics collection it may trigger — the seeding scan of a path, or a
snapshot of its running aggregates once the class has drifted — has to
take the read scope itself. Reader threads plan in a loop while
one writer inserts, updates and deletes through the facade, far enough to
cross the drift threshold many times: no thread may see an exception (a
scan racing a write dies on a resized directory or a vanished OID), every
statistics object a reader was handed must be one a quiesced scan could
have produced at some write boundary, and at the end the running
aggregates must equal a scan.
"""

from __future__ import annotations

import random
import sys
import threading

from repro.objects.database import Database
from repro.objects.schema import ClassSchema
from repro.objects.statistics import REANALYZE_DRIFT, analyze
from repro.query.parser import parse_query
from repro.query.planner import plan_query
from tests.conftest import HOBBIES

READERS = 4
MUTATIONS = 400
QUERY = parse_query('select Student where hobbies has-subset ("Chess", "Golf")')


def _build() -> Database:
    db = Database(pool_capacity=0)
    db.define_class(ClassSchema.build("Student", name="scalar", hobbies="set"))
    db.create_ssf_index("Student", "hobbies", 128, 2)
    db.create_bssf_index("Student", "hobbies", 128, 2)
    rng = random.Random(3)
    for i in range(40):
        db.insert(
            "Student",
            {"name": f"s{i:03d}", "hobbies": set(rng.sample(HOBBIES, 3))},
        )
    return db


def test_readers_plan_across_drift_refreshes_against_one_writer():
    db = _build()
    errors = []
    handed = {}
    boundaries = {}
    done = threading.Event()
    planned = threading.Event()
    start = threading.Barrier(READERS + 1, timeout=10)

    def note_boundary() -> None:
        # Under the write scope nothing else moves: what a scan collects
        # here is what a refresh at this write boundary must return.
        stats = analyze(db.objects, "Student", "hobbies")
        boundaries[stats.collected_at_mutations] = stats

    def writer() -> None:
        rng = random.Random(17)
        live = [oid for oid, _ in db.scan("Student")]
        try:
            start.wait()
            for step in range(MUTATIONS):
                values = {
                    "name": f"w{step:03d}",
                    "hobbies": set(rng.sample(HOBBIES, rng.randrange(1, 6))),
                }
                roll = rng.random()
                planned.clear()
                with db.write_scope():
                    if roll < 0.4 or len(live) < 10:
                        live.append(db.insert("Student", values))
                    elif roll < 0.7:
                        db.update(rng.choice(live), values)
                    else:
                        db.delete(live.pop(rng.randrange(len(live))))
                    note_boundary()
                # A writer that re-takes the latch at once can starve the
                # readers of every refresh; let one plan finish per write.
                assert planned.wait(10)
        except BaseException as exc:  # noqa: BLE001 — reported below
            errors.append(exc)
            raise
        finally:
            done.set()

    def reader() -> None:
        try:
            start.wait()
            while not done.is_set():
                plan = plan_query(db, QUERY)
                assert plan.facility_name in ("ssf", "bssf")
                stats = db.statistics.peek("Student", "hobbies")
                handed[id(stats)] = stats
                planned.set()
        except BaseException as exc:  # noqa: BLE001 — reported below
            errors.append(exc)
            raise

    with db.write_scope():
        note_boundary()
    threads = [threading.Thread(target=writer, name="writer")]
    threads += [
        threading.Thread(target=reader, name=f"reader-{i}") for i in range(READERS)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    # the class drifted many times over, and readers saw it happen
    assert len(handed) >= MUTATIONS * 0.5 / (40 * REANALYZE_DRIFT) / 4
    for stats in handed.values():
        assert stats == boundaries[stats.collected_at_mutations]
    # quiesced: the aggregates the writer kept equal a scan
    assert db.analyze("Student", "hobbies", refresh=True) == analyze(
        db.objects, "Student", "hobbies"
    )


def test_planners_released_together_seed_a_path_once(monkeypatch):
    """Planners that find no statistics for a path, all inside the shared
    read scope at once, scan the object file once between them: the rest
    wait for the collection and take what it stored. The counted scan
    holds until every planner has reached the cache, so a cache that lets
    each reader seed the path scans once per planner, every run."""
    from repro.objects import statistics

    db = _build()
    db.statistics.invalidate()
    planners = READERS + 2
    arrived = threading.Condition()
    gets, scans = [], []
    scan, get = statistics._scan, statistics.StatisticsCache.get

    def arriving_get(cache, *args, **kwargs):
        with arrived:
            gets.append(args)
            arrived.notify_all()
        return get(cache, *args, **kwargs)

    def counted_scan(*args):
        scans.append(args)
        with arrived:  # every planner has entered get()
            assert arrived.wait_for(lambda: len(gets) >= planners, timeout=10)
        return scan(*args)

    monkeypatch.setattr(statistics.StatisticsCache, "get", arriving_get)
    monkeypatch.setattr(statistics, "_scan", counted_scan)
    start = threading.Barrier(planners, timeout=10)
    handed, errors = [], []

    def planner() -> None:
        try:
            start.wait()
            plan_query(db, QUERY)
            handed.append(db.statistics.peek("Student", "hobbies"))
        except BaseException as exc:  # noqa: BLE001 — reported below
            errors.append(exc)

    threads = [threading.Thread(target=planner) for _ in range(planners)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert errors == []
    assert len(scans) == 1
    assert len(handed) == planners and all(s is handed[0] for s in handed)
    assert handed[0] == analyze(db.objects, "Student", "hobbies")
