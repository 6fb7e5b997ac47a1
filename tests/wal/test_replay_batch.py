"""Batched replay against the record-at-a-time oracle and the live run.

:func:`repro.wal.replay.replay_records` redoes each object record's change
as it reads it but queues the facility upkeep, handing each facility its
ops in one ``apply`` when a batch ends. :func:`tests.reference.replay.
replay_one_at_a_time` maintains the facilities record by record, as replay
once did. Seeded histories run live on a WAL database after a checkpoint —
facade inserts, updates (some to an equal set) and deletes, direct
facility mutations under the ``facility_insert``/``facility_delete``
records a log from an earlier build holds for them (facilities no longer
log themselves), objects of a second class, and every record kind that
ends a batch (``define_class``, ``create_index``, ``rebuild``,
``flush_index``, ``compact_index``) mid-tail. Recovered both ways, the
state must equal the live run's byte for byte, every decode a facility
holds must be a fresh decode, and a facility failure inside a batch must
end in a rebuild that answers as the live database does.
"""

from __future__ import annotations

import os
import random

import pytest

from repro.objects.database import CHECKPOINT_FILE_NAME, Database
from repro.objects.oid import OID
from repro.obs import tracer as trace
from repro.obs.metrics import REGISTRY
from repro.objects.schema import ClassSchema
from repro.persistence.snapshot import load_database
from repro.query.executor import QueryExecutor
from repro.storage.faults import FaultRule
from repro.wal import replay
from repro.wal.log import WriteAheadLog
from tests.reference.replay import replay_one_at_a_time
from tests.wal.conftest import STUDENT_CLASS_ID, fingerprint

HOBBIES = [f"h{i:02d}" for i in range(24)]
SIG = dict(signature_bits=32, bits_per_element=2, seed=3)

#: the Student facilities of each variant (in-place unless it says lsm)
VARIANTS = {
    "ssf": lambda db: db.create_ssf_index("Student", "hobbies", **SIG, lsm=False),
    "bssf": lambda db: db.create_bssf_index("Student", "hobbies", **SIG, lsm=False),
    "bssf-worst-case": lambda db: db.create_bssf_index(
        "Student", "hobbies", **SIG, worst_case_insert=True, lsm=False
    ),
    "nix": lambda db: db.create_nested_index("Student", "hobbies"),
    "lsm": lambda db: (
        db.create_ssf_index(
            "Student", "hobbies", **SIG, lsm=True, flush_threshold=7, fanout=2
        ),
        db.create_bssf_index(
            "Student", "hobbies", **SIG, lsm=True, flush_threshold=5, fanout=2
        ),
    ),
    "all-in-place": lambda db: (
        VARIANTS["ssf"](db),
        VARIANTS["bssf"](db),
        VARIANTS["nix"](db),
    ),
}

QUERIES = [
    'select Student where hobbies has-subset ("h01")',
    'select Student where hobbies has-subset ("h02", "h03")',
    'select Student where hobbies in-subset ("h00", "h01", "h02", "h03", "h04", '
    '"h05", "h06", "h07", "h08", "h09", "h10", "h11")',
]


def draw(rng: random.Random) -> set:
    return set(rng.sample(HOBBIES, rng.randrange(0, 5)))


def live_history(wal_dir: str, variant: str, seed: int, pool: int, steps: int):
    """Run one seeded history live; returns the database, still open."""
    rng = random.Random(seed)
    db = Database(wal_dir=wal_dir, pool_capacity=pool)
    db.define_class(ClassSchema.build("Student", name="scalar", hobbies="set"))
    students = [
        db.insert("Student", {"name": f"s{i}", "hobbies": draw(rng)})
        for i in range(16)
    ]
    VARIANTS[variant](db)
    db.checkpoint()
    facilities = sorted(db.indexes_on("Student", "hobbies"))
    fakes = []  # (facility name, set, OID) held by a facility, no object

    def direct(op: str, name: str, elements: frozenset, oid: OID) -> None:
        """Mutate a facility outside the facade, logged by hand as an
        earlier build's facility logged itself: record first."""
        db.wal.append(
            [f"facility_{op}", "Student", "hobbies", name, oid.to_int(), elements]
        )
        getattr(db.index("Student", "hobbies", name), op)(elements, oid)

    def rebuild() -> None:  # from the objects: the facility's fakes are gone
        name = rng.choice(facilities)
        db.rebuild_facility("Student", "hobbies", name)
        fakes[:] = [fake for fake in fakes if fake[0] != name]

    marks = {
        steps // 5: lambda: db.define_class(ClassSchema.build("Club", tags="set")),
        steps // 5 + 1: lambda: db.create_ssf_index(
            "Club", "tags", 32, 2, seed=5, lsm=True, flush_threshold=4, fanout=2
        ),
        steps // 2: rebuild,
        3 * steps // 5: db.flush_indexes,
        3 * steps // 5 + 1: db.compact_indexes,
    }
    for step in range(steps):
        if step in marks:
            marks[step]()
        roll = rng.random()
        if roll < 0.3 or not students:
            students.append(
                db.insert("Student", {"name": f"n{step}", "hobbies": draw(rng)})
            )
        elif roll < 0.6:
            oid = rng.choice(students)
            old = db.get(oid)["hobbies"]
            new = set(old) if rng.random() < 0.15 else draw(rng)
            db.update(oid, {"name": f"u{step}", "hobbies": new})
        elif roll < 0.75:
            db.delete(students.pop(rng.randrange(len(students))))
        elif roll < 0.85:
            name = rng.choice(facilities)
            if fakes and rng.random() < 0.5:
                direct("delete", *fakes.pop(rng.randrange(len(fakes))))
            else:
                elements = frozenset(draw(rng))
                oid = OID(STUDENT_CLASS_ID, 50_000 + step)
                direct("insert", name, elements, oid)
                fakes.append((name, elements, oid))
        elif roll < 0.92:
            # re-index a live object in place: a delete and an insert record
            oid = rng.choice(students)
            elements = frozenset(db.get(oid)["hobbies"])
            name = rng.choice(facilities)
            direct("delete", name, elements, oid)
            direct("insert", name, elements, oid)
        elif step > steps // 5 + 1:
            db.insert("Club", {"tags": draw(rng)})
    for fake in fakes:
        direct("delete", *fake)
    return db


def recover_with(wal_dir: str, redo, pool: int) -> Database:
    """The checkpoint plus the log tail redone by ``redo``."""
    db = load_database(os.path.join(wal_dir, CHECKPOINT_FILE_NAME), pool_capacity=pool)
    wal = WriteAheadLog(wal_dir)
    try:
        redo(db, wal.records())
    finally:
        wal.close()
    return db


def verify_all_decodes(db: Database) -> None:
    for per_path in db._indexes.values():
        for facility in per_path.values():
            facility.verify_decodes()


def answers(db: Database) -> list:
    executor = QueryExecutor(db)
    return [sorted(executor.execute_text(text).oids()) for text in QUERIES]


def assert_batched_matches(tmp_path, variant, seed, pool, steps=48):
    wal_dir = str(tmp_path / "wal")
    live = live_history(wal_dir, variant, seed, pool, steps)
    expected, expected_answers = fingerprint(live), answers(live)
    live.close()

    oracle = recover_with(wal_dir, replay_one_at_a_time, pool)
    batched = Database.open(wal_dir, pool_capacity=pool)
    verify_all_decodes(batched)  # what replay's apply calls left decoded
    assert fingerprint(batched) == fingerprint(oracle) == expected
    assert answers(batched) == expected_answers
    batched.check_consistency()
    # the decodes keep following live writes after recovery
    students = [oid for oid, _ in batched.scan("Student")]
    batched.update(students[0], {"name": "after", "hobbies": {"h01", "h02"}})
    batched.delete(students[-1])
    verify_all_decodes(batched)
    batched.check_consistency()
    batched.close()


@pytest.mark.parametrize("pool", [0, 8], ids=["uncached", "pool8"])
@pytest.mark.parametrize("variant", sorted(VARIANTS))
@pytest.mark.parametrize("seed", [11, 29])
def test_batched_replay_is_the_per_record_replay(tmp_path, variant, seed, pool):
    assert_batched_matches(tmp_path, variant, seed, pool)


def test_a_tail_longer_than_the_op_cap_ends_batches_early(tmp_path, monkeypatch):
    monkeypatch.setattr(replay, "BATCH_OP_CAP", 5)
    tracer = trace.Tracer()
    with trace.activate(tracer):
        assert_batched_matches(tmp_path, "all-in-place", 7, 0, steps=60)
    batches = [
        span
        for root in tracer.roots
        if root.name == "wal-replay"
        for span in root.walk()
        if span.name == "wal-replay.batch"
    ]
    assert len(batches) > 10
    # a record adds at most two ops per Student facility before the check
    assert all(0 < span.attributes["ops"] < 5 + 2 * 3 for span in batches)
    assert all(span.attributes["pages_written"] > 0 for span in batches)


def test_one_batch_writes_each_slice_page_once(tmp_path):
    """The whole tail of in-place updates is one batch, and a slice page
    it sets bits on is written once, however many records touch it."""
    wal_dir = str(tmp_path / "wal")
    rng = random.Random(3)
    db = Database(wal_dir=wal_dir)
    db.define_class(ClassSchema.build("Student", name="scalar", hobbies="set"))
    oids = [
        db.insert("Student", {"name": "s", "hobbies": draw(rng)}) for _ in range(30)
    ]
    VARIANTS["bssf"](db)
    db.checkpoint()
    for step in range(40):
        hobbies = draw(rng) | {"h00"}  # every update sets a bit on slice pages
        db.update(rng.choice(oids), {"name": f"u{step}", "hobbies": hobbies})
    expected = fingerprint(db)
    db.close()
    tracer = trace.Tracer()
    before = REGISTRY.counter("recovery.wal_replayed_records").value
    with trace.activate(tracer):
        recovered = Database.open(wal_dir)
    (batch,) = [s for s in tracer.last_root.walk() if s.name == "wal-replay.batch"]
    assert batch.attributes["ops"] == 80
    # the checkpoint_end marker, then the updates
    assert REGISTRY.counter("recovery.wal_replayed_records").value - before == 41
    # at most every slice page plus the one OID page
    assert batch.attributes["pages_written"] <= SIG["signature_bits"] + 1
    assert fingerprint(recovered) == expected
    recovered.close()
    written = []

    def one_at_a_time(db, records):
        before = db.io_snapshot()
        replay_one_at_a_time(db, records)
        written.append((db.io_snapshot() - before).total().logical_writes)

    recover_with(wal_dir, one_at_a_time, 0)
    assert batch.attributes["pages_written"] * 4 < written[0]


def crafted_absent_delete(db: Database) -> None:
    """A facility record no facility can redo: an OID the BSSF never saw."""
    db.wal.append(
        [
            "facility_delete", "Student", "hobbies", "bssf",
            OID(STUDENT_CLASS_ID, 90_000).to_int(), frozenset({"h01"}),
        ]
    )


@pytest.mark.parametrize("failure", ["absent-oid", "corrupt-slice"])
def test_a_facility_failing_mid_batch_is_rebuilt_and_answers(tmp_path, failure):
    wal_dir = str(tmp_path / "wal")
    live = live_history(wal_dir, "all-in-place", 5, 0, 40)
    if failure == "absent-oid":
        crafted_absent_delete(live)
    for step in range(10):  # records after the failing one, same batch
        live.insert("Student", {"name": f"t{step}", "hobbies": {"h01", f"h{step:02d}"}})
    expected_answers = answers(live)
    live.close()

    REGISTRY.reset()

    injected = []

    def redo(db, records):
        if failure == "corrupt-slice":
            # the slice matrix is cold after the checkpoint load: its
            # decode meets the flipped bit once the OID pages are written
            injector = db.storage.attach_fault_injector(
                rules=[FaultRule("read", "bitflip", file="bssf:*:slice:0003", page=0)]
            )
            injected.append(injector.injected)
        replay.replay_records(db, records)
        db.storage.detach_fault_injector()

    recovered = recover_with(wal_dir, redo, 0)
    assert all(len(faults) == 1 for faults in injected)
    assert REGISTRY.counter("recovery.wal_replay_rebuilds").value >= 1
    assert answers(recovered) == expected_answers
    verify_all_decodes(recovered)
    recovered.check_consistency()
