"""Database-level equivalence and durability composition for LSM facilities.

The in-place facility is the oracle throughout: same workload, same
queries, and the LSM database must produce identical rows, identical plan
strings (the planner prices the run *format*, so ``ssf``/``bssf`` plans
print the same) and identical golden object-file page counts — the paper's
charged metric.
"""

import pytest

from repro.objects.database import Database
from repro.recovery import run_fsck

from tests.lsm.conftest import QUERY_TEXTS, build_db, churn_students, db_answers

KINDS = ["ssf", "bssf"]


@pytest.mark.parametrize("kind", KINDS)
def test_rows_plans_and_page_counts_match_inplace(kind):
    reference = build_db(lsm=False, kind=kind)
    subject = build_db(lsm=True, kind=kind)
    churn_students(reference)
    churn_students(subject)
    assert db_answers(reference) == db_answers(subject)
    assert subject.check_consistency()["Student.hobbies"] > 0
    assert run_fsck(subject, deep=True).ok


def test_durability_mode_selects_lsm_facilities(tmp_path):
    db = Database(wal_dir=str(tmp_path), durability="lsm")
    from repro.objects.schema import ClassSchema

    db.define_class(ClassSchema.build("Student", name="scalar", hobbies="set"))
    facility = db.create_ssf_index("Student", "hobbies", 64, 2)
    assert getattr(facility, "is_lsm", False)
    # explicit opt-out wins over the database default
    other = db.create_bssf_index("Student", "hobbies", 64, 2, lsm=False)
    assert not getattr(other, "is_lsm", False)
    db.close()


@pytest.mark.parametrize("kind", KINDS)
def test_wal_recovery_matches_inplace_reference(kind, tmp_path):
    reference = build_db(lsm=False, kind=kind)
    churn_students(reference)
    expected = db_answers(reference)

    subject = build_db(lsm=True, kind=kind, wal_dir=tmp_path)
    churn_students(subject)
    assert db_answers(subject) == expected
    subject.close()

    recovered = Database.open(str(tmp_path))
    assert recovered.durability == "lsm"
    assert db_answers(recovered) == expected
    facility = recovered.index("Student", "hobbies", kind)
    assert getattr(facility, "is_lsm", False)
    facility.verify()
    recovered.close()


@pytest.mark.parametrize("kind", KINDS)
def test_checkpoint_roundtrip_preserves_lsm_state(kind, tmp_path):
    subject = build_db(lsm=True, kind=kind, wal_dir=tmp_path)
    churn_students(subject)
    expected = db_answers(subject)
    facility = subject.index("Student", "hobbies", kind)
    run_count = facility.run_count
    memtable_size = len(facility.memtable)
    subject.checkpoint()
    subject.close()

    recovered = Database.open(str(tmp_path))
    assert recovered.durability == "lsm"
    reopened = recovered.index("Student", "hobbies", kind)
    assert reopened.run_count == run_count
    assert len(reopened.memtable) == memtable_size
    reopened.verify()
    assert db_answers(recovered) == expected
    # and the recovered database keeps absorbing writes
    churn_students(recovered, inserts=8, updates=2, deletes=1, seed=77)
    assert run_fsck(recovered, deep=True).ok
    recovered.close()


def test_explicit_flush_and_compact_survive_replay(tmp_path):
    subject = build_db(lsm=True, wal_dir=tmp_path)
    churn_students(subject, inserts=20, updates=4, deletes=2)
    subject.flush_indexes()
    churn_students(subject, inserts=12, updates=2, deletes=1, seed=99)
    subject.compact_indexes()
    expected = db_answers(subject)
    facility = subject.index("Student", "hobbies", "bssf")
    layout = [(run.run_id, run.level) for run in facility.runs]
    subject.close()

    recovered = Database.open(str(tmp_path))
    reopened = recovered.index("Student", "hobbies", "bssf")
    assert [(run.run_id, run.level) for run in reopened.runs] == layout
    assert db_answers(recovered) == expected
    recovered.close()


@pytest.mark.parametrize("kind", KINDS)
def test_rebuild_and_vacuum(kind):
    """A rebuild reloads in OID-scan order on both layouts identically."""
    reference = build_db(lsm=False, kind=kind)
    subject = build_db(lsm=True, kind=kind)
    churn_students(reference)
    churn_students(subject)

    rebuilt = subject.rebuild_facility("Student", "hobbies", kind)
    assert getattr(rebuilt, "is_lsm", False)
    assert rebuilt.flush_threshold == 8 and rebuilt.fanout == 2
    reference.rebuild_facility("Student", "hobbies", kind)
    assert db_answers(subject) == db_answers(reference)

    vacuumed = subject.vacuum_index("Student", "hobbies", kind)
    assert getattr(vacuumed, "is_lsm", False)
    assert db_answers(subject) == db_answers(reference)
    assert run_fsck(subject, deep=True).ok


def test_rebuild_drops_stale_run_files(kind="bssf"):
    subject = build_db(lsm=True, kind=kind)
    churn_students(subject)
    before = {
        name for name in subject.storage.store.file_names()
        if name.startswith(f"{kind}:Student.hobbies:")
    }
    assert before
    subject.rebuild_facility("Student", "hobbies", kind)
    after = {
        name for name in subject.storage.store.file_names()
        if name.startswith(f"{kind}:Student.hobbies:")
    }
    # every pre-rebuild run/manifest file is gone; fresh ones replace them
    assert not (before & after) or all(
        ":manifest:" in name for name in before & after
    )
    subject.index("Student", "hobbies", kind).verify()


def test_sharded_lsm_matches_unsharded(tmp_path):
    from repro.query.executor import QueryExecutor
    from repro.sharding.partitioner import partition_database

    subject = build_db(lsm=True)
    churn_students(subject)
    expected = db_answers(subject)

    shards = partition_database(subject, 3)
    for shard in shards:
        facility = shard.index("Student", "hobbies", "bssf")
        assert getattr(facility, "is_lsm", False)
        facility.verify()
    for text, (_, rows, _) in zip(QUERY_TEXTS, expected):
        merged = []
        for shard in shards:
            merged.extend(QueryExecutor(shard).execute_text(text).oids())
        assert sorted(merged) == sorted(rows)


def test_older_snapshot_descriptor_with_worst_case_insert_still_loads(tmp_path):
    """Snapshots written before the LSM facility dropped its inert
    ``worst_case_insert`` option carry the key in the index descriptor."""
    from repro.persistence.format import write_snapshot
    from repro.persistence.snapshot import build_catalog, load_database

    subject = build_db(lsm=True, kind="bssf")
    churn_students(subject)
    subject.storage.flush()
    catalog = build_catalog(subject)
    descriptors = [entry for entry in catalog["indexes"] if "lsm" in entry]
    assert descriptors
    for descriptor in descriptors:
        assert "worst_case_insert" not in descriptor
        descriptor["worst_case_insert"] = True
    store = subject.storage.store
    payloads = [
        (
            entry["name"],
            [
                store.page_image(entry["name"], page_no)
                for page_no in range(entry["pages"])
            ],
        )
        for entry in catalog["files"]
    ]
    path = tmp_path / "older.sigdb"
    with open(path, "wb") as stream:
        write_snapshot(stream, catalog, payloads)
    loaded = load_database(path)
    reopened = loaded.index("Student", "hobbies", "bssf")
    assert getattr(reopened, "is_lsm", False)
    reopened.verify()
    assert db_answers(loaded) == db_answers(subject)
