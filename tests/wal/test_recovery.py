"""End-to-end recovery: checkpoint + log tail reproduces the lost state."""

from __future__ import annotations

import os

import pytest

from repro.errors import StorageError, WalCorruptError, WalError
from repro.objects.database import CHECKPOINT_FILE_NAME, Database
from repro.objects.oid import OID
from repro.obs.metrics import REGISTRY
from repro.recovery import run_fsck
from repro.wal.log import WAL_FILE_NAME, scan_wal, truncate_wal
from tests.wal.conftest import (
    STUDENT_CLASS_ID,
    apply_ops,
    baseline_fingerprints,
    fingerprint,
    workload_ops,
)


def test_open_of_empty_directory_is_a_fresh_database(tmp_path):
    db = Database.open(str(tmp_path))
    assert list(db.objects.class_names()) == []
    assert db.durability == "wal" and db.wal is not None
    db.close()


def test_recovery_without_checkpoint_replays_the_whole_log(tmp_path):
    ops = workload_ops()
    db = Database(wal_dir=str(tmp_path))
    apply_ops(db, ops)
    expected = fingerprint(db)
    db.close()  # process dies; only the WAL directory survives

    recovered = Database.open(str(tmp_path))
    assert fingerprint(recovered) == expected
    assert run_fsck(recovered, deep=True).ok
    assert REGISTRY.counter("recovery.wal_replayed_records").value == len(ops)
    recovered.close()


def test_recovery_is_idempotent_across_repeated_opens(tmp_path):
    ops = workload_ops()
    db = Database(wal_dir=str(tmp_path))
    apply_ops(db, ops)
    expected = fingerprint(db)
    db.close()
    for _ in range(3):
        recovered = Database.open(str(tmp_path))
        assert fingerprint(recovered) == expected
        recovered.close()


def test_checkpoint_truncates_log_and_recovery_uses_it(tmp_path):
    ops = workload_ops()
    db = Database(wal_dir=str(tmp_path))
    apply_ops(db, ops[:10])
    db.checkpoint()
    assert os.path.exists(os.path.join(str(tmp_path), CHECKPOINT_FILE_NAME))
    # only the checkpoint_end marker survives in the log
    assert [r.type for r in db.wal.records()] == ["checkpoint_end"]
    assert db.wal.base_lsn > 0
    apply_ops(db, ops[10:])
    expected = fingerprint(db)
    db.close()

    REGISTRY.reset()
    recovered = Database.open(str(tmp_path))
    assert fingerprint(recovered) == expected
    # replay covered only the tail: checkpoint_end + the post-checkpoint ops
    assert (
        REGISTRY.counter("recovery.wal_replayed_records").value
        == len(ops) - 10 + 1
    )
    recovered.close()


def test_save_database_elsewhere_still_checkpoints_the_wal_dir(tmp_path):
    from repro.persistence.snapshot import save_database

    ops = workload_ops()
    db = Database(wal_dir=str(tmp_path / "wal"))
    apply_ops(db, ops)
    expected = fingerprint(db)
    target = str(tmp_path / "elsewhere.sigdb")
    save_database(db, target)
    assert os.path.exists(target)
    assert os.path.exists(
        os.path.join(str(tmp_path / "wal"), CHECKPOINT_FILE_NAME)
    )
    assert REGISTRY.counter("wal.checkpoints").value == 1
    db.close()
    recovered = Database.open(str(tmp_path / "wal"))
    assert fingerprint(recovered) == expected
    recovered.close()


def test_fresh_database_refuses_an_occupied_wal_dir(tmp_path):
    db = Database(wal_dir=str(tmp_path))
    apply_ops(db, workload_ops()[:5])
    db.close()
    with pytest.raises(StorageError, match="Database.open"):
        Database(wal_dir=str(tmp_path))


def test_torn_tail_from_crash_is_dropped_and_prefix_recovers(tmp_path):
    ops = workload_ops()
    db = Database(wal_dir=str(tmp_path))
    apply_ops(db, ops)
    db.close()
    baselines = baseline_fingerprints(ops)
    # Tear the final record in half, as a crash mid-append would.
    path = os.path.join(str(tmp_path), WAL_FILE_NAME)
    scan = scan_wal(path)
    last = scan.records[-1]
    frame_bytes = last.next_lsn - last.lsn
    with open(path, "r+b") as stream:
        stream.truncate(os.path.getsize(path) - frame_bytes // 2)
    recovered = Database.open(str(tmp_path))
    assert fingerprint(recovered) == baselines[len(ops) - 1]
    assert REGISTRY.counter("wal.torn_tails_truncated").value == 1
    recovered.close()


def test_interior_corruption_fails_recovery_then_truncate_repairs(tmp_path):
    ops = workload_ops()
    db = Database(wal_dir=str(tmp_path))
    apply_ops(db, ops)
    db.close()
    baselines = baseline_fingerprints(ops)
    path = os.path.join(str(tmp_path), WAL_FILE_NAME)
    scan = scan_wal(path)
    victim = scan.records[8]  # an interior record
    header = 16  # magic + base_lsn
    with open(path, "r+b") as stream:
        stream.seek(header + victim.lsn + 8)  # first payload byte
        byte = stream.read(1)
        stream.seek(header + victim.lsn + 8)
        stream.write(bytes([byte[0] ^ 0xFF]))
    with pytest.raises(WalCorruptError) as err:
        Database.open(str(tmp_path))
    assert err.value.lsn == victim.lsn
    # The documented repair: cut at the damaged LSN, lose the tail, recover.
    truncate_wal(path, victim.lsn)
    recovered = Database.open(str(tmp_path))
    assert fingerprint(recovered) == baselines[8]
    recovered.close()


def test_replay_repairs_a_facility_it_cannot_redo_into(tmp_path):
    ops = workload_ops()
    db = Database(wal_dir=str(tmp_path))
    apply_ops(db, ops)
    # Craft a facility-level record replay cannot apply: deleting an OID
    # the nested index never saw raises AccessFacilityError during redo.
    db.wal.append(
        [
            "facility_delete", "Student", "hobbies", "nix",
            OID(STUDENT_CLASS_ID, 4000).to_int(), frozenset({"Chess"}),
        ]
    )
    db.close()
    recovered = Database.open(str(tmp_path))
    assert REGISTRY.counter("recovery.wal_replay_rebuilds").value == 1
    assert run_fsck(recovered, deep=True).ok
    recovered.close()


def test_rebuild_is_logged_and_replayed(tmp_path):
    ops = workload_ops()
    db = Database(wal_dir=str(tmp_path))
    apply_ops(db, ops)
    db.rebuild_facility("Student", "hobbies", "ssf")
    assert [r.type for r in db.wal.records()].count("rebuild") == 1
    expected = fingerprint(db)
    db.close()
    recovered = Database.open(str(tmp_path))
    assert fingerprint(recovered) == expected
    assert run_fsck(recovered, deep=True).ok
    recovered.close()


def test_create_index_record_of_unknown_kind_fails_replay_with_its_lsn():
    from repro.wal.log import WalRecord
    from repro.wal.replay import replay_records

    db = Database()
    apply_ops(db, workload_ops()[:2])
    record = WalRecord(40, 80, ("create_index", "rtree", "Student", "hobbies", []))
    with pytest.raises(WalError, match="lsn 40.*unknown facility kind"):
        replay_records(db, [record])


def test_fsck_reports_wal_health(tmp_path):
    db = Database(wal_dir=str(tmp_path))
    apply_ops(db, workload_ops()[:6])
    report = run_fsck(db)
    assert report.ok
    assert report.wal_records == 6
    assert "wal ok: 6 record(s)" in report.render()
    db.close()


def test_wal_recovery_leaves_logical_read_counts_clean(tmp_path):
    """The WAL lives outside the simulated device: logging adds zero pages."""
    ops = workload_ops()
    plain = Database(page_size=4096, pool_capacity=0)
    apply_ops(plain, ops)
    plain_io = plain.io_snapshot()

    logged = Database(wal_dir=str(tmp_path))
    apply_ops(logged, ops)
    logged_io = logged.io_snapshot()
    assert logged_io.logical_total == plain_io.logical_total
    logged.close()
