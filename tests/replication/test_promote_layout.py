"""A promoted replica keeps its primary's durability mode and layouts.

Promotion attaches the replica's local log to its database, as recovery
does. A ``durability="lsm"`` database logs its mode when it is created and
stamps it on every checkpoint, so it comes back in ``"lsm"`` durability
either way, with or without an LSM facility: new signature indexes
default to the LSM layout and the log group-commits. A directory written
before the mode was logged is ``"lsm"`` if it holds an LSM facility.
"""

from __future__ import annotations

import pytest

from repro.lsm.facility import LSMSignatureFacility
from repro.objects.database import DEFAULT_LSM_FSYNC_INTERVAL, Database
from repro.objects.schema import ClassSchema
from repro.obs.metrics import REGISTRY
from repro.replication import ReplicaDatabase
from repro.server.net import TcpQueryServer

# Nothing listens here: the replica never starts tailing.
_UNUSED_PRIMARY = "sigfile://127.0.0.1:9"


def _lsm_directory(path: str) -> None:
    db = Database(durability="lsm", wal_dir=path)
    db.define_class(ClassSchema.build("Student", name="scalar", hobbies="set"))
    db.create_bssf_index("Student", "hobbies", 64, 2)
    for number in range(5):
        db.insert("Student", {"name": f"s{number}", "hobbies": {number, "x"}})
    db.close()


def test_promoted_lsm_replica_stays_lsm(tmp_path):
    wal_dir = str(tmp_path / "wal")
    _lsm_directory(wal_dir)
    replica = ReplicaDatabase(_UNUSED_PRIMARY, wal_dir, auto_start=False)
    try:
        db = replica.promote()
        assert db.durability == "lsm"
        assert db.wal.fsync_interval == DEFAULT_LSM_FSYNC_INTERVAL
        assert isinstance(db.index("Student", "hobbies", "bssf"), LSMSignatureFacility)
        created = db.create_ssf_index("Student", "hobbies", 64, 2)
        assert isinstance(created, LSMSignatureFacility)
        assert created.create_params() == (
            "ssf", [64, 2, 0, True, created.flush_threshold, created.fanout]
        )
    finally:
        replica.close()
        replica.database.close()


def test_promotion_and_recovery_agree_on_durability(tmp_path):
    wal_dir = str(tmp_path / "wal")
    _lsm_directory(wal_dir)
    reopened = Database.open(wal_dir)
    expected = reopened.durability
    reopened.close()
    replica = ReplicaDatabase(_UNUSED_PRIMARY, wal_dir, auto_start=False)
    try:
        assert replica.promote().durability == expected == "lsm"
    finally:
        replica.close()
        replica.database.close()


def _index_free_lsm_directory(path: str, checkpoint: bool) -> None:
    """An ``"lsm"`` database with objects but no facility yet."""
    db = Database(durability="lsm", wal_dir=path)
    db.define_class(ClassSchema.build("Student", name="scalar", hobbies="set"))
    db.insert("Student", {"name": "s", "hobbies": {"x"}})
    if checkpoint:
        db.checkpoint()  # the log's mode record is truncated away
    db.close()


def _mode(db: Database) -> tuple:
    created = db.create_ssf_index("Student", "hobbies", 64, 2)
    return db.durability, db.wal.fsync_interval, created.is_lsm


@pytest.mark.parametrize("checkpoint", [False, True], ids=["log", "checkpoint"])
def test_an_lsm_database_without_an_lsm_facility_reopens_lsm(tmp_path, checkpoint):
    wal_dir = str(tmp_path / "wal")
    _index_free_lsm_directory(wal_dir, checkpoint)
    db = Database.open(wal_dir)
    try:
        assert _mode(db) == ("lsm", DEFAULT_LSM_FSYNC_INTERVAL, True)
    finally:
        db.close()


@pytest.mark.parametrize("checkpoint", [False, True], ids=["log", "checkpoint"])
def test_an_lsm_database_without_an_lsm_facility_promotes_lsm(tmp_path, checkpoint):
    wal_dir = str(tmp_path / "wal")
    _index_free_lsm_directory(wal_dir, checkpoint)
    replica = ReplicaDatabase(_UNUSED_PRIMARY, wal_dir, auto_start=False)
    try:
        assert _mode(replica.promote()) == ("lsm", DEFAULT_LSM_FSYNC_INTERVAL, True)
    finally:
        replica.close()
        replica.database.close()


@pytest.mark.parametrize("checkpoint", [False, True], ids=["record", "checkpoint-install"])
def test_a_tailing_replica_of_an_lsm_primary_promotes_lsm(tmp_path, checkpoint):
    """The mode reaches a replica as a shipped record or, once a checkpoint
    truncated that record away, in the stamp of the installed checkpoint."""
    primary = Database(durability="lsm", wal_dir=str(tmp_path / "primary"))
    primary.define_class(ClassSchema.build("Student", name="scalar", hobbies="set"))
    primary.insert("Student", {"name": "s", "hobbies": {"x"}})
    if checkpoint:
        primary.checkpoint()
    server = TcpQueryServer(primary, heartbeat_seconds=0.1).start()
    replica = ReplicaDatabase(
        server.url, str(tmp_path / "replica"), stall_timeout_seconds=3.0
    )
    try:
        assert replica.wait_for_lsn(primary.wal.end_lsn, timeout=10.0)
        assert REGISTRY.counter("replication.resyncs").value == int(checkpoint)
        assert _mode(replica.promote()) == ("lsm", DEFAULT_LSM_FSYNC_INTERVAL, True)
    finally:
        replica.close()
        replica.database.close()
        server.stop(drain=False)
        primary.close()


def test_a_wal_database_stays_wal(tmp_path):
    wal_dir = str(tmp_path / "wal")
    db = Database(wal_dir=wal_dir)
    db.define_class(ClassSchema.build("Student", name="scalar", hobbies="set"))
    db.checkpoint()
    db.close()
    db = Database.open(wal_dir)
    try:
        assert _mode(db) == ("wal", None, False)
    finally:
        db.close()
