"""A promoted replica keeps its primary's durability mode and layouts.

Promotion attaches the replica's local log to its database, as recovery
does; a database that holds an LSM facility comes back in ``"lsm"``
durability either way, so new signature indexes default to the LSM layout
and the log group-commits.
"""

from __future__ import annotations

from repro.lsm.facility import LSMSignatureFacility
from repro.objects.database import DEFAULT_LSM_FSYNC_INTERVAL, Database
from repro.objects.schema import ClassSchema
from repro.replication import ReplicaDatabase

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
