"""WAL replay: redo the log tail against a checkpoint (or fresh) database.

Recovery is classic redo-only ARIES-lite: load the last checkpoint
snapshot, then re-apply every log record whose LSN is at or past the
database's ``wal_applied_lsn`` watermark. Replay is *idempotent* — records
below the watermark are skipped without touching storage, so replaying the
same tail twice (or recovering a database that already saw part of the
tail) changes nothing, including the logical page-access counters.

Because every logged operation is deterministic (OID allocation is a
per-class serial; facility maintenance is a pure function of the operation
and prior state), redoing the tail reproduces byte-for-byte the state a
never-crashed run would have reached.

When re-applying a record trips over a damaged facility, replay falls back
to :func:`repro.recovery.rebuild.rebuild_facility` — the facility is
derived data, so reconstructing it from the (already replayed) objects is
always a correct repair.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, List, Optional

from repro.errors import (
    ObjectStoreError,
    ReproError,
    SimulatedCrashError,
    WalError,
)
from repro.objects.oid import OID
from repro.objects.schema import Attribute, AttributeKind, ClassSchema
from repro.objects.serde import decode_object
from repro.obs import tracer as trace
from repro.obs.metrics import REGISTRY
from repro.wal.log import WalRecord, WriteAheadLog

if TYPE_CHECKING:
    from repro.objects.database import Database


def recover_database(
    wal_dir: str,
    page_size: int = 4096,
    pool_capacity: int = 0,
    auto_rebuild: bool = False,
    wal_fsync: bool = True,
    wal_fsync_interval: Optional[int] = None,
) -> "Database":
    """Open a WAL directory: checkpoint + tail replay → live database.

    * no checkpoint and an empty log → a fresh empty database;
    * a torn final record (crash mid-append) is truncated silently;
    * interior log corruption raises
      :class:`~repro.errors.WalCorruptError` naming the first bad LSN —
      repair with :func:`repro.wal.log.truncate_wal` (or the CLI's
      ``wal truncate``) and recover again.

    The returned database has the log attached and keeps logging.
    """
    from repro.objects.database import (
        CHECKPOINT_FILE_NAME,
        DEFAULT_LSM_FSYNC_INTERVAL,
        Database,
    )
    from repro.persistence.snapshot import load_database

    # raises on interior damage
    wal = WriteAheadLog(
        wal_dir, fsync=wal_fsync, fsync_interval=wal_fsync_interval
    )
    try:
        checkpoint = os.path.join(wal_dir, CHECKPOINT_FILE_NAME)
        if os.path.exists(checkpoint):
            db = load_database(checkpoint, pool_capacity=pool_capacity)
        else:
            db = Database(page_size=page_size, pool_capacity=pool_capacity)
        db.auto_rebuild = auto_rebuild
        replay_records(db, wal.records())
    except BaseException:
        wal.close()
        raise
    # A database holding LSM facilities comes back in "lsm" durability:
    # group-committed fsyncs are the mode's write-path contract.
    lsm_mode = any(
        getattr(facility, "is_lsm", False)
        for per_path in db._indexes.values()
        for facility in per_path.values()
    )
    if lsm_mode and wal.fsync_interval is None and wal_fsync_interval is None:
        wal.fsync_interval = DEFAULT_LSM_FSYNC_INTERVAL
    db.attach_wal(wal, wal_dir, durability="lsm" if lsm_mode else "wal")
    return db


def replay_records(db: "Database", records: List[WalRecord]) -> int:
    """Redo ``records`` against ``db``; returns how many were applied.

    Records below ``db.wal_applied_lsn`` are skipped (idempotence); each
    applied record advances the watermark to its ``next_lsn``. ``db`` must
    not have a WAL attached yet (recovery attaches it afterwards), so
    nothing applied here is re-logged.
    """
    if db.wal is not None:
        raise WalError("replay requires the WAL to be detached (or suspended)")
    applied = 0
    with trace.span("wal-replay", records=len(records)):
        for record in records:
            if record.lsn < db.wal_applied_lsn:
                continue
            _apply(db, record)
            db.wal_applied_lsn = record.next_lsn
            applied += 1
            REGISTRY.counter("recovery.wal_replayed_records").inc()
    return applied


# ----------------------------------------------------------------------
# Per-record redo
# ----------------------------------------------------------------------
def _apply(db: "Database", record: WalRecord) -> None:
    handler = _HANDLERS.get(record.type)
    if handler is None:
        raise WalError(
            f"wal record at lsn {record.lsn} has unknown type "
            f"{record.type!r}"
        )
    try:
        handler(db, record.fields)
    except (SimulatedCrashError, WalError):
        raise
    except ReproError as exc:
        raise WalError(
            f"replaying wal record at lsn {record.lsn} "
            f"({record.type}) failed: {exc}"
        ) from exc


def _apply_define_class(db: "Database", fields) -> None:
    _, name, attrs = fields
    schema = ClassSchema(
        name=name,
        attributes=[
            Attribute(name=a[0], kind=AttributeKind(a[1]), ref_class=a[2])
            for a in attrs
        ],
    )
    db.define_class(schema)


def _apply_create_index(db: "Database", fields) -> None:
    _, kind, class_name, attribute, params = fields
    db.create_index(kind, class_name, attribute, params)


def _apply_insert(db: "Database", fields) -> None:
    _, class_name, oid_int, blob = fields
    values = decode_object(blob)
    # Object first: if a facility needs rebuilding, the rebuild scans the
    # object file and must see this object. The record names its OID, and
    # the explicit-OID path honors it — serial gaps are legitimate on a
    # shard, whose log holds only its hash slice of each class. A
    # checkpoint/log disagreement surfaces as "already live" here.
    oid = OID.from_int(oid_int)
    try:
        db.objects.insert_with_oid(class_name, oid, values)
    except ObjectStoreError as exc:
        raise WalError(
            f"replayed insert of {oid} failed ({exc}); "
            f"the checkpoint and log disagree"
        ) from exc
    _maintain_facilities(db, class_name, oid, old_values=None, new_values=values)


def _apply_update(db: "Database", fields) -> None:
    _, oid_int, blob = fields
    oid = OID.from_int(oid_int)
    values = decode_object(blob)
    class_name = db.objects.class_name_of(oid)
    old_values = db.objects.fetch(oid)
    db.objects.update(oid, values)
    _maintain_facilities(
        db, class_name, oid, old_values=old_values, new_values=values
    )


def _apply_delete(db: "Database", fields) -> None:
    _, oid_int = fields
    oid = OID.from_int(oid_int)
    class_name = db.objects.class_name_of(oid)
    values = db.objects.fetch(oid)
    failed = []
    for (cls, attr), per_path in db._indexes.items():
        if cls != class_name:
            continue
        for name, facility in per_path.items():
            try:
                facility.delete(frozenset(values[attr]), oid)
            except ReproError:
                failed.append((cls, attr, name))
    db.objects.delete(oid)
    # Rebuild only after the object is gone, so the reconstruction —
    # which scans live objects — cannot resurrect it.
    for cls, attr, name in failed:
        _rebuild(db, cls, attr, name)


def _apply_facility_op(db: "Database", fields) -> None:
    op, class_name, attribute, name, oid_int, elements = fields
    facility = db.index(class_name, attribute, name)
    oid = OID.from_int(oid_int)
    try:
        if op == "facility_insert":
            facility.insert(frozenset(elements), oid)
        else:
            facility.delete(frozenset(elements), oid)
    except ReproError:
        _rebuild(db, class_name, attribute, name)


def _apply_rebuild(db: "Database", fields) -> None:
    _, class_name, attribute, name = fields
    _rebuild(db, class_name, attribute, name)


def _apply_flush_index(db: "Database", fields) -> None:
    """Redo an explicit LSM memtable flush at the same history point."""
    _, class_name, attribute, name = fields
    db.index(class_name, attribute, name).flush()


def _apply_compact_index(db: "Database", fields) -> None:
    _, class_name, attribute, name = fields
    db.index(class_name, attribute, name).compact()


def _apply_checkpoint(db: "Database", fields) -> None:
    """Checkpoint markers carry no state to redo."""


def _maintain_facilities(
    db: "Database",
    class_name: str,
    oid: OID,
    old_values: Optional[dict],
    new_values: dict,
) -> None:
    """Per-facility redo of one object mutation, rebuilding on failure."""
    for (cls, attr), per_path in db._indexes.items():
        if cls != class_name:
            continue
        old_set = (
            frozenset(old_values[attr]) if old_values is not None else None
        )
        new_set = frozenset(new_values[attr])
        if old_set == new_set:
            continue
        for name, facility in per_path.items():
            try:
                if old_set is not None:
                    facility.delete(old_set, oid)
                facility.insert(new_set, oid)
            except ReproError:
                _rebuild(db, cls, attr, name)


def _rebuild(db: "Database", class_name: str, attribute: str, name: str) -> None:
    """Replay's repair path: reconstruct the facility from live objects."""
    from repro.recovery.rebuild import rebuild_facility

    REGISTRY.counter("recovery.wal_replay_rebuilds").inc()
    rebuild_facility(db, class_name, attribute, name)


_HANDLERS = {
    "define_class": _apply_define_class,
    "create_index": _apply_create_index,
    "insert": _apply_insert,
    "update": _apply_update,
    "delete": _apply_delete,
    "facility_insert": _apply_facility_op,
    "facility_delete": _apply_facility_op,
    "rebuild": _apply_rebuild,
    "flush_index": _apply_flush_index,
    "compact_index": _apply_compact_index,
    "checkpoint_begin": _apply_checkpoint,
    "checkpoint_end": _apply_checkpoint,
}
