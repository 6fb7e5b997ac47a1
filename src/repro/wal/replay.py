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

An object record is redone through the facade's write path,
:meth:`Database._mutate`: the store change and the running statistics as
the record is read, while the facility ops it derives are queued, in log
order, with those of the facility records a log from an earlier build may
hold. When the batch ends — before any other record (DDL, rebuild, flush,
compact, checkpoint markers), at :data:`BATCH_OP_CAP` queued ops, and at
the end of the tail — each facility gets its ops in one
:meth:`SetAccessFacility.apply`, so a page they touch is written once. A
facility whose ops cannot be applied is rebuilt from the objects, which
hold every record of the batch by then (:func:`repro.recovery.rebuild.
rebuild_facility`): the facility is derived data, so that is always a
correct repair.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, List, Tuple

from repro.errors import (
    CheckpointMismatchError,
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
from repro.wal.log import WAL_FILE_NAME, WalRecord, WriteAheadLog, truncate_wal

if TYPE_CHECKING:
    from repro.objects.database import Database

#: queued facility ops at which a batch ends early, bounding its memory
BATCH_OP_CAP = 4096


def recover_database(
    wal_dir: str,
    page_size: int = 4096,
    pool_capacity: int = 0,
) -> "Database":
    """Open a WAL directory: checkpoint + tail replay → live database.

    * no checkpoint and an empty log → a fresh empty database;
    * a torn final record (crash mid-append) is truncated silently;
    * interior log corruption raises
      :class:`~repro.errors.WalCorruptError` naming the first bad LSN —
      repair with :func:`truncate_log` (or the CLI's ``wal truncate``)
      and recover again;
    * a log that does not cover the checkpoint's LSN (``base_lsn <=
      checkpoint_lsn <= end_lsn``, where no checkpoint means LSN 0)
      raises :class:`~repro.errors.CheckpointMismatchError`: the records
      between them are gone, and replaying over the gap would reopen a
      state no history reached.

    The returned database has the log attached and keeps logging.
    """
    from repro.objects.database import CHECKPOINT_FILE_NAME, Database
    from repro.persistence.snapshot import load_database

    # raises on interior damage
    wal = WriteAheadLog(wal_dir)
    try:
        checkpoint = os.path.join(wal_dir, CHECKPOINT_FILE_NAME)
        if os.path.exists(checkpoint):
            db = load_database(checkpoint, pool_capacity=pool_capacity)
        else:
            db = Database(page_size=page_size, pool_capacity=pool_capacity)
        if not wal.base_lsn <= db.wal_applied_lsn <= wal.end_lsn:
            raise CheckpointMismatchError(
                f"wal directory {wal_dir!r}: the checkpoint is at lsn "
                f"{db.wal_applied_lsn} but the log covers "
                f"[{wal.base_lsn}, {wal.end_lsn}]; the records between "
                "them are lost",
                checkpoint_lsn=db.wal_applied_lsn,
                base_lsn=wal.base_lsn,
                end_lsn=wal.end_lsn,
            )
        replay_records(db, wal.records())
    except BaseException:
        wal.close()
        raise
    # A database whose log or checkpoint names "lsm" durability, or that
    # holds an LSM facility, comes back in that mode.
    db.attach_wal(wal, wal_dir)
    return db


def truncate_log(wal_dir: str, lsn: int) -> Tuple[int, int]:
    """Cut a WAL directory's log at record boundary ``lsn`` (offline).

    :func:`~repro.wal.log.truncate_wal` on the directory's log, except
    that a cut below the checkpoint's LSN (a crash kept the records the
    checkpoint's log truncation would have dropped) restarts the log
    empty at that LSN: recovery refuses a log that ends before its
    checkpoint, and every record below the LSN is in the checkpoint.
    Returns ``(records_dropped, new_end_lsn)``.
    """
    from repro.objects.database import CHECKPOINT_FILE_NAME
    from repro.persistence.format import read_header

    dropped, end_lsn = truncate_wal(os.path.join(wal_dir, WAL_FILE_NAME), lsn)
    checkpoint = os.path.join(wal_dir, CHECKPOINT_FILE_NAME)
    if os.path.exists(checkpoint):
        with open(checkpoint, "rb") as stream:
            stamp = read_header(stream).catalog.get("wal") or {}
        if end_lsn < stamp.get("checkpoint_lsn", 0):
            end_lsn = stamp["checkpoint_lsn"]
            wal = WriteAheadLog(wal_dir)
            wal.reset(end_lsn)
            wal.close()
    return dropped, end_lsn


def replay_records(db: "Database", records: List[WalRecord]) -> int:
    """Redo ``records`` against ``db``; returns how many were applied.

    Records below ``db.wal_applied_lsn`` are skipped (idempotence); each
    applied record advances the watermark to its ``next_lsn``, and the
    batch in flight is applied before this returns or raises. ``db`` must
    not have a WAL attached yet (recovery attaches it afterwards), so
    nothing applied here is re-logged.
    """
    if db.wal is not None:
        raise WalError("replay requires the WAL to be detached (or suspended)")
    applied, batch = 0, _Batch(db)
    with trace.span("wal-replay", records=len(records)):
        try:
            for record in records:
                if record.lsn < db.wal_applied_lsn:
                    continue
                _apply(db, record, batch)
                db.wal_applied_lsn = record.next_lsn
                applied += 1
                REGISTRY.counter("recovery.wal_replayed_records").inc()
                if batch.size >= BATCH_OP_CAP:
                    batch.end()
        finally:
            batch.end()
    return applied


class _Batch:
    """Queued ops: ``{(class, attribute, facility name): (facility, ops)}``."""

    def __init__(self, db: "Database"):
        self.db, self.queued, self.size = db, {}, 0

    def add(self, path: Tuple[str, str], facility, op) -> None:
        """Queue ``op`` for ``facility`` on ``path`` (``(class, attribute)``)."""
        self.queued.setdefault(path + (facility.name,), (facility, []))[1].append(op)
        self.size += 1

    def end(self) -> None:
        """Hand each facility its queued ops in one ``apply``."""
        if not self.size:
            return
        with trace.span("wal-replay.batch", ops=self.size) as span:
            with self.db.storage.stats.metered() as meter:
                queued, self.queued, self.size = self.queued, {}, 0
                for (cls, attr, name), (facility, ops) in queued.items():
                    try:
                        facility.apply(ops)
                    except ReproError:
                        _rebuild(self.db, cls, attr, name)
            if trace.current() is not trace.NULL_TRACER:
                span.set("pages_written", meter.delta().total().logical_writes)


def _apply(db: "Database", record: WalRecord, batch: _Batch) -> None:
    if record.type in _BATCHED:
        handler, target = _BATCHED[record.type], batch
    elif record.type in _HANDLERS:
        batch.end()
        handler, target = _HANDLERS[record.type], db
    else:
        raise WalError(
            f"wal record at lsn {record.lsn} has unknown type {record.type!r}"
        )
    try:
        handler(target, record.fields)
    except (SimulatedCrashError, WalError):
        raise
    except ReproError as exc:
        raise WalError(
            f"replaying wal record at lsn {record.lsn} ({record.type}) failed: {exc}"
        ) from exc


def _apply_insert(batch: _Batch, fields) -> None:
    _, class_name, oid_int, blob = fields
    values = decode_object(blob)
    # The record names its OID, and the explicit-OID path honors it —
    # serial gaps are legitimate on a shard, whose log holds only its
    # hash slice of each class. A checkpoint/log disagreement surfaces as
    # "already live" here.
    oid, objects = OID.from_int(oid_int), batch.db.objects
    try:
        batch.db._mutate(
            class_name, oid, None, values,
            lambda: objects.insert_with_oid(class_name, oid, values), batch.add,
        )
    except ObjectStoreError as exc:
        raise WalError(
            f"replayed insert of {oid} failed ({exc}); "
            f"the checkpoint and log disagree"
        ) from exc


def _apply_update(batch: _Batch, fields) -> None:
    _, oid_int, blob = fields
    oid, objects = OID.from_int(oid_int), batch.db.objects
    values = decode_object(blob)
    batch.db._mutate(
        objects.class_name_of(oid), oid, objects.fetch(oid), values,
        lambda: objects.update(oid, values), batch.add,
    )


def _apply_delete(batch: _Batch, fields) -> None:
    oid, objects = OID.from_int(fields[1]), batch.db.objects
    batch.db._mutate(
        objects.class_name_of(oid), oid, objects.fetch(oid), None,
        lambda: objects.delete(oid), batch.add,
    )


def _apply_facility_op(batch: _Batch, fields) -> None:
    """A facility record, which only logs of earlier builds hold."""
    op, class_name, attribute, name, oid_int, elements = fields
    op = ("insert" if op == "facility_insert" else "delete", frozenset(elements))
    batch.add(
        (class_name, attribute),
        batch.db.index(class_name, attribute, name),
        op + (OID.from_int(oid_int),),
    )


def _apply_define_class(db: "Database", fields) -> None:
    _, name, attrs = fields
    attributes = [
        Attribute(name=a[0], kind=AttributeKind(a[1]), ref_class=a[2]) for a in attrs
    ]
    db.define_class(ClassSchema(name=name, attributes=attributes))


def _apply_create_index(db: "Database", fields) -> None:
    db.create_index(*fields[1:])  # kind, class, attribute, params


def _apply_rebuild(db: "Database", fields) -> None:
    _rebuild(db, *fields[1:])


def _apply_lsm_op(db: "Database", fields) -> None:
    """Redo an explicit LSM flush or compaction at the same history point."""
    facility = db.index(*fields[1:])
    if fields[0] == "flush_index":
        facility.flush()
    else:
        facility.compact()


def _apply_durability(db: "Database", fields) -> None:
    """The mode a ``durability="lsm"`` database was created in."""
    db.durability = fields[1]


def _apply_checkpoint(db: "Database", fields) -> None:
    """Checkpoint markers carry no state to redo."""


def _rebuild(db: "Database", class_name: str, attribute: str, name: str) -> None:
    """Replay's repair path: reconstruct the facility from live objects."""
    from repro.recovery.rebuild import rebuild_facility

    REGISTRY.counter("recovery.wal_replay_rebuilds").inc()
    rebuild_facility(db, class_name, attribute, name)


#: object records, and the facility records of logs from earlier builds:
#: their facility upkeep joins the batch
_BATCHED = {
    "insert": _apply_insert,
    "update": _apply_update,
    "delete": _apply_delete,
    "facility_insert": _apply_facility_op,
    "facility_delete": _apply_facility_op,
}

#: every other record: the batch ends before it is redone
_HANDLERS = {
    "define_class": _apply_define_class,
    "create_index": _apply_create_index,
    "rebuild": _apply_rebuild,
    "flush_index": _apply_lsm_op,
    "compact_index": _apply_lsm_op,
    "durability": _apply_durability,
    "checkpoint_begin": _apply_checkpoint,
    "checkpoint_end": _apply_checkpoint,
}
