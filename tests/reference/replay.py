"""WAL replay one record at a time: the redo loop before batched upkeep.

Each object record redoes its object change and at once maintains every
facility on its class — ``delete`` of the old set value, ``insert`` of the
new, one call per op — rebuilding a facility the moment one of its ops
fails. A direct facility record is one call too. Records that are neither
(DDL, rebuild, flush, compact, checkpoint markers) go to the shipped
handlers. :func:`replay_one_at_a_time` is the oracle the batched
:func:`repro.wal.replay.replay_records` must match state for state.
"""

from repro.errors import ObjectStoreError, ReproError, SimulatedCrashError, WalError
from repro.objects.oid import OID
from repro.objects.serde import decode_object
from repro.wal import replay


def replay_one_at_a_time(db, records) -> int:
    """Redo ``records`` against ``db`` record by record; returns how many."""
    if db.wal is not None:
        raise WalError("replay requires the WAL to be detached (or suspended)")
    applied = 0
    for record in records:
        if record.lsn < db.wal_applied_lsn:
            continue
        handler = _HANDLERS.get(record.type) or replay._HANDLERS.get(record.type)
        if handler is None:
            raise WalError(f"wal record at lsn {record.lsn} has unknown type")
        try:
            handler(db, record.fields)
        except (SimulatedCrashError, WalError):
            raise
        except ReproError as exc:
            raise WalError(
                f"replaying wal record at lsn {record.lsn} "
                f"({record.type}) failed: {exc}"
            ) from exc
        db.wal_applied_lsn = record.next_lsn
        applied += 1
    return applied


def _apply_insert(db, fields) -> None:
    _, class_name, oid_int, blob = fields
    values = decode_object(blob)
    oid = OID.from_int(oid_int)
    try:
        db.objects.insert_with_oid(class_name, oid, values)
    except ObjectStoreError as exc:
        raise WalError(
            f"replayed insert of {oid} failed ({exc}); "
            f"the checkpoint and log disagree"
        ) from exc
    _maintain_facilities(db, class_name, oid, old_values=None, new_values=values)


def _apply_update(db, fields) -> None:
    _, oid_int, blob = fields
    oid = OID.from_int(oid_int)
    values = decode_object(blob)
    class_name = db.objects.class_name_of(oid)
    old_values = db.objects.fetch(oid)
    db.objects.update(oid, values)
    _maintain_facilities(db, class_name, oid, old_values=old_values, new_values=values)


def _apply_delete(db, fields) -> None:
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


def _apply_facility_op(db, fields) -> None:
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


def _maintain_facilities(db, class_name, oid, old_values, new_values) -> None:
    """Per-facility redo of one object mutation, rebuilding on failure."""
    for (cls, attr), per_path in db._indexes.items():
        if cls != class_name:
            continue
        old_set = frozenset(old_values[attr]) if old_values is not None else None
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


def _rebuild(db, class_name: str, attribute: str, name: str) -> None:
    from repro.recovery.rebuild import rebuild_facility

    rebuild_facility(db, class_name, attribute, name)


_HANDLERS = {
    "insert": _apply_insert,
    "update": _apply_update,
    "delete": _apply_delete,
    "facility_insert": _apply_facility_op,
    "facility_delete": _apply_facility_op,
}
