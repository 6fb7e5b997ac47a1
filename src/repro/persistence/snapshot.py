"""Whole-database snapshots: save a :class:`Database` to one file, load it
back byte-identically.

The snapshot captures the full durable state: every stored page image, the
class schemas, the OID allocator and directory, and the definitions of all
access facilities (which rehydrate against their existing files rather than
being rebuilt). In-memory-only state (buffer pool contents, I/O counters)
is deliberately not part of a snapshot — loading starts with a cold cache
and fresh statistics, like a restarted database would.

Usage::

    from repro.persistence import load_database, save_database

    save_database(db, "campus.sigdb")
    db2 = load_database("campus.sigdb")
"""

from __future__ import annotations

import contextlib
import os
import shutil
from typing import Any, BinaryIO, Callable, Dict, List, Optional, Tuple, TypeVar, Union

from repro.access import catalog as facility_catalog
from repro.errors import CorruptPageError, StorageError
from repro.objects.database import Database
from repro.objects.object_file import ObjectFile, RecordAddress
from repro.objects.oid import OID, SERIAL_BITS
from repro.objects.schema import Attribute, AttributeKind, ClassSchema
from repro.obs.metrics import REGISTRY
from repro.persistence.format import read_header, read_pages, write_snapshot
from repro.wal.log import fsync_directory

PathLike = Union[str, "os.PathLike[str]"]
T = TypeVar("T")


# ----------------------------------------------------------------------
# Saving
# ----------------------------------------------------------------------
def build_catalog(db: Database) -> Dict[str, Any]:
    """The JSON-serializable description of everything but page payloads."""
    store = db.storage.store
    objects = db.objects
    classes = []
    for name in objects.class_names():
        schema = objects.schema(name)
        classes.append(
            {
                "name": name,
                "class_id": objects._class_ids[name],
                "attributes": [
                    {
                        "name": attr.name,
                        "kind": attr.kind.value,
                        "ref_class": attr.ref_class,
                    }
                    for attr in schema.attributes
                ],
            }
        )
    indexes = [
        facility_catalog.describe(cls, attr, facility)
        for (cls, attr), per_path in sorted(db._indexes.items())
        for facility in per_path.values()
    ]
    wal_stamp = {} if db.wal is None else {
        "wal": {"checkpoint_lsn": db.wal.end_lsn, "durability": db.durability}
    }
    return {
        **wal_stamp,
        "page_size": store.page_size,
        "files": [
            {
                "name": name,
                "pages": store.num_pages(name),
                # Recorded CRC32s travel with the snapshot, so corruption of
                # the snapshot file itself (or of a page before saving) is
                # detectable at load time and by the read path afterwards.
                "checksums": store.page_checksums(name),
            }
            for name in store.file_names()
        ],
        "classes": classes,
        "next_class_id": objects._next_class_id,
        "allocator": {
            str(class_id): serial
            for class_id, serial in objects._allocator._next_serial.items()
        },
        "directory": [
            [word, address.page_no, address.slot]
            for word, address in sorted(objects._directory.items())
        ],
        "indexes": indexes,
    }


def save_database(db: Database, path: PathLike) -> None:
    """Flush and snapshot ``db`` into a single file at ``path``.

    The write is atomic (:func:`write_durably`): a crash (or any
    exception) mid-save leaves a previous snapshot at ``path`` untouched
    and cleans up the partial temporary file.

    In WAL mode this is a *fuzzy checkpoint*: ``checkpoint_begin`` is
    logged first, the snapshot's catalog is stamped with the log position
    it captures, the snapshot also lands at the WAL directory's checkpoint
    path, and only then are records before the stamp dropped from the log
    (a crash anywhere in between still recovers — either from the old
    checkpoint plus the full log, or from the new one plus the tail).
    """
    wal = db.wal if db.wal is not None and db.wal.accepts_logical_records else None
    if wal is not None:
        wal.append(["checkpoint_begin"])
        # A group-committed tail reaches the disk before a snapshot
        # stamped past it does: recovery refuses a checkpoint whose LSN
        # lies beyond the log's end.
        wal.sync()
    checkpoint_lsn = wal.end_lsn if wal is not None else 0
    db.storage.flush()
    catalog = build_catalog(db)
    store = db.storage.store
    payloads: List[Tuple[str, List[bytes]]] = [
        (
            entry["name"],
            [
                store.read_page(entry["name"], page_no).image()
                for page_no in range(entry["pages"])
            ],
        )
        for entry in catalog["files"]
    ]
    path_str = os.fspath(path)
    write_durably(
        path_str, lambda stream: write_snapshot(stream, catalog, payloads)
    )
    if wal is not None:
        checkpoint_path = db.checkpoint_path
        if os.path.abspath(path_str) != os.path.abspath(checkpoint_path):
            _copy_file_durably(path_str, checkpoint_path)
        wal.truncate_until(checkpoint_lsn)
        wal.append(["checkpoint_end", checkpoint_lsn])
        db.wal_applied_lsn = wal.end_lsn
        REGISTRY.counter("wal.checkpoints").inc()


def _copy_file_durably(source: str, target: str) -> None:
    """Copy ``source`` over ``target`` with the same atomicity as a save."""
    with open(source, "rb") as src:
        write_durably(target, lambda dst: shutil.copyfileobj(src, dst))


def write_durably(
    target: str,
    write: Callable[[BinaryIO], None],
    before_rename: Optional[Callable[[str], T]] = None,
) -> Optional[T]:
    """Land a file at ``target`` atomically; return ``before_rename``'s result.

    ``write`` fills ``<target>.tmp``, which is fsynced; ``before_rename``
    (when given) then runs on the tmp path; only then is the tmp file
    renamed over ``target`` and the directory fsynced, so the rename
    itself is durable. Any failure, ``before_rename`` raising included,
    removes the tmp file and leaves ``target`` untouched.
    """
    tmp_path = f"{target}.tmp"
    try:
        with open(tmp_path, "wb") as stream:
            write(stream)
            stream.flush()
            os.fsync(stream.fileno())
        result = before_rename(tmp_path) if before_rename is not None else None
        os.replace(tmp_path, target)
        fsync_directory(os.path.dirname(os.path.abspath(target)))
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp_path)
        raise
    return result


# ----------------------------------------------------------------------
# Loading
# ----------------------------------------------------------------------
def _rehydrate_schema(entry: Dict[str, Any]) -> ClassSchema:
    return ClassSchema(
        name=entry["name"],
        attributes=[
            Attribute(
                name=attr["name"],
                kind=AttributeKind(attr["kind"]),
                ref_class=attr["ref_class"],
            )
            for attr in entry["attributes"]
        ],
    )


_REQUIRED_CATALOG_KEYS = (
    "page_size", "files", "classes", "next_class_id", "allocator",
    "directory", "indexes",
)


def _validate_catalog(catalog: Dict[str, Any]) -> None:
    missing = [key for key in _REQUIRED_CATALOG_KEYS if key not in catalog]
    if missing:
        raise StorageError(f"catalog is missing key(s) {missing}")
    for entry in catalog["files"]:
        if "name" not in entry or "pages" not in entry:
            raise StorageError(f"malformed file entry in catalog: {entry!r}")


def load_database(
    path: PathLike,
    pool_capacity: int = 0,
    verify_checksums: bool = True,
) -> Database:
    """Load a snapshot into a fresh :class:`Database`.

    Malformed snapshots — bad magic, unsupported version, truncated
    catalog or page section — raise :class:`StorageError` naming ``path``.
    With ``verify_checksums`` (the default) every loaded page is checked
    against the CRC32s recorded in the catalog and a mismatch raises
    :class:`~repro.errors.CorruptPageError`; ``fsck`` loads with
    ``verify_checksums=False`` so it can report the damage instead.
    """
    path_str = os.fspath(path)
    try:
        with open(path_str, "rb") as stream:
            header = read_header(stream)
            catalog = header.catalog
            _validate_catalog(catalog)
            page_images = read_pages(stream, header)
    except OSError as exc:
        raise StorageError(f"cannot read snapshot {path_str!r}: {exc}") from exc
    except StorageError as exc:
        raise StorageError(f"snapshot {path_str!r}: {exc}") from exc

    db = Database(page_size=catalog["page_size"], pool_capacity=pool_capacity)
    store = db.storage.store
    for entry in catalog["files"]:
        store.create_file(entry["name"])
        store.adopt_pages(
            entry["name"],
            page_images[entry["name"]],
            checksums=entry.get("checksums"),
        )
        if verify_checksums:
            bad = store.corrupt_pages(entry["name"])
            if bad:
                raise CorruptPageError(
                    f"snapshot {path_str!r}: file {entry['name']!r} page(s) "
                    f"{bad} do not match their recorded checksums"
                )

    objects = db.objects
    for class_entry in sorted(catalog["classes"], key=lambda c: c["class_id"]):
        schema = _rehydrate_schema(class_entry)
        # register manually: the object file already exists in the store
        class_id = class_entry["class_id"]
        objects._schemas[schema.name] = schema
        objects._class_ids[schema.name] = class_id
        objects._class_names[class_id] = schema.name
        paged = db.storage.open_file(objects.object_file_name(schema.name))
        objects._files[schema.name] = ObjectFile(paged)
    objects._next_class_id = catalog["next_class_id"]
    objects._allocator._next_serial = {
        int(class_id): serial
        for class_id, serial in catalog["allocator"].items()
    }
    objects._directory = {
        # from_int refuses a word no OID packs to
        OID.from_int(word).to_int(): RecordAddress(page_no, slot)
        for word, page_no, slot in catalog["directory"]
    }
    live_counts = {}
    for word in objects._directory:
        class_id = word >> SERIAL_BITS
        live_counts[class_id] = live_counts.get(class_id, 0) + 1
    objects._live_counts = live_counts

    for entry in catalog["indexes"]:
        per_path = db._indexes.setdefault((entry["class"], entry["attribute"]), {})
        facility = facility_catalog.attach(db.storage, entry)
        per_path[facility.name] = facility
    # A WAL-stamped snapshot (a checkpoint) records the log position its
    # state reflects, where replay starts, and the durability mode, which
    # only matters if it is "lsm" ("wal" follows from attaching the log).
    stamp = catalog.get("wal") or {}
    db.wal_applied_lsn = stamp.get("checkpoint_lsn", 0)
    if stamp.get("durability") == "lsm":
        db.durability = "lsm"
    return db
