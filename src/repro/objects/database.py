"""The OODB facade: schema + objects + set access facilities in one place.

``Database`` wires together the storage manager, the object store, and any
number of access facilities over set-valued attribute paths (several
facilities may index the same path — that is exactly how the experiments
compare SSF, BSSF and NIX on identical data). All object mutations keep
every affected index synchronized.

Concurrency: the facade carries one database-wide reader-writer latch
(:class:`~repro.concurrency.RWLatch`). Queries hold it in read mode via
:meth:`Database.read_scope`; every mutating facade operation takes write
mode, and checkpoint/snapshot hold :meth:`Database.exclusive_scope`. The
latch serializes *structure* changes against readers — per-page counters
stay exact through the thread-safe storage substrate underneath.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.access import catalog
from repro.access.base import FacilityOp, SetAccessFacility
from repro.concurrency import RWLatch
from repro.errors import (
    AccessFacilityError,
    ConfigurationError,
    SchemaError,
    StorageError,
)
from repro.objects.object_store import ObjectStore
from repro.objects.oid import OID
from repro.objects.schema import ClassSchema
from repro.objects.serde import encode_object
from repro.storage.paged_file import StorageManager
from repro.storage.stats import IOSnapshot

IndexKey = Tuple[str, str]  # (class name, set attribute name)

#: The durability contract of a :class:`Database`:
#: ``"none"`` — in-memory only, nothing survives the process;
#: ``"snapshot"`` — durable exactly at :func:`save_database` points;
#: ``"wal"`` — every mutating operation is redo-logged (fsynced) before it
#: applies, so the last checkpoint plus the log tail survives any crash;
#: ``"lsm"`` — WAL durability with the LSM write path: new signature
#: facilities default to memtable + immutable runs, and log fsyncs are
#: group-committed (:data:`DEFAULT_LSM_FSYNC_INTERVAL`) since the WAL only
#: needs to cover the memtable.
DURABILITY_MODES = ("none", "snapshot", "wal", "lsm")

#: Snapshot file a WAL directory's checkpoints are written to.
CHECKPOINT_FILE_NAME = "checkpoint.sigdb"

#: Group-commit width for ``durability="lsm"``: the log buffers frames and
#: fsyncs every Nth append (and on checkpoint/close/read) instead of on
#: every record. Matches the default memtable flush threshold — the log
#: only covers the memtable, so the crash-loss window is one flush cycle.
DEFAULT_LSM_FSYNC_INTERVAL = 256


def _apply_op(path: IndexKey, facility: SetAccessFacility, op: FacilityOp) -> None:
    """The facade's upkeep: each op applied as it is derived."""
    facility.apply([op])


class Database:
    """A small but complete object database."""

    def __init__(
        self,
        page_size: int = 4096,
        pool_capacity: int = 0,
        durability: Optional[str] = None,
        wal_dir: Optional[str] = None,
    ):
        # The facade-level reader-writer latch: queries share it in read
        # mode, every mutating facade operation takes it in write mode.
        self.latch = RWLatch("db")
        self.storage = StorageManager(page_size=page_size, pool_capacity=pool_capacity)
        self.objects = ObjectStore(self.storage)
        self._indexes: Dict[IndexKey, Dict[str, SetAccessFacility]] = {}
        #: Facilities whose storage failed a read or checksum, keyed
        #: ``(class, attribute, facility name)`` -> reason. Queries answer
        #: via object-file scan until the facility is rebuilt.
        self._degraded: Dict[Tuple[str, str, str], str] = {}
        if durability is None:
            durability = "wal" if wal_dir is not None else "snapshot"
        if durability not in DURABILITY_MODES:
            raise ConfigurationError(
                f"durability must be one of {DURABILITY_MODES}, got {durability!r}"
            )
        if durability not in ("wal", "lsm") and wal_dir is not None:
            raise ConfigurationError(
                f"wal_dir is only meaningful with durability='wal' or "
                f"'lsm', not {durability!r}"
            )
        self.durability = durability
        #: True on a replica: every facade mutation raises
        #: :class:`~repro.errors.ReadOnlyReplicaError` (shipped WAL records
        #: are applied through a scope that lifts the flag).
        self.read_only = False
        #: the attached :class:`~repro.wal.WriteAheadLog` (``"wal"`` mode only)
        self.wal = None
        self.wal_dir: Optional[str] = None
        #: LSN up to which the log is reflected in this database's state.
        #: Replay skips records below it, which is what makes redo
        #: idempotent: replaying the same tail twice is a no-op.
        self.wal_applied_lsn = 0
        if durability in ("wal", "lsm"):
            if wal_dir is None:
                raise ConfigurationError(
                    f"durability={durability!r} requires wal_dir"
                )
            from repro.wal.log import WriteAheadLog

            wal = WriteAheadLog(wal_dir)
            if wal.end_lsn > 0 or os.path.exists(
                os.path.join(wal_dir, CHECKPOINT_FILE_NAME)
            ):
                wal.close()
                raise StorageError(
                    f"wal directory {wal_dir!r} holds an existing log or "
                    "checkpoint; recover it with Database.open(wal_dir) "
                    "instead of starting a fresh database over it"
                )
            if durability == "lsm":  # reopened or promoted, it stays "lsm"
                wal.append(["durability", durability])
            self.attach_wal(wal, wal_dir)
        from repro.objects.statistics import StatisticsCache

        self.statistics = StatisticsCache()

    # ------------------------------------------------------------------
    # Durability
    # ------------------------------------------------------------------
    @classmethod
    def open(
        cls,
        wal_dir: str,
        page_size: int = 4096,
        pool_capacity: int = 0,
    ) -> "Database":
        """Recover a WAL-mode database from its directory.

        Loads the checkpoint snapshot if one exists (an empty database
        otherwise), replays the log tail — truncating a torn final record,
        raising :class:`~repro.errors.WalCorruptError` on interior damage —
        and returns the database with the log attached for further logging.
        A database created with ``durability="lsm"`` (its log or checkpoint
        says so) or holding an LSM facility comes back in ``"lsm"``
        durability (group-committed fsyncs).
        """
        from repro.wal.replay import recover_database

        return recover_database(
            wal_dir, page_size=page_size, pool_capacity=pool_capacity
        )

    def attach_wal(self, wal, wal_dir: str) -> None:
        """Bind an open log to this database.

        The database takes ``"lsm"`` durability if it is in that mode
        already (created so, or its log or checkpoint said so) or holds an
        LSM facility (as a directory written before the mode was logged
        shows it), and ``"wal"`` otherwise. The mode sets the log's fsync
        interval: ``"lsm"`` group-commits every
        :data:`DEFAULT_LSM_FSYNC_INTERVAL` records, ``"wal"`` fsyncs every
        record, so the mode's write-path contract holds after recovery and
        promotion too.
        """
        lsm = self.durability == "lsm" or any(
            facility.is_lsm for _, _, facility in self._facilities()
        )
        wal.fsync_interval = DEFAULT_LSM_FSYNC_INTERVAL if lsm else None
        self.wal, self.wal_dir = wal, wal_dir
        self.durability = "lsm" if lsm else "wal"
        self.wal_applied_lsn = wal.end_lsn

    def _facilities(self) -> Iterator[Tuple[str, str, SetAccessFacility]]:
        """``(class, attribute, facility)`` for every facility, sorted by
        path, then by facility name."""
        for (class_name, attribute), per_path in sorted(self._indexes.items()):
            for name in sorted(per_path):
                yield class_name, attribute, per_path[name]

    @property
    def checkpoint_path(self) -> Optional[str]:
        return (
            os.path.join(self.wal_dir, CHECKPOINT_FILE_NAME)
            if self.wal_dir is not None
            else None
        )

    def checkpoint(self) -> str:
        """Snapshot to the WAL directory and truncate the log.

        A fuzzy checkpoint in the ARIES sense: ``checkpoint_begin`` is
        logged, the snapshot is written stamped with the current LSN, and
        records before that LSN are dropped from the log. Returns the
        checkpoint snapshot path.
        """
        if self.wal is None:
            raise StorageError(
                "checkpoint() requires durability='wal' or 'lsm'"
            )
        from repro.persistence.snapshot import save_database

        path = self.checkpoint_path
        with self.exclusive_scope():
            save_database(self, path)
        return path

    def close(self) -> None:
        """Release OS resources (the WAL file handle); safe to call twice."""
        if self.wal is not None:
            self.wal.close()

    def flush_indexes(self) -> None:
        """Seal every LSM facility's memtable into a run.

        WAL-logged like any other mutation: replay re-runs the flush at
        the same point in the operation history, so recovered run layouts
        stay byte-identical.
        """
        self._each_lsm("flush_index", lambda facility: facility.flush())

    def compact_indexes(self) -> None:
        """Run tiered compaction to quiescence on every LSM facility (WAL-logged)."""
        self._each_lsm("compact_index", lambda facility: facility.compact())

    def _each_lsm(self, record: str, body: Callable) -> None:
        """Run ``body`` on every LSM facility, each under its own
        ``[record, class, attribute, name]`` WAL record."""
        for class_name, attribute, facility in list(self._facilities()):
            if not facility.is_lsm:
                continue
            with self.write_scope():
                with self._wal_op(
                    lambda: [record, class_name, attribute, facility.name]
                ):
                    body(facility)

    @contextmanager
    def _wal_op(self, make_fields: Callable[[], list]):
        """Choke point for logical redo logging.

        When WAL durability is on (and we are not already inside a logical
        operation or a replay), ``make_fields()`` builds the record, which
        is durably appended *before* the body runs; a mutator the body
        calls logs nothing, since the record already implies it (a
        rebuild's ``create_index``).

        Every facade mutator wraps its body in this scope, which makes it
        the one place the replica read-only guard needs to live.
        """
        if self.read_only:
            from repro.errors import ReadOnlyReplicaError

            raise ReadOnlyReplicaError(
                "this database is a read-only replica; write to the "
                "primary or promote() the replica first"
            )
        wal = self.wal
        if wal is None or not wal.accepts_logical_records:
            yield
            return
        wal.append(make_fields())
        with wal.logical_op():
            yield
        self.wal_applied_lsn = wal.end_lsn

    # ------------------------------------------------------------------
    # Latching
    # ------------------------------------------------------------------
    def read_scope(self):
        """Shared (read-mode) hold on the facade latch for the body.

        The query executor opens one of these around every plan execution.
        """
        return self.latch.read_scope()

    def write_scope(self):
        """Exclusive (write-mode) hold for a mutation."""
        return self.latch.write_scope()

    def exclusive_scope(self):
        """Whole-database exclusion (checkpoint, snapshot save, replica
        apply); the same hold as :meth:`write_scope`, named for intent."""
        return self.latch.write_scope()

    def attach_fault_injector(self, injector=None, **kwargs):
        """Interpose a fault injector on the device *and* the WAL.

        Same contract as
        :meth:`~repro.storage.paged_file.StorageManager.attach_fault_injector`,
        plus: when this database logs through a WAL, the injector also
        intercepts ``wal-append`` operations (crash / torn / transient
        rules), so crash matrices can kill the process at any log point.
        """
        injector = self.storage.attach_fault_injector(injector, **kwargs)
        if self.wal is not None:
            self.wal.fault_injector = injector
        return injector

    def detach_fault_injector(self) -> None:
        self.storage.detach_fault_injector()
        if self.wal is not None:
            self.wal.fault_injector = None

    # ------------------------------------------------------------------
    # Schema
    # ------------------------------------------------------------------
    def define_class(self, schema: ClassSchema) -> None:
        with self.write_scope():
            if schema.name in self.objects.class_names():
                # Pre-check so a failing DDL never reaches the log.
                raise SchemaError(f"class already defined: {schema.name!r}")
            with self._wal_op(
                lambda: [
                    "define_class",
                    schema.name,
                    [
                        [a.name, a.kind.value, a.ref_class]
                        for a in schema.attributes
                    ],
                ]
            ):
                self.objects.define_class(schema)

    def schema(self, class_name: str) -> ClassSchema:
        return self.objects.schema(class_name)

    # ------------------------------------------------------------------
    # Index management
    # ------------------------------------------------------------------
    def _check_indexable(self, class_name: str, attribute: str) -> None:
        attr = self.schema(class_name).attribute(attribute)
        if not attr.is_set:
            raise SchemaError(
                f"cannot build a set access facility on scalar attribute "
                f"{class_name}.{attribute}"
            )

    def create_ssf_index(
        self,
        class_name: str,
        attribute: str,
        signature_bits: int,
        bits_per_element: int,
        seed: int = 0,
        lsm: Optional[bool] = None,
        flush_threshold: Optional[int] = None,
        fanout: Optional[int] = None,
    ) -> SetAccessFacility:
        """Sequential signature file on ``class.attribute``.

        With ``lsm=True`` (or on a ``durability="lsm"`` database) the
        facility is LSM-structured: SSF-format immutable runs behind a
        memtable, answer-identical to the in-place layout.
        """
        return self.create_index("ssf", class_name, attribute, [
            signature_bits, bits_per_element, seed, lsm, flush_threshold, fanout,
        ])

    def create_bssf_index(
        self,
        class_name: str,
        attribute: str,
        signature_bits: int,
        bits_per_element: int,
        seed: int = 0,
        worst_case_insert: bool = False,
        lsm: Optional[bool] = None,
        flush_threshold: Optional[int] = None,
        fanout: Optional[int] = None,
    ) -> SetAccessFacility:
        """Bit-sliced signature file on ``class.attribute``.

        ``lsm=True`` (default on ``durability="lsm"`` databases) builds the
        LSM-structured variant over BSSF-format runs. ``worst_case_insert``
        is the in-place facility's insert option (touch every slice, the
        paper's ``UC_I = F + 1``); LSM runs are bulk-loaded, so it has no
        effect there.
        """
        return self.create_index("bssf", class_name, attribute, [
            signature_bits, bits_per_element, seed, worst_case_insert, lsm,
            flush_threshold, fanout,
        ])

    def create_nested_index(
        self, class_name: str, attribute: str, overflow_chains: bool = False
    ) -> SetAccessFacility:
        """Nested index (NIX) on ``class.attribute``.

        ``overflow_chains=True`` lifts the paper's single-leaf posting-list
        limit (needed for heavily skewed domains) at the cost of extra page
        reads on hot keys.
        """
        return self.create_index("nix", class_name, attribute, [overflow_chains])

    def create_index(
        self, kind: str, class_name: str, attribute: str, params: list
    ) -> SetAccessFacility:
        """Create a facility from a ``(kind, params)`` pair.

        The pair is what a ``create_index`` WAL record logs and what
        :meth:`SetAccessFacility.create_params` returns; the facility
        catalog (:mod:`repro.access.catalog`) names the parameters. A
        shorter list (an older record) and ``None`` entries take the
        defaults; an unset ``lsm`` follows the database's durability mode,
        so an ``"lsm"``-mode database builds LSM signature facilities and
        any other mode in-place ones. An explicit layout always wins, so
        the two can be mixed on one database.
        """
        params = catalog.resolve(kind, params, self.durability == "lsm")
        key = (class_name, attribute)
        with self.write_scope():
            self._check_indexable(class_name, attribute)
            if kind in self._indexes.get(key, {}):  # before anything is logged
                raise AccessFacilityError(
                    f"a {kind!r} index already exists on {class_name}.{attribute}"
                )
            with self._wal_op(
                lambda: ["create_index", kind, class_name, attribute, params]
            ):
                facility = catalog.create(
                    self.storage, kind, class_name, attribute, params
                )
                self._indexes.setdefault(key, {})[kind] = facility
                # Backfill from existing objects so indexes may be added
                # lazily, bottom-up (one write per page) instead of paying
                # per-object maintenance cost.
                if self.objects.count(class_name):
                    facility.bulk_load(
                        (frozenset(values[attribute]), oid)
                        for oid, values in self.objects.scan(class_name)
                    )
            return facility

    def indexes_on(self, class_name: str, attribute: str) -> Dict[str, SetAccessFacility]:
        return dict(self._indexes.get((class_name, attribute), {}))

    def indexed_paths(self) -> List[IndexKey]:
        """Every ``(class, attribute)`` pair that carries at least one
        facility, sorted — the iteration surface for schema replication."""
        return sorted(self._indexes)

    def index(
        self, class_name: str, attribute: str, facility_name: Optional[str] = None
    ) -> SetAccessFacility:
        """One facility on the path; by name, or the only one if unambiguous."""
        per_path = self._indexes.get((class_name, attribute), {})
        if not per_path:
            raise AccessFacilityError(
                f"no index on {class_name}.{attribute}"
            )
        if facility_name is None:
            if len(per_path) > 1:
                raise AccessFacilityError(
                    f"multiple indexes on {class_name}.{attribute}: "
                    f"{sorted(per_path)}; name one explicitly"
                )
            return next(iter(per_path.values()))
        try:
            return per_path[facility_name]
        except KeyError:
            raise AccessFacilityError(
                f"no {facility_name!r} index on {class_name}.{attribute}"
            ) from None

    # ------------------------------------------------------------------
    # Object lifecycle (index-maintaining)
    # ------------------------------------------------------------------
    def insert(self, class_name: str, values: Dict[str, Any]) -> OID:
        return self._insert(class_name, None, values)

    def insert_with_oid(
        self, class_name: str, oid: OID, values: Dict[str, Any]
    ) -> OID:
        """Insert under a caller-chosen OID, maintaining every index.

        The shard-loading path: :func:`repro.sharding.partition_database`
        places each object on its hash-owner shard under the *original*
        OID, so sharded query answers are row-for-row identical to the
        unsharded database's. WAL records look exactly like a plain
        insert's (the record names its OID either way), so replay and log
        shipping need no new record kind.
        """
        return self._insert(class_name, oid, values)

    def _insert(
        self, class_name: str, oid: Optional[OID], values: Dict[str, Any]
    ) -> OID:
        """Insert under ``oid``, or under the next allocated OID if None."""
        # When the record is built, the store reuses its validated
        # encoding — the logged bytes and the stored bytes are one image.
        encoded: List[Optional[bytes]] = [None]

        def fields() -> list:
            # Validate-before-log: a rejected insert must never reach the
            # WAL. OID allocation is deterministic, so the record can name
            # the OID the insert is about to allocate.
            self.schema(class_name).validate_object(values)
            logged = self.objects.peek_next_oid(class_name) if oid is None else oid
            encoded[0] = encode_object(values)
            return ["insert", class_name, logged.to_int(), encoded[0]]

        def change() -> OID:
            if oid is None:
                return self.objects.insert(class_name, values, payload=encoded[0])
            return self.objects.insert_with_oid(
                class_name, oid, values, payload=encoded[0]
            )

        with self.write_scope():
            with self._wal_op(fields):
                return self._mutate(class_name, oid, None, values, change, _apply_op)

    def get(self, oid: OID) -> Dict[str, Any]:
        return self.objects.fetch(oid)

    def update(self, oid: OID, values: Dict[str, Any]) -> None:
        class_name = self.objects.class_name_of(oid)

        encoded: List[Optional[bytes]] = [None]

        def fields() -> list:
            self.schema(class_name).validate_object(values)
            encoded[0] = encode_object(values)
            return ["update", oid.to_int(), encoded[0]]

        with self.write_scope():
            old_values = self.objects.fetch(oid)
            with self._wal_op(fields):
                self._mutate(
                    class_name, oid, old_values, values,
                    lambda: self.objects.update(oid, values, payload=encoded[0]),
                    _apply_op,
                )

    def delete(self, oid: OID) -> None:
        class_name = self.objects.class_name_of(oid)
        with self.write_scope():
            values = self.objects.fetch(oid)
            with self._wal_op(lambda: ["delete", oid.to_int()]):
                self._mutate(
                    class_name, oid, values, None,
                    lambda: self.objects.delete(oid), _apply_op,
                )

    def _mutate(
        self,
        class_name: str,
        oid: Optional[OID],
        old: Optional[Dict[str, Any]],
        new: Optional[Dict[str, Any]],
        change: Callable[[], Optional[OID]],
        maintain: Callable[[IndexKey, SetAccessFacility, FacilityOp], None],
    ) -> OID:
        """Mutate object ``oid`` from ``old`` to ``new`` (``None``: no object).

        The one write path of the facade and of WAL replay; returns the
        OID. ``change()`` makes the store change (an insert under
        ``oid=None`` returns the OID it allocated); the running statistics
        follow it. ``maintain(path, facility, op)`` takes each facility op
        it implies, per facility the old set value's delete before the new
        one's insert (none if the two are equal): the facade applies each
        at once, replay queues it. A delete's ops come before the change.
        """

        def upkeep() -> None:
            for path, per_path in self._indexes.items():
                if path[0] != class_name:
                    continue
                old_set = None if old is None else frozenset(old[path[1]])
                new_set = None if new is None else frozenset(new[path[1]])
                if old_set == new_set:
                    continue
                for facility in per_path.values():
                    if old_set is not None:
                        maintain(path, facility, ("delete", old_set, oid))
                    if new_set is not None:
                        maintain(path, facility, ("insert", new_set, oid))

        if new is None:
            upkeep()
        allocated = change()
        if oid is None:
            oid = allocated
        self.statistics.record(self.objects, class_name, old, new)
        if new is not None:
            upkeep()
        return oid

    def scan(self, class_name: str) -> Iterator[Tuple[OID, Dict[str, Any]]]:
        return self.objects.scan(class_name)

    def count(self, class_name: str) -> int:
        return self.objects.count(class_name)

    # ------------------------------------------------------------------
    # Degraded facilities and recovery
    # ------------------------------------------------------------------
    def mark_degraded(
        self, class_name: str, attribute: str, facility_name: str, reason: str
    ) -> None:
        """Record that a facility's storage failed; queries must not use it.

        Idempotent — the first reason is kept so diagnostics point at the
        original failure, not a follow-on symptom.
        """
        key = (class_name, attribute, facility_name)
        self._degraded.setdefault(key, reason)
        self._sync_degraded_gauge()

    def clear_degraded(
        self, class_name: str, attribute: str, facility_name: str
    ) -> None:
        self._degraded.pop((class_name, attribute, facility_name), None)
        self._sync_degraded_gauge()

    def is_degraded(
        self, class_name: str, attribute: str, facility_name: str
    ) -> bool:
        return (class_name, attribute, facility_name) in self._degraded

    def degraded_reason(
        self, class_name: str, attribute: str, facility_name: str
    ) -> Optional[str]:
        return self._degraded.get((class_name, attribute, facility_name))

    def degraded_facilities(self) -> Dict[str, str]:
        """``{"Class.attribute/facility": reason}`` for every degraded path."""
        return {
            f"{cls}.{attr}/{name}": reason
            for (cls, attr, name), reason in sorted(self._degraded.items())
        }

    def _sync_degraded_gauge(self) -> None:
        from repro.obs.metrics import REGISTRY

        REGISTRY.gauge("recovery.degraded_facilities").set(len(self._degraded))

    def rebuild_facility(
        self,
        class_name: str,
        attribute: str,
        facility_name: Optional[str] = None,
    ) -> "SetAccessFacility":
        """Reconstruct one facility from the object file.

        The repair path for a degraded (corrupted / lost) facility: drops
        its files, bulk-loads a fresh structure from live objects, clears
        the degraded mark, and returns the new facility. The result is
        byte-for-byte what a fresh build over the same objects produces.

        Takes the write latch; from a thread that holds the read latch this
        is a read-to-write upgrade, which the latch supports for a single
        upgrader at a time.
        """
        from repro.recovery.rebuild import rebuild_facility

        with self.write_scope():
            return rebuild_facility(self, class_name, attribute, facility_name)

    # ------------------------------------------------------------------
    # Instrumentation
    # ------------------------------------------------------------------
    def io_snapshot(self) -> IOSnapshot:
        return self.storage.snapshot()

    def verify_indexes(self) -> None:
        """Check every facility's held decodes, then its structure.

        Each facility runs
        :meth:`~repro.access.base.SetAccessFacility.verify_decodes`, then
        :meth:`~repro.access.base.SetAccessFacility.verify`, under the
        read scope, so no write is half-seen.
        """
        for _, per_path in sorted(self._indexes.items()):
            with self.read_scope():
                for facility in per_path.values():
                    facility.verify_decodes()
                    facility.verify()

    def vacuum_index(
        self, class_name: str, attribute: str, facility_name: str
    ) -> "SetAccessFacility":
        """Rebuild one facility from live objects, dropping tombstones.

        The paper's update model flags deletions in the OID file and never
        reclaims signature-file space; after heavy churn the stale entries
        inflate both storage and scan costs. Rebuilding drops the facility's
        files and bulk-loads a fresh one from the object store. Returns the
        new facility (the old handle is invalid afterwards).

        A vacuum *is* a rebuild (tombstones cannot survive either).
        """
        return self.rebuild_facility(class_name, attribute, facility_name)

    def analyze(self, class_name: str, attribute: str, refresh: bool = True):
        """Collect (or refresh) workload statistics for one set attribute.

        The planner consults these automatically when no explicit
        :class:`~repro.query.planner.CostContext` is supplied, so one
        ``analyze`` per indexed path replaces per-query context plumbing.

        Statistics within drift are returned as they are. Collecting them
        — a scan the first time, the path's running aggregates after —
        holds the read scope, so no write is half-applied in what it
        reads (re-entrant for a caller that already reads or writes).
        """
        self._check_indexable(class_name, attribute)
        if not refresh:
            cached = self.statistics.current(self.objects, class_name, attribute)
            if cached is not None:
                return cached
        with self.read_scope():
            return self.statistics.get(
                self.objects, class_name, attribute, refresh=refresh
            )

    def check_consistency(self, sample: int = 50) -> Dict[str, int]:
        """Cross-validate every index against the object store.

        For up to ``sample`` objects per indexed path, a superset search
        with the object's own set value must return the object (signature
        facilities guarantee no false dismissals; NIX intersection is
        exact), and no search may surface a dead OID. First every object
        file's record decode is checked against its pages
        (:meth:`~repro.objects.object_file.ObjectFile.verify_decodes`),
        then every facility by :meth:`verify_indexes`.

        Returns the number of objects checked per ``class.attribute``;
        raises :class:`IndexCorruptionError` on the first inconsistency.
        """
        from repro.errors import IndexCorruptionError

        for class_name in self.objects.class_names():
            with self.read_scope():  # no write half-seen
                self.objects.verify_decodes(class_name)
        self.verify_indexes()
        checked: Dict[str, int] = {}
        for (class_name, attribute), per_path in sorted(self._indexes.items()):
            count = 0
            for oid, values in self.objects.scan(class_name):
                if count >= sample:
                    break
                target = frozenset(values[attribute])
                for name, facility in per_path.items():
                    result = facility.search_superset(target)
                    if oid not in result.candidates:
                        raise IndexCorruptionError(
                            f"{name} on {class_name}.{attribute} lost {oid} "
                            f"(set value {sorted(target, key=repr)!r})"
                        )
                    for candidate in result.candidates:
                        if not self.objects.exists(candidate):
                            raise IndexCorruptionError(
                                f"{name} on {class_name}.{attribute} returned "
                                f"dead OID {candidate}"
                            )
                count += 1
            checked[f"{class_name}.{attribute}"] = count
        return checked

    def facility_storage_report(self) -> Dict[str, Dict[str, int]]:
        """Per-index page counts, keyed ``class.attribute/facility``."""
        report = {}
        for (cls, attr), per_path in self._indexes.items():
            for name, facility in per_path.items():
                report[f"{cls}.{attr}/{name}"] = facility.storage_pages()
        return report
