"""Replica side of log shipping: a continuously-replaying read-only mirror.

:class:`ReplicaDatabase` owns a normal :class:`~repro.objects.database
.Database` (served read-only — the facade's ``read_only`` guard rejects
direct writes) plus its *own* local WAL, and runs a tail thread against the
primary's ``WAL_SUBSCRIBE`` stream:

1. connect + handshake, then subscribe from the local watermark;
2. for each shipped record: append the raw payload to the local log first
   (byte-identical framing, so replica and primary logs share LSNs), then
   redo it through :func:`~repro.wal.replay.replay_records` — the same
   deterministic handlers recovery uses, which is what makes the replica's
   state byte-equivalent to the primary's durable prefix;
3. acknowledge the new watermark (the primary tracks per-replica lag).

If the primary answers ``stale-subscriber`` (a checkpoint truncated
records this replica never saw), the tail runs merkle anti-entropy: ship
chunk digests, receive only the differing page ranges plus the catalog,
rebuild state at the primary's LSN, reset the local log there, and resume
tailing. Disconnections reconnect with
:class:`~repro.resilience.RetryPolicy` backoff, forever, until
:meth:`stop` — a replica's job is to keep trying.

:meth:`promote` ends replication and turns the database into a writable
WAL-mode primary (the local log simply *is* a primary log at that point).
"""

from __future__ import annotations

import base64
import contextlib
import os
import socket
import threading
from typing import Any, Dict, List, Optional, Tuple

from repro import resilience, wire
from repro.errors import (
    ConnectionLostError,
    ProtocolError,
    ReplicationError,
    ReproError,
    SimulatedCrashError,
    StaleSubscriberError,
)
from repro.objects.serde import decode_value as serde_decode
from repro.obs.metrics import REGISTRY
from repro.resilience import TRANSPORT_ERRORS, RetryPolicy
from repro.wal.log import WalRecord
from repro.wal.replay import recover_database, replay_records

__all__ = ["ReplicaDatabase", "DEFAULT_RECONNECT_POLICY"]

#: reconnect backoff *schedule* only: 0.05s doubling per consecutive
#: failure, clamped to _RECONNECT_BACKOFF_CAP_SECONDS in ``_backoff``.
#: ``max_attempts`` is deliberately not honored — the tail retries until
#: :meth:`ReplicaDatabase.stop`.
DEFAULT_RECONNECT_POLICY = RetryPolicy(
    max_attempts=3, backoff_seconds=0.05, multiplier=2.0
)

#: longest single pause between reconnect attempts, whatever the policy
_RECONNECT_BACKOFF_CAP_SECONDS = 1.0


class ReplicaDatabase:
    """A read-only, continuously-catching-up mirror of one primary.

    ``primary_url`` / ``token``
        The primary's ``sigfile://host:port`` address and, when it runs
        with auth, a token its handshake accepts.
    ``wal_dir``
        This replica's own durable directory (local log + checkpoints).
        Reopening an existing directory recovers local state first and
        re-subscribes from the recovered watermark — a restarted replica
        only fetches what it missed.
    ``name``
        How this replica introduces itself (primary-side lag accounting).
    ``chunk_pages``
        Merkle leaf granularity for anti-entropy (pages per chunk).
    ``reconnect_policy``
        Backoff *schedule* between reconnect attempts. ``max_attempts``
        is not a cap here — the tail retries until stopped.
    ``auto_start``
        Start the tail thread immediately (default). With ``False`` call
        :meth:`start` yourself (tests drive the loop manually).
    """

    def __init__(
        self,
        primary_url: str,
        wal_dir: str,
        *,
        name: Optional[str] = None,
        token: Optional[str] = None,
        page_size: int = 4096,
        pool_capacity: int = 0,
        chunk_pages: int = 8,
        reconnect_policy: Optional[RetryPolicy] = None,
        connect_timeout_seconds: float = 5.0,
        stall_timeout_seconds: float = 10.0,
        max_frame_bytes: int = wire.DEFAULT_MAX_FRAME_BYTES,
        auto_start: bool = True,
    ):
        from repro.client import parse_server_url

        self.primary_host, self.primary_port = parse_server_url(primary_url)
        self.wal_dir = wal_dir
        self.name = name or f"replica@{os.path.basename(os.path.abspath(wal_dir))}"
        self.token = token
        self.page_size = page_size
        self.pool_capacity = pool_capacity
        self.chunk_pages = chunk_pages
        self.reconnect_policy = reconnect_policy or DEFAULT_RECONNECT_POLICY
        self.connect_timeout_seconds = connect_timeout_seconds
        self.stall_timeout_seconds = stall_timeout_seconds
        self.max_frame_bytes = max_frame_bytes

        # Recover whatever this directory already holds (fresh dirs come
        # back empty), then detach the log: replica state advances through
        # replay of *shipped* records, never through its own logging.
        db = recover_database(
            wal_dir, page_size=page_size, pool_capacity=pool_capacity
        )
        self.wal = db.wal
        db.wal = None
        db.read_only = True
        self.database = db

        #: the primary's end LSN as of the last heartbeat / batch
        self.primary_lsn = self.wal.end_lsn
        self.connected = False
        self.last_error: Optional[BaseException] = None
        self.promoted = False
        self._needs_sync = False
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._sock: Optional[socket.socket] = None
        self._sock_lock = threading.Lock()
        self._progress = threading.Condition()
        self._m_applied = REGISTRY.counter("replication.applied_records")
        self._m_reconnects = REGISTRY.counter("replication.reconnects")
        self._m_resyncs = REGISTRY.counter("replication.resyncs")
        if auto_start:
            self.start()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def watermark(self) -> int:
        """LSN this replica has durably applied through."""
        return self.database.wal_applied_lsn

    @property
    def lag_bytes(self) -> int:
        return max(0, self.primary_lsn - self.watermark)

    @property
    def primary_url(self) -> str:
        return f"sigfile://{self.primary_host}:{self.primary_port}"

    def wait_for_lsn(self, lsn: int, timeout: float = 10.0) -> bool:
        """Block until the watermark reaches ``lsn`` (read-your-writes)."""
        deadline = resilience.deadline_at(timeout * 1000.0)
        with self._progress:
            while self.watermark < lsn:
                left = resilience.remaining(deadline)
                if left <= 0 or (self._stop.is_set() and not self._thread):
                    return self.watermark >= lsn
                self._progress.wait(min(left, 0.25))
        return True

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "ReplicaDatabase":
        if self._thread is not None and self._thread.is_alive():
            return self
        if self.promoted:
            raise ReplicationError("a promoted replica cannot re-subscribe")
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._tail_loop, name=f"wal-tail:{self.name}", daemon=True
        )
        self._thread.start()
        return self

    def stop(self, timeout: float = 10.0) -> None:
        """Stop tailing; local state and the local log stay intact."""
        self._stop.set()
        self._close_socket()
        thread, self._thread = self._thread, None
        if thread is not None and thread.is_alive():
            thread.join(timeout=timeout)
        with self._progress:
            self._progress.notify_all()

    def close(self) -> None:
        """Stop tailing and release the local log's file handle."""
        self.stop()
        if not self.promoted:
            self.wal.close()

    def promote(self):
        """Stop replicating and become a writable WAL-mode primary.

        Any shipped-but-unapplied log tail (a crash between append and
        apply) is replayed first, then the local log attaches to the
        database — from here on it logs, checkpoints, and can itself feed
        replicas. Returns the now-writable database.
        """
        self.stop()
        db = self.database
        with db.exclusive_scope():
            pending = self.wal.records_from(db.wal_applied_lsn)
            if pending:
                with self._applying():
                    replay_records(db, pending)
            db.read_only = False
            db.attach_wal(self.wal, self.wal_dir)
        self.promoted = True
        REGISTRY.counter("replication.promotions").inc()
        return db

    def checkpoint(self) -> str:
        """Snapshot local state and truncate the local log.

        Unlike a primary checkpoint this appends *no* marker records —
        the replica's log must stay byte-identical to the primary's, so
        the snapshot is taken with logging suspended and the log is then
        truncated to the watermark by hand.
        """
        from repro.objects.database import CHECKPOINT_FILE_NAME
        from repro.persistence.snapshot import save_database

        db = self.database
        path = os.path.join(self.wal_dir, CHECKPOINT_FILE_NAME)
        with db.exclusive_scope():
            db.wal = self.wal
            try:
                with self.wal.suspended():
                    save_database(db, path)
            finally:
                db.wal = None
            self.wal.truncate_until(db.wal_applied_lsn)
        REGISTRY.counter("wal.checkpoints").inc()
        return path

    def __enter__(self) -> "ReplicaDatabase":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    def __repr__(self) -> str:
        state = (
            "promoted"
            if self.promoted
            else ("tailing" if self.connected else "disconnected")
        )
        return (
            f"ReplicaDatabase({self.name!r} <- {self.primary_url}, "
            f"watermark={self.watermark}, {state})"
        )

    # ------------------------------------------------------------------
    # Tail loop
    # ------------------------------------------------------------------
    def _tail_loop(self) -> None:
        failures = 0
        while not self._stop.is_set():
            try:
                sock = self._connect()
            except Exception as exc:
                # Transport faults, but also handshake refusals (auth,
                # version skew): back off and retry — never kill the tail.
                self.last_error = exc
                failures += 1
                self._backoff(failures)
                continue
            try:
                self.connected = True
                failures = 0
                self._catch_up_local()
                if self._needs_sync:
                    self._run_sync(sock)
                self._stream_from(sock)
            except StaleSubscriberError:
                # Checkpoint truncation passed us: run anti-entropy on this
                # same connection (the primary drops the stream's cursor
                # before sending the stale error, so the in-band
                # re-subscribe inside _stream_from is accepted) and keep
                # tailing. _needs_sync stays set until a sync completes, so
                # any failure in here simply retries from a fresh
                # connection. Nothing may escape this handler — sibling
                # except clauses do not catch it, and an escape would kill
                # the tail thread.
                self._needs_sync = True
                try:
                    self._run_sync(sock)
                    self._stream_from(sock)
                except StaleSubscriberError:
                    pass  # truncated again already; resync on reconnect
                except TRANSPORT_ERRORS as exc:
                    self.last_error = exc
                    self._m_reconnects.inc()
                except Exception as exc:
                    self.last_error = exc
            except TRANSPORT_ERRORS as exc:
                self.last_error = exc
                self._m_reconnects.inc()
            except (ReplicationError, ProtocolError, ReproError) as exc:
                # Divergence, a gap, or an apply failure: state can no
                # longer be trusted to extend by tailing — full resync.
                self.last_error = exc
                self._needs_sync = True
            except Exception as exc:
                # Defensive: a replica's tail thread must never die; treat
                # anything unforeseen like divergence and resync.
                self.last_error = exc
                self._needs_sync = True
            finally:
                self.connected = False
                self._close_socket()

    def _backoff(self, failures: int) -> None:
        resilience.backoff(
            self.reconnect_policy,
            min(failures, 8),
            cap=_RECONNECT_BACKOFF_CAP_SECONDS,
            wait=self._stop.wait,
        )

    def _connect(self) -> socket.socket:
        sock = socket.create_connection(
            (self.primary_host, self.primary_port),
            timeout=self.connect_timeout_seconds,
        )
        sock.settimeout(self.stall_timeout_seconds)
        try:
            wire.write_frame(
                sock,
                wire.HELLO,
                {"protocol": wire.PROTOCOL_VERSION, "token": self.token},
                self.max_frame_bytes,
            )
            frame = wire.read_frame(sock, self.max_frame_bytes)
            if frame is None:
                raise ConnectionLostError("primary closed during handshake")
            kind, payload = frame
            if kind == wire.ERROR:
                raise wire.decode_error(payload)
            if kind != wire.OK:
                raise ProtocolError(f"expected OK after HELLO, got kind {kind}")
        except BaseException:
            sock.close()
            raise
        with self._sock_lock:
            self._sock = sock
        return sock

    def _close_socket(self) -> None:
        with self._sock_lock:
            sock, self._sock = self._sock, None
        if sock is not None:
            with contextlib.suppress(OSError):
                sock.shutdown(socket.SHUT_RDWR)
            with contextlib.suppress(OSError):
                sock.close()

    def _catch_up_local(self) -> None:
        """Apply any shipped-but-unapplied tail left by a crash."""
        db = self.database
        with db.exclusive_scope():
            pending = [
                r for r in self.wal.records_from(db.wal_applied_lsn)
                if r.lsn >= db.wal_applied_lsn
            ]
            if pending:
                with self._applying():
                    replay_records(db, pending)
            self._note_progress()

    def _stream_from(self, sock: socket.socket) -> None:
        """Subscribe at the watermark and apply frames until disconnect."""
        wire.write_frame(
            sock,
            wire.WAL_SUBSCRIBE,
            {"from_lsn": self.wal.end_lsn, "name": self.name},
            self.max_frame_bytes,
        )
        while not self._stop.is_set():
            frame = wire.read_frame(sock, self.max_frame_bytes)
            if frame is None:
                raise ConnectionLostError("primary closed the stream")
            kind, payload = frame
            if kind == wire.ERROR:
                raise wire.decode_error(payload)
            if kind == wire.BYE:
                raise ConnectionLostError("primary said BYE (drain/restart)")
            if kind == wire.HEARTBEAT:
                self.primary_lsn = int(payload.get("lsn", self.primary_lsn))
                self._ack(sock)
                continue
            if kind == wire.WAL_RECORDS:
                self._apply_batch(payload)
                self.primary_lsn = int(payload.get("end_lsn", self.primary_lsn))
                self._ack(sock)
                continue
            raise ProtocolError(
                f"unexpected frame kind {kind} on a subscription stream"
            )

    def _ack(self, sock: socket.socket) -> None:
        wire.write_frame(
            sock,
            wire.WAL_ACK,
            {"lsn": self.watermark},
            self.max_frame_bytes,
        )

    def _apply_batch(self, payload: Dict[str, Any]) -> None:
        """Append + redo one WAL_RECORDS frame, atomically vs. readers."""
        records: List[Tuple[int, bytes]] = []
        for entry in payload.get("records", []):
            lsn, encoded = entry
            records.append((int(lsn), base64.b64decode(encoded)))
        if not records:
            return
        db = self.database
        with db.exclusive_scope():
            for lsn, raw in records:
                if lsn < self.wal.end_lsn:
                    continue  # duplicate after a reconnect overlap
                if lsn > self.wal.end_lsn:
                    raise ReplicationError(
                        f"gap in shipped records: expected lsn "
                        f"{self.wal.end_lsn}, got {lsn}"
                    )
                fields = serde_decode(raw)
                if not isinstance(fields, list) or not fields:
                    raise ReplicationError(
                        f"shipped record at lsn {lsn} has no record type"
                    )
                # Log first (byte-identical to the primary's frame), then
                # redo — the same WAL discipline the primary follows.
                self.wal.append_payload(raw)
                record = WalRecord(lsn, self.wal.end_lsn, tuple(fields))
                try:
                    with self._applying():
                        replay_records(db, [record])
                except SimulatedCrashError:
                    raise
                self._m_applied.inc()
            self._note_progress()

    @contextlib.contextmanager
    def _applying(self):
        """Lift the read-only guard while redo handlers run.

        Replay drives the same facade mutators users would call; only this
        scope may get them past :class:`~repro.errors.ReadOnlyReplicaError`.
        """
        db = self.database
        db.read_only = False
        try:
            yield
        finally:
            db.read_only = True

    def _note_progress(self) -> None:
        with self._progress:
            self._progress.notify_all()
        REGISTRY.gauge("replication.replica_watermark").set(self.watermark)

    # ------------------------------------------------------------------
    # Merkle anti-entropy
    # ------------------------------------------------------------------
    def _run_sync(self, sock: socket.socket) -> None:
        """Rebuild state from the primary, shipping only differing ranges."""
        from repro.objects.database import Database
        from repro.persistence.snapshot import populate_database
        from repro.replication.merkle import encode_tree, store_trees

        db = self.database
        db.storage.flush()
        old_store = db.storage.store
        trees = store_trees(old_store, chunk_pages=self.chunk_pages)
        wire.write_frame(
            sock,
            wire.SYNC,
            {
                "name": self.name,
                "chunk_pages": self.chunk_pages,
                "files": {
                    name: encode_tree(tree) for name, tree in trees.items()
                },
            },
            self.max_frame_bytes,
        )
        # The answer is a sequence of budgeted SYNC_PAGES frames (a large
        # diff cannot fit one frame); accumulate until "more" goes false.
        # The first frame carries the catalog; every frame repeats the
        # cut's LSN, and a file may reappear with further ranges.
        catalog: Optional[Dict[str, Any]] = None
        sync_lsn: Optional[int] = None
        shipped: Dict[str, Dict[int, bytes]] = {}
        file_pages: Dict[str, int] = {}
        more = True
        while more:
            frame = wire.read_frame(sock, self.max_frame_bytes)
            if frame is None:
                raise ConnectionLostError("primary closed during sync")
            kind, payload = frame
            if kind == wire.ERROR:
                raise wire.decode_error(payload)
            if kind != wire.SYNC_PAGES:
                raise ProtocolError(f"expected SYNC_PAGES, got kind {kind}")
            if "catalog" in payload:
                catalog = payload["catalog"]
            sync_lsn = int(payload["lsn"])
            for entry in payload.get("files", []):
                name = entry["name"]
                file_pages[name] = int(entry["pages"])
                pages_for = shipped.setdefault(name, {})
                for start, images in entry.get("ranges", []):
                    for offset, encoded in enumerate(images):
                        pages_for[int(start) + offset] = base64.b64decode(
                            encoded
                        )
            more = bool(payload.get("more", False))
        if catalog is None or sync_lsn is None:
            raise ProtocolError("sync stream ended without a catalog frame")

        page_images: Dict[str, List[bytes]] = {}
        for name, pages in file_pages.items():
            pages_for = shipped.get(name, {})
            have = (
                old_store.num_pages(name) if old_store.exists(name) else 0
            )
            images_out: List[bytes] = []
            for page_no in range(pages):
                if page_no in pages_for:
                    images_out.append(pages_for[page_no])
                elif page_no < have:
                    images_out.append(old_store.page_image(name, page_no))
                else:
                    raise ReplicationError(
                        f"sync response left page {page_no} of {name!r} "
                        "neither shipped nor locally present"
                    )
            page_images[name] = images_out

        fresh = Database(
            page_size=catalog["page_size"], pool_capacity=self.pool_capacity
        )
        populate_database(
            fresh, catalog, page_images, source=f"merkle sync of {self.name}"
        )
        with db.exclusive_scope():
            # Adopt the rebuilt internals wholesale; the facade object (and
            # its latch, which concurrent readers hold) stays the same.
            db.storage = fresh.storage
            db.objects = fresh.objects
            db._indexes = fresh._indexes
            db._degraded = fresh._degraded
            db.statistics = fresh.statistics
            if fresh.durability == "lsm":  # the catalog's stamp named it
                db.durability = "lsm"
            db.wal_applied_lsn = sync_lsn
            self.wal.reset(sync_lsn)
            self._note_progress()
        self._needs_sync = False
        self.primary_lsn = max(self.primary_lsn, sync_lsn)
        self._m_resyncs.inc()
