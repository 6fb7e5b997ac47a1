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
records this replica never saw), or the replica's history diverged from
the primary's, the tail installs the primary's checkpoint file in its own
directory, restarts its local log at that checkpoint's LSN, and resumes
tailing from there. Disconnections reconnect with
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
        #: checkpoint, install and promote each pair the checkpoint file
        #: (via one shared tmp file) with a log base: one at a time
        self._landing = threading.Lock()
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
        with self._landing, db.exclusive_scope():
            self._catch_up_local()
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
        truncated to the watermark by hand; an install in progress lands first.
        """
        from repro.objects.database import CHECKPOINT_FILE_NAME
        from repro.persistence.snapshot import save_database

        db = self.database
        path = os.path.join(self.wal_dir, CHECKPOINT_FILE_NAME)
        with self._landing, db.exclusive_scope():
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
                while not self._stop.is_set():
                    if self._needs_sync:
                        self._install_checkpoint(sock)
                    try:
                        self._stream_from(sock)
                    except StaleSubscriberError:
                        # A checkpoint truncated past us: install it on this
                        # connection (the primary dropped the stream's
                        # cursor, so the re-subscribe after it is accepted).
                        self._needs_sync = True
            except TRANSPORT_ERRORS as exc:
                self.last_error = exc
                self._m_reconnects.inc()
            except Exception as exc:
                # Divergence, a gap, an apply failure, or anything
                # unforeseen (the tail thread must never die): state can no
                # longer be trusted to extend by tailing — install.
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
            pending = self.wal.records_from(db.wal_applied_lsn)
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
                with self._applying():
                    replay_records(db, [record])
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
    # Checkpoint install
    # ------------------------------------------------------------------
    def _install_checkpoint(self, sock: socket.socket) -> None:
        """Catch up by installing the primary's checkpoint file.

        The landing, in this order: (1) the streamed bytes go to
        ``checkpoint.sigdb.tmp``, fsynced; (2) :func:`~repro.persistence
        .snapshot.load_database` checks every page CRC and yields the
        checkpoint's LSN ``c`` (a damaged file is refused before anything
        is touched); (3) the local log restarts empty at ``c``; (4) the
        tmp file is renamed over the checkpoint and the directory fsynced;
        (5) the loaded state is adopted, and tailing resumes from ``c``.
        A crash between (3) and (4) leaves the old checkpoint with a log
        that does not cover it, which recovery refuses
        (:class:`~repro.errors.CheckpointMismatchError`). Steps (1) to (5)
        hold the landing lock, so a concurrent :meth:`checkpoint` can
        neither write the same tmp file nor stamp the old state with ``c``.
        """
        from repro.objects.database import CHECKPOINT_FILE_NAME, Database
        from repro.persistence.snapshot import load_database, write_durably

        wire.write_frame(
            sock, wire.SYNC, {"name": self.name}, self.max_frame_bytes
        )

        def receive(stream) -> None:
            more = True
            while more:
                frame = wire.read_frame(sock, self.max_frame_bytes)
                if frame is None:
                    raise ConnectionLostError("primary closed during sync")
                kind, payload = frame
                if kind == wire.ERROR:
                    raise wire.decode_error(payload)
                if kind != wire.SYNC_PAGES or payload.get("offset") != stream.tell():
                    raise ProtocolError(
                        f"expected the checkpoint slice at offset "
                        f"{stream.tell()}, got kind {kind} at "
                        f"{payload.get('offset')!r}"
                    )
                stream.write(base64.b64decode(payload["data"]))
                more = bool(payload.get("more", False))

        def restart_log_at_checkpoint(tmp_path: str) -> Database:
            fresh = load_database(tmp_path, pool_capacity=self.pool_capacity)
            self.wal.reset(fresh.wal_applied_lsn)
            return fresh

        db = self.database
        with self._landing:
            fresh = write_durably(
                os.path.join(self.wal_dir, CHECKPOINT_FILE_NAME),
                receive,
                restart_log_at_checkpoint,
            )
            with db.exclusive_scope():
                # Adopt the loaded internals wholesale; the facade object
                # (and its latch, which concurrent readers hold) stays.
                db.storage = fresh.storage
                db.objects = fresh.objects
                db._indexes = fresh._indexes
                db._degraded = fresh._degraded
                db.statistics = fresh.statistics
                if fresh.durability == "lsm":  # the checkpoint's stamp named it
                    db.durability = "lsm"
                db.wal_applied_lsn = fresh.wal_applied_lsn
                self._note_progress()
        self._needs_sync = False
        self.primary_lsn = max(self.primary_lsn, fresh.wal_applied_lsn)
        self._m_resyncs.inc()
