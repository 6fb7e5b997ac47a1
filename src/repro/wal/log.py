"""Logical write-ahead log: durable redo records for incremental updates.

The paper's update model (§4) prices inserts and deletes against the access
facilities, but a full :func:`~repro.persistence.snapshot.save_database`
snapshot was the only durability point — every update between snapshots died
with the process. The WAL closes that gap with classic redo logging: each
mutating operation is appended to an append-only OS file, flushed and
fsynced *before* the in-memory database state changes, so after a crash the
last checkpoint snapshot plus the log tail reproduces the lost work.

On-disk layout (little-endian throughout)::

    header : magic "SIGWAL01" | u64 base_lsn
    record : u32 payload_len | u32 crc32(payload) | payload

The payload is one value in the :mod:`repro.objects.serde` tagged format —
always a list whose first element is the record type (``"insert"``,
``"delete"``, ``"create_index"``, ``"checkpoint_begin"``, ...). An LSN is a
logical byte position in the log stream: the header's ``base_lsn`` names
the position of the first record in the file, and checkpoints advance it by
rewriting the file (see :meth:`WriteAheadLog.truncate_until`), so LSNs keep
growing monotonically across the life of the database.

Tail handling mirrors real redo logs:

* a *torn tail* — the final record's frame runs past end-of-file, or the
  final record's CRC mismatches — is what a crash mid-append leaves behind;
  opening the log silently truncates it (the record never committed);
* a CRC mismatch on an *interior* record means the log itself is damaged
  and replaying past it would apply garbage:
  :class:`~repro.errors.WalCorruptError` is raised naming the LSN.
"""

from __future__ import annotations

import os
import struct
import threading
import zlib
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, List, Optional, Sequence, Tuple

from repro.errors import SimulatedCrashError, TransientIOError, WalCorruptError, WalError
from repro.objects.serde import decode_value, encode_value
from repro.obs import tracer as trace
from repro.obs.metrics import REGISTRY

WAL_MAGIC = b"SIGWAL01"
WAL_FILE_NAME = "wal.log"

_HEADER = struct.Struct("<8sQ")  # magic, base_lsn
_FRAME = struct.Struct("<II")  # payload length, crc32(payload)


@dataclass(frozen=True)
class WalRecord:
    """One decoded log record.

    ``lsn`` is the record's own position; ``next_lsn`` the position just
    past its frame (the LSN the database is at once the record applies).
    """

    lsn: int
    next_lsn: int
    fields: Tuple[Any, ...]

    @property
    def type(self) -> str:
        return self.fields[0]


@dataclass(frozen=True)
class WalScan:
    """Result of reading a log file front to back."""

    base_lsn: int
    end_lsn: int  #: LSN just past the last intact record
    records: List[WalRecord]
    torn_bytes: int  #: trailing bytes belonging to a half-written record


def fsync_directory(directory: str) -> None:
    """Make the renames and creates inside ``directory`` durable.

    An fsynced file's data survives a power loss, but its directory entry
    (the name a rename or create gave it) survives only once the
    directory itself is fsynced.
    """
    fd = os.open(directory, os.O_RDONLY | os.O_DIRECTORY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def encode_record(fields: Sequence[Any]) -> bytes:
    """Frame one record: length prefix, CRC32, serde-encoded payload."""
    payload = encode_value(list(fields))
    return _FRAME.pack(len(payload), zlib.crc32(payload)) + payload


def scan_wal(path: str) -> WalScan:
    """Read and validate a log file without modifying it.

    Raises :class:`~repro.errors.WalError` for a bad header and
    :class:`~repro.errors.WalCorruptError` for interior corruption; a torn
    final record is reported via ``torn_bytes`` rather than raised.
    """
    with open(path, "rb") as stream:
        data = stream.read()
    if len(data) < _HEADER.size:
        raise WalError(f"wal file {path!r} is shorter than its header")
    magic, base_lsn = _HEADER.unpack_from(data, 0)
    if magic != WAL_MAGIC:
        raise WalError(f"wal file {path!r} has bad magic {magic!r}")
    records: List[WalRecord] = []
    offset = _HEADER.size
    while offset < len(data):
        lsn = base_lsn + (offset - _HEADER.size)
        frame_end = offset + _FRAME.size
        if frame_end > len(data):
            return WalScan(base_lsn, lsn, records, len(data) - offset)
        length, crc = _FRAME.unpack_from(data, offset)
        payload_end = frame_end + length
        if payload_end > len(data):
            return WalScan(base_lsn, lsn, records, len(data) - offset)
        payload = data[frame_end:payload_end]
        if zlib.crc32(payload) != crc:
            if payload_end == len(data):
                # Complete-length but corrupt final record: a torn append
                # under a crash. It never committed; drop it.
                return WalScan(base_lsn, lsn, records, len(data) - offset)
            raise WalCorruptError(
                f"wal record at lsn {lsn} fails its CRC32 check "
                f"(interior corruption in {path!r})",
                lsn=lsn,
            )
        try:
            fields = decode_value(payload)
        except Exception as exc:
            raise WalCorruptError(
                f"wal record at lsn {lsn} is undecodable: {exc}", lsn=lsn
            ) from exc
        if not isinstance(fields, list) or not fields:
            raise WalCorruptError(
                f"wal record at lsn {lsn} has no record type", lsn=lsn
            )
        next_lsn = base_lsn + (payload_end - _HEADER.size)
        records.append(WalRecord(lsn, next_lsn, tuple(fields)))
        offset = payload_end
    end_lsn = base_lsn + (len(data) - _HEADER.size)
    return WalScan(base_lsn, end_lsn, records, 0)


class WriteAheadLog:
    """Append-only redo log in ``directory`` (one ``wal.log`` file).

    Opening an existing log validates it and truncates a torn tail in
    place. Every append is fsynced before it returns, which is the
    property recovery correctness rests on, unless ``fsync_interval``
    group-commits them.
    """

    def __init__(self, directory: str):
        os.makedirs(directory, exist_ok=True)
        self.directory = directory
        self.path = os.path.join(directory, WAL_FILE_NAME)
        #: Group commit: with an interval N, fsync only every Nth append
        #: (plus explicit sync() calls). ``Database.attach_wal`` sets it
        #: for ``durability="lsm"`` — the log only needs to cover the
        #: memtable, so a crash loses at most the records since the last
        #: interval boundary, never applied-but-unlogged state.
        self.fsync_interval: Optional[int] = None
        self._appends_since_sync = 0
        # Group-commit buffer: with an fsync_interval, frames accumulate
        # here and reach the device in one write+flush+fsync per interval
        # (or whenever a reader needs the file image). ``_io_lock`` orders
        # appender buffering against readers flushing from other threads.
        self._buffer = bytearray()
        self._io_lock = threading.Lock()
        #: False while a caller (a replica's checkpoint) suspends logging.
        self.enabled = True
        #: True while a Database-level logical operation is in flight, so
        #: an operation nested in it (a rebuild's create_index) logs no
        #: record of its own (the logical record already covers it).
        self.in_logical_op = False
        #: optional :class:`~repro.storage.faults.FaultInjector` consulted
        #: before every append (crash / torn / transient wal faults).
        self.fault_injector = None
        # Log-shipping subscribers block on this until the tail grows.
        self._append_cond = threading.Condition()
        if not os.path.exists(self.path):
            with open(self.path, "wb") as stream:
                stream.write(_HEADER.pack(WAL_MAGIC, 0))
                stream.flush()
                os.fsync(stream.fileno())
            fsync_directory(directory)
            self.base_lsn = 0
            self.end_lsn = 0
        else:
            scan = scan_wal(self.path)  # raises on interior corruption
            if scan.torn_bytes:
                size = os.path.getsize(self.path) - scan.torn_bytes
                with open(self.path, "r+b") as stream:
                    stream.truncate(size)
                REGISTRY.counter("wal.torn_tails_truncated").inc()
            self.base_lsn = scan.base_lsn
            self.end_lsn = scan.end_lsn
        self._stream = open(self.path, "r+b")
        self._stream.seek(0, os.SEEK_END)

    # ------------------------------------------------------------------
    # Logging state
    # ------------------------------------------------------------------
    @property
    def accepts_logical_records(self) -> bool:
        return self.enabled and not self.in_logical_op

    @contextmanager
    def suspended(self):
        """No records at all are appended inside this scope."""
        previous = self.enabled
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = previous

    @contextmanager
    def logical_op(self):
        """Suppress nested logical records while one record covers them."""
        previous = self.in_logical_op
        self.in_logical_op = True
        try:
            yield
        finally:
            self.in_logical_op = previous

    # ------------------------------------------------------------------
    # Appending
    # ------------------------------------------------------------------
    def append(self, fields: Sequence[Any]) -> int:
        """Durably append one record; returns its LSN.

        The frame is written, flushed and fsynced (or, under group commit,
        buffered up to the interval's fsync) before this method returns — only then may the caller mutate in-memory state.
        """
        frame = encode_record(fields)
        lsn = self.end_lsn
        with trace.span("wal-append", type=str(fields[0]), lsn=lsn):
            self._maybe_fault(lsn, frame)
            REGISTRY.counter("wal.appends").inc()
            if self.fsync_interval is not None:
                # Group commit: buffer the frame; one write+flush+fsync
                # per interval amortizes the device cost across the group.
                with self._io_lock:
                    self._buffer += frame
                    self._appends_since_sync += 1
                    if self._appends_since_sync >= self.fsync_interval:
                        self._flush_buffer_locked()
            else:
                self._stream.write(frame)
                self._stream.flush()
                os.fsync(self._stream.fileno())
                REGISTRY.counter("wal.fsyncs").inc()
        self._advance(lsn + len(frame))
        return lsn

    def _flush_buffer_locked(self) -> None:
        """Drain the group-commit buffer to the device (io lock held)."""
        if self._buffer:
            self._stream.write(self._buffer)
            self._buffer.clear()
        self._stream.flush()
        if self._appends_since_sync:
            os.fsync(self._stream.fileno())
            REGISTRY.counter("wal.fsyncs").inc()
        self._appends_since_sync = 0

    def _drain_buffer(self) -> None:
        """Make the on-disk file current before any whole-file read."""
        with self._io_lock:
            if self._buffer or self._appends_since_sync:
                self._flush_buffer_locked()

    def sync(self) -> None:
        """Force any group-committed appends to the device now."""
        self._drain_buffer()

    def append_payload(self, payload: bytes) -> int:
        """Durably append one already-encoded record payload; returns its LSN.

        The log-shipping path: a replica appends the primary's raw serde
        payload bytes so its local log is byte-identical (frame, CRC, LSN)
        to the primary's. Unlike :meth:`append` this ignores the
        ``enabled`` flag — shipping is a physical transfer, not a logical
        record the replica originated.
        """
        frame = _FRAME.pack(len(payload), zlib.crc32(payload)) + payload
        lsn = self.end_lsn
        self._maybe_fault(lsn, frame)
        self._drain_buffer()
        self._stream.write(frame)
        self._stream.flush()
        REGISTRY.counter("wal.appends").inc()
        os.fsync(self._stream.fileno())
        REGISTRY.counter("wal.fsyncs").inc()
        self._advance(lsn + len(frame))
        return lsn

    def _advance(self, end_lsn: int) -> None:
        with self._append_cond:
            self.end_lsn = end_lsn
            self._append_cond.notify_all()

    def wait_for_append(self, lsn: int, timeout: float) -> bool:
        """Block until the log grows past ``lsn`` (or ``timeout`` elapses).

        Returns True when ``end_lsn > lsn`` on wake-up. This is the
        subscriber's idle wait: the streaming loop parks here instead of
        polling, and every append wakes it.
        """
        with self._append_cond:
            if self.end_lsn > lsn:
                return True
            self._append_cond.wait(timeout)
            return self.end_lsn > lsn

    def _maybe_fault(self, lsn: int, frame: bytes) -> None:
        injector = self.fault_injector
        if injector is None:
            return
        kind = injector.wal_append_fault(lsn)
        if kind is None:
            return
        if kind == "transient":
            raise TransientIOError(f"injected transient wal fault at lsn {lsn}")
        if kind == "torn":
            # The process dies mid-append: half the frame reaches the
            # device, then the crash. Recovery must truncate this tail.
            self._drain_buffer()
            self._stream.write(frame[: max(1, len(frame) // 2)])
            self._stream.flush()
            os.fsync(self._stream.fileno())
            raise SimulatedCrashError(
                f"injected torn wal append at lsn {lsn}"
            )
        raise SimulatedCrashError(f"injected crash at wal append, lsn {lsn}")

    # ------------------------------------------------------------------
    # Reading & truncation
    # ------------------------------------------------------------------
    def records(self) -> List[WalRecord]:
        """Every intact record currently in the log (fresh scan)."""
        self._drain_buffer()
        return scan_wal(self.path).records

    def records_from(self, lsn: int) -> List[WalRecord]:
        """Intact records at or past ``lsn`` (fresh scan)."""
        self._drain_buffer()
        return [r for r in scan_wal(self.path).records if r.lsn >= lsn]

    def payloads_from(
        self, lsn: int, max_bytes: Optional[int] = None
    ) -> Tuple[List[Tuple[int, bytes]], int]:
        """Raw record payloads at or past ``lsn``: ``([(lsn, bytes)...], end)``.

        The shipping read: payload bytes are returned exactly as framed so
        a replica can re-frame them byte-identically. One consistent file
        read (safe against a concurrent :meth:`truncate_until` swapping the
        file underneath — base and offsets come from the same image); a
        torn tail mid-append is simply "no more records yet". ``max_bytes``
        bounds the summed payload size of one batch; ``end`` is the LSN
        just past the last *returned* record (or ``lsn`` when none).
        Raises :class:`~repro.errors.WalError` when ``lsn`` precedes the
        log's base (the caller's cue that only a checkpoint install can
        catch the subscriber up) or is not a record boundary.
        """
        self._drain_buffer()
        with open(self.path, "rb") as stream:
            data = stream.read()
        if len(data) < _HEADER.size:
            raise WalError(f"wal file {self.path!r} is shorter than its header")
        magic, base_lsn = _HEADER.unpack_from(data, 0)
        if magic != WAL_MAGIC:
            raise WalError(f"wal file {self.path!r} has bad magic {magic!r}")
        if lsn < base_lsn:
            raise WalError(
                f"lsn {lsn} precedes the log's base lsn {base_lsn} "
                "(truncated by a checkpoint)"
            )
        batch: List[Tuple[int, bytes]] = []
        offset = _HEADER.size
        taken = 0
        seen_boundary = False
        while offset < len(data):
            at = base_lsn + (offset - _HEADER.size)
            if at == lsn:
                seen_boundary = True
            frame_end = offset + _FRAME.size
            if frame_end > len(data):
                break  # torn tail: not committed yet
            length, crc = _FRAME.unpack_from(data, offset)
            payload_end = frame_end + length
            if payload_end > len(data):
                break
            payload = data[frame_end:payload_end]
            if zlib.crc32(payload) != crc:
                if payload_end == len(data):
                    break  # torn final record
                raise WalCorruptError(
                    f"wal record at lsn {at} fails its CRC32 check", lsn=at
                )
            if at >= lsn:
                # The budget always admits the first record (progress must
                # be possible even when one record exceeds max_bytes).
                if (
                    max_bytes is not None
                    and batch
                    and taken + len(payload) > max_bytes
                ):
                    break
                batch.append((at, payload))
                taken += len(payload)
                if max_bytes is not None and taken >= max_bytes:
                    offset = payload_end
                    break
            offset = payload_end
        end = base_lsn + (offset - _HEADER.size)
        if not seen_boundary and lsn != end and lsn > base_lsn:
            raise WalError(f"lsn {lsn} is not a record boundary")
        return batch, (batch[-1][0] + _FRAME.size + len(batch[-1][1])
                       if batch else lsn)

    def truncate_until(self, lsn: int) -> None:
        """Checkpoint truncation: drop records *before* ``lsn``.

        The file is atomically rewritten with ``base_lsn = lsn`` and only
        the surviving frames, so LSNs of retained records are unchanged and
        future appends continue the same LSN sequence.
        """
        if not self.base_lsn <= lsn <= self.end_lsn:
            raise WalError(
                f"truncate_until lsn {lsn} outside log range "
                f"[{self.base_lsn}, {self.end_lsn}]"
            )
        records = self.records()  # drains the group-commit buffer
        if lsn != self.end_lsn and all(r.lsn != lsn for r in records):
            raise WalError(f"lsn {lsn} is not a record boundary")
        survivors = [r for r in records if r.lsn >= lsn]
        tmp_path = f"{self.path}.tmp"
        with open(tmp_path, "wb") as stream:
            stream.write(_HEADER.pack(WAL_MAGIC, lsn))
            for record in survivors:
                stream.write(encode_record(list(record.fields)))
            stream.flush()
            os.fsync(stream.fileno())
        self._stream.close()
        os.replace(tmp_path, self.path)
        fsync_directory(self.directory)
        self.base_lsn = lsn
        self._appends_since_sync = 0
        self._stream = open(self.path, "r+b")
        self._stream.seek(0, os.SEEK_END)

    def reset(self, base_lsn: int) -> None:
        """Replace the log with an empty one whose base is ``base_lsn``.

        A replica's checkpoint install: once the primary's checkpoint file
        is on disk and verified, the old log is wholesale obsolete; it
        restarts at the checkpoint's LSN, and tailing resumes there.
        """
        tmp_path = f"{self.path}.tmp"
        with open(tmp_path, "wb") as stream:
            stream.write(_HEADER.pack(WAL_MAGIC, base_lsn))
            stream.flush()
            os.fsync(stream.fileno())
        self._stream.close()
        os.replace(tmp_path, self.path)
        fsync_directory(self.directory)
        self.base_lsn = base_lsn
        self._advance(base_lsn)
        self._buffer.clear()  # buffered records predate the sync point too
        self._appends_since_sync = 0
        self._stream = open(self.path, "r+b")
        self._stream.seek(0, os.SEEK_END)

    def truncate_from(self, lsn: int) -> int:
        """Discard the tail: drop every record at or after ``lsn``.

        Work past ``lsn`` is lost, but the prefix stays replayable.
        Returns the number of records dropped.
        """
        self._drain_buffer()
        dropped, boundary = truncate_wal(self.path, lsn)
        self._stream.close()
        self._stream = open(self.path, "r+b")
        self._stream.seek(0, os.SEEK_END)
        self.end_lsn = boundary
        return dropped

    def close(self) -> None:
        if not self._stream.closed:
            self.sync()
        self._stream.close()

    def __repr__(self) -> str:
        return (
            f"WriteAheadLog({self.path!r}, lsn [{self.base_lsn}, "
            f"{self.end_lsn}])"
        )


def truncate_wal(path: str, lsn: int) -> Tuple[int, int]:
    """Truncate a log file at record boundary ``lsn`` (offline-safe).

    Works on corrupt logs too — this is the repair path for an interior
    CRC mismatch: cut at (or before) the damaged LSN and the surviving
    prefix replays cleanly. Returns ``(records_dropped, new_end_lsn)``;
    the count includes the unreadable remainder as one record when the
    damage prevents framing it. Raises :class:`~repro.errors.WalError`
    when ``lsn`` is not a reachable record boundary.
    """
    with open(path, "rb") as stream:
        data = stream.read()
    if len(data) < _HEADER.size:
        raise WalError(f"wal file {path!r} is shorter than its header")
    magic, base_lsn = _HEADER.unpack_from(data, 0)
    if magic != WAL_MAGIC:
        raise WalError(f"wal file {path!r} has bad magic {magic!r}")
    if lsn < base_lsn:
        raise WalError(f"truncate lsn {lsn} precedes base lsn {base_lsn}")
    offset = _HEADER.size
    dropped = 0
    boundary: Optional[int] = None
    while offset < len(data):
        at = base_lsn + (offset - _HEADER.size)
        if at >= lsn:
            if boundary is None:
                if at != lsn:
                    raise WalError(f"lsn {lsn} is not a record boundary")
                boundary = at
            dropped += 1
        frame_end = offset + _FRAME.size
        if frame_end > len(data):
            break  # torn/corrupt remainder: counted above if past the cut
        length, _ = _FRAME.unpack_from(data, offset)
        if frame_end + length > len(data):
            break
        offset = frame_end + length
    if boundary is None:
        end = base_lsn + (offset - _HEADER.size)
        if lsn != end:
            raise WalError(f"lsn {lsn} is not a record boundary")
        boundary = end
    with open(path, "r+b") as stream:
        stream.truncate(_HEADER.size + (boundary - base_lsn))
        stream.flush()
        os.fsync(stream.fileno())
    return dropped, boundary
