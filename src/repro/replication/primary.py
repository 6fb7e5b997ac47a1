"""Primary-side replication: WAL shipping source and checkpoint answers.

:class:`ReplicationSource` wraps the primary :class:`~repro.objects.database
.Database` (whose WAL must be attached) and gives the network layer
everything log shipping needs, with no socket knowledge of its own:

* :meth:`subscribe` / :meth:`unsubscribe` — per-replica cursors with lag
  accounting in ``replication.*`` metrics;
* :meth:`records_since` — raw record payloads past a watermark, base64'd
  for the JSON wire (the replica re-frames them byte-identically);
* :meth:`sync_response` — the answer to a stale or diverged subscriber:
  this primary's ``checkpoint.sigdb``, sliced across budgeted
  ``SYNC_PAGES`` frames so no file can outgrow the frame cap;
* :meth:`status` — the operator surface behind ``PONG`` and ``\\replicas``.
"""

from __future__ import annotations

import base64
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro import wire
from repro.errors import ProtocolError, ReplicationError, StaleSubscriberError
from repro.obs.metrics import REGISTRY

__all__ = ["ReplicaCursor", "ReplicationSource"]

#: bytes budgeted per SYNC_PAGES frame when the caller names no cap
_DEFAULT_SYNC_FRAME_BYTES = wire.DEFAULT_MAX_FRAME_BYTES // 2

#: JSON framing around a SYNC_PAGES slice: keys, offset digits, ``more``
_SYNC_FRAME_OVERHEAD = 64


@dataclass
class ReplicaCursor:
    """One subscriber's progress through the primary's log."""

    name: str
    shipped_lsn: int  #: LSN just past the last record sent
    acked_lsn: int  #: LSN the replica confirmed durably applied
    subscribed_at: float = field(default_factory=time.monotonic)

    def lag_bytes(self, end_lsn: int) -> int:
        return max(0, end_lsn - self.acked_lsn)


class ReplicationSource:
    """Log-shipping source over one WAL-mode primary database."""

    def __init__(self, database):
        if database.wal is None:
            raise ReplicationError(
                "a replication source needs a WAL-mode primary "
                "(durability='wal'); this database has no log attached"
            )
        self.database = database
        self._lock = threading.Lock()
        self._cursors: Dict[int, ReplicaCursor] = {}
        self._next_id = 1
        self._m_shipped = REGISTRY.counter("replication.records_shipped")
        self._m_bytes = REGISTRY.counter("replication.bytes_shipped")
        self._m_acks = REGISTRY.counter("replication.acks")
        self._m_heartbeats = REGISTRY.counter("replication.heartbeats")
        self._m_syncs = REGISTRY.counter("replication.syncs")
        self._m_sync_bytes = REGISTRY.counter("replication.sync_bytes_shipped")
        self._m_stale = REGISTRY.counter("replication.stale_subscribers")

    @property
    def wal(self):
        return self.database.wal

    @property
    def end_lsn(self) -> int:
        return self.wal.end_lsn

    # ------------------------------------------------------------------
    # Subscriptions
    # ------------------------------------------------------------------
    def subscribe(self, from_lsn: int, name: Optional[str] = None) -> Tuple[int, ReplicaCursor]:
        """Validate a watermark and register a cursor for it.

        ``from_lsn`` must be a record boundary the log still holds: below
        the base means a checkpoint truncated past the subscriber
        (:class:`~repro.errors.StaleSubscriberError` — only installing
        the checkpoint can catch it up); past the end means the replica
        diverged from this primary's history entirely.
        """
        wal = self.wal
        if from_lsn < wal.base_lsn:
            self._m_stale.inc()
            raise StaleSubscriberError(
                f"subscriber watermark {from_lsn} precedes the log's base "
                f"lsn {wal.base_lsn} (truncated by a checkpoint); install "
                "the primary's checkpoint",
                base_lsn=wal.base_lsn,
            )
        if from_lsn > wal.end_lsn:
            raise ReplicationError(
                f"subscriber watermark {from_lsn} is past this primary's "
                f"end lsn {wal.end_lsn}; the replica followed a different "
                "history and must re-sync from scratch"
            )
        if from_lsn != wal.end_lsn and all(
            record.lsn != from_lsn for record in wal.records()
        ):
            raise ReplicationError(
                f"subscriber watermark {from_lsn} is not a record boundary "
                "of this primary's log"
            )
        with self._lock:
            cursor_id = self._next_id
            self._next_id += 1
            cursor = ReplicaCursor(
                name=name or f"replica-{cursor_id}",
                shipped_lsn=from_lsn,
                acked_lsn=from_lsn,
            )
            self._cursors[cursor_id] = cursor
        self._sync_gauges()
        return cursor_id, cursor

    def unsubscribe(self, cursor_id: int) -> None:
        with self._lock:
            self._cursors.pop(cursor_id, None)
        self._sync_gauges()

    # ------------------------------------------------------------------
    # Shipping
    # ------------------------------------------------------------------
    def records_since(
        self, lsn: int, max_bytes: int
    ) -> Tuple[List[List[Any]], int]:
        """``([[lsn, b64-payload], ...], end)`` — the next shippable batch."""
        if lsn < self.wal.base_lsn:
            self._m_stale.inc()
            raise StaleSubscriberError(
                f"watermark {lsn} fell behind the log's base "
                f"{self.wal.base_lsn} mid-stream (checkpoint truncation)",
                base_lsn=self.wal.base_lsn,
            )
        payloads, end = self.wal.payloads_from(lsn, max_bytes=max_bytes)
        batch = [
            [at, base64.b64encode(payload).decode("ascii")]
            for at, payload in payloads
        ]
        return batch, end

    def note_shipped(self, cursor: ReplicaCursor, records: int, payload_bytes: int) -> None:
        self._m_shipped.inc(records)
        self._m_bytes.inc(payload_bytes)
        self._sync_gauges()

    def note_ack(self, cursor: ReplicaCursor, lsn: int) -> None:
        cursor.acked_lsn = max(cursor.acked_lsn, lsn)
        self._m_acks.inc()
        self._sync_gauges()

    def note_heartbeat(self) -> None:
        self._m_heartbeats.inc()

    def wait_for_append(self, lsn: int, timeout: float) -> bool:
        return self.wal.wait_for_append(lsn, timeout)

    # ------------------------------------------------------------------
    # Checkpoint install
    # ------------------------------------------------------------------
    def sync_response(
        self, request: Dict[str, Any], *, max_bytes: Optional[int] = None
    ) -> Iterator[Dict[str, Any]]:
        """Answer one ``SYNC`` request: this primary's checkpoint file.

        Yields ``SYNC_PAGES`` frames ``{"offset", "data", "more"}``, each
        a base64 slice of ``checkpoint.sigdb`` sized so the frame stays
        within ``max_bytes`` (at least one byte per frame, so any budget
        makes progress); ``more`` is ``False`` on the last. The file is
        read from one open handle, so a concurrent checkpoint's rename
        cannot tear it, and no latch is held while it is read or framed.
        A primary that never checkpointed (a diverged subscriber can find
        it so; a stale one cannot) checkpoints first, so the answer has
        one shape. The subscriber learns the file's LSN from the file.
        """
        if "files" in request:
            raise ProtocolError(
                "this primary answers SYNC with its checkpoint file, not "
                "Merkle page ranges; upgrade the replica"
            )
        db = self.database
        budget = max_bytes or _DEFAULT_SYNC_FRAME_BYTES
        # base64 turns each 3 raw bytes into 4; the rest is JSON framing
        slice_bytes = max(1, (budget - _SYNC_FRAME_OVERHEAD) // 4 * 3)
        self._m_syncs.inc()
        if not os.path.exists(db.checkpoint_path):
            db.checkpoint()
        with open(db.checkpoint_path, "rb") as stream:
            size = os.fstat(stream.fileno()).st_size
            for offset in range(0, size, slice_bytes):
                yield {
                    "offset": offset,
                    "data": base64.b64encode(stream.read(slice_bytes)).decode("ascii"),
                    "more": offset + slice_bytes < size,
                }
        # Resumed past the last frame, so it was sent: an answer abandoned
        # or cut short counts no bytes.
        self._m_sync_bytes.inc(size)

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def status(self) -> List[Dict[str, Any]]:
        """Per-replica lag, for ``PONG`` payloads and the shell."""
        end = self.end_lsn
        with self._lock:
            return [
                {
                    "name": cursor.name,
                    "shipped_lsn": cursor.shipped_lsn,
                    "acked_lsn": cursor.acked_lsn,
                    "lag_bytes": cursor.lag_bytes(end),
                }
                for cursor in self._cursors.values()
            ]

    def _sync_gauges(self) -> None:
        end = self.end_lsn
        with self._lock:
            cursors = list(self._cursors.values())
        REGISTRY.gauge("replication.replicas").set(len(cursors))
        REGISTRY.gauge("replication.max_lag_bytes").set(
            max((c.lag_bytes(end) for c in cursors), default=0)
        )
