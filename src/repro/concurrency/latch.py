"""The reader-writer latch for concurrent query serving.

The paper evaluates the facilities one query at a time; the serving layer
lets many readers drive them at once. :class:`RWLatch` is one
writer-preference reader-writer latch, and the
:class:`~repro.objects.database.Database` facade holds one for the whole
database. Any number of readers share it; a writer excludes everyone.
Readers are *reentrant* (a thread holding the latch in read mode may
re-acquire it freely — nested query execution and subquery resolution
depend on this), a write holder may take read holds for free, and a single
reader may *upgrade* to write (a reader that calls
:meth:`~repro.objects.database.Database.rebuild_facility`). Writer
preference: once a writer is waiting, new first-time readers queue behind
it, so a steady read stream cannot starve mutations.

Latch traffic feeds the ``latch.*`` metrics:
``latch.read_acquires`` / ``latch.write_acquires`` count grants,
``latch.read_waits`` / ``latch.write_waits`` count acquisitions that had to
block at least once, and ``latch.upgrades`` counts read-to-write upgrades.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Dict, Optional

from repro.errors import LatchError
from repro.obs.metrics import REGISTRY

__all__ = ["RWLatch"]


class RWLatch:
    """Writer-preference reader-writer latch with reentrant reads.

    Invariants held under the internal mutex:

    * ``_writer`` is the ident of the thread holding write mode (or None);
      ``_writer_depth`` counts its reentrant write holds.
    * ``_readers`` maps thread ident → reentrant read depth.
    * ``_waiting_writers`` counts threads blocked in :meth:`acquire_write`;
      while it is non-zero, *first-time* readers wait (reentrant re-reads
      are always granted — blocking them would deadlock the holder).
    * ``_upgrader`` is the ident of the single thread allowed to wait for
      write while still holding read; a second concurrent upgrade attempt
      raises :class:`~repro.errors.LatchError` instead of deadlocking.
    """

    def __init__(self, name: str = "db"):
        self.name = name
        self._mutex = threading.Lock()
        self._can_read = threading.Condition(self._mutex)
        self._can_write = threading.Condition(self._mutex)
        self._readers: Dict[int, int] = {}
        self._writer: Optional[int] = None
        self._writer_depth = 0
        self._waiting_writers = 0
        self._upgrader: Optional[int] = None
        self._m_read = REGISTRY.counter("latch.read_acquires")
        self._m_write = REGISTRY.counter("latch.write_acquires")
        self._m_read_waits = REGISTRY.counter("latch.read_waits")
        self._m_write_waits = REGISTRY.counter("latch.write_waits")
        self._m_upgrades = REGISTRY.counter("latch.upgrades")

    # ------------------------------------------------------------------
    # Read side
    # ------------------------------------------------------------------
    def acquire_read(self) -> None:
        me = threading.get_ident()
        with self._mutex:
            if self._writer == me or me in self._readers:
                # Reentrant (or read-under-write): always granted, even
                # past waiting writers — the alternative is self-deadlock.
                self._readers[me] = self._readers.get(me, 0) + 1
                self._m_read.inc()
                return
            if self._writer is not None or self._waiting_writers:
                self._m_read_waits.inc()
                while self._writer is not None or self._waiting_writers:
                    self._can_read.wait()
            self._readers[me] = 1
            self._m_read.inc()

    def release_read(self) -> None:
        me = threading.get_ident()
        with self._mutex:
            depth = self._readers.get(me)
            if depth is None:
                raise LatchError(
                    f"latch {self.name!r}: release_read without a read hold"
                )
            if depth == 1:
                del self._readers[me]
            else:
                self._readers[me] = depth - 1
            if self._waiting_writers and (
                not self._readers or set(self._readers) == {self._upgrader}
            ):
                # Wake every waiting writer: with an upgrader still holding
                # its read, a single notify could land on a non-upgrader
                # that just re-blocks, swallowing the wakeup the upgrader
                # needs. Losers re-check grantability and wait again.
                self._can_write.notify_all()

    # ------------------------------------------------------------------
    # Write side
    # ------------------------------------------------------------------
    def acquire_write(self) -> None:
        me = threading.get_ident()
        with self._mutex:
            if self._writer == me:
                self._writer_depth += 1
                self._m_write.inc()
                return
            upgrading = me in self._readers
            if upgrading:
                if self._upgrader is not None:
                    raise LatchError(
                        f"latch {self.name!r}: concurrent read-to-write "
                        "upgrade would deadlock; one upgrader is already "
                        "waiting"
                    )
                self._upgrader = me
                self._m_upgrades.inc()
            self._waiting_writers += 1
            try:
                if not self._write_grantable(me):
                    self._m_write_waits.inc()
                    while not self._write_grantable(me):
                        self._can_write.wait()
            finally:
                self._waiting_writers -= 1
                if self._upgrader == me:
                    self._upgrader = None
            self._writer = me
            self._writer_depth = 1
            self._m_write.inc()

    def _write_grantable(self, me: int) -> bool:
        """Write may start when no writer holds and no *other* reader does."""
        if self._writer is not None:
            return False
        return all(ident == me for ident in self._readers)

    def release_write(self) -> None:
        me = threading.get_ident()
        with self._mutex:
            if self._writer != me:
                raise LatchError(
                    f"latch {self.name!r}: release_write without the write hold"
                )
            self._writer_depth -= 1
            if self._writer_depth:
                return
            self._writer = None
            if self._waiting_writers:
                self._can_write.notify()
            else:
                self._can_read.notify_all()

    # ------------------------------------------------------------------
    # Scope API
    # ------------------------------------------------------------------
    @contextmanager
    def read_scope(self):
        self.acquire_read()
        try:
            yield self
        finally:
            self.release_read()

    @contextmanager
    def write_scope(self):
        self.acquire_write()
        try:
            yield self
        finally:
            self.release_write()

    # ------------------------------------------------------------------
    # Introspection (tests, \health)
    # ------------------------------------------------------------------
    def state(self) -> Dict[str, int]:
        with self._mutex:
            return {
                "readers": sum(self._readers.values()),
                "reader_threads": len(self._readers),
                "writer_depth": self._writer_depth if self._writer else 0,
                "waiting_writers": self._waiting_writers,
            }

    def __repr__(self) -> str:
        s = self.state()
        return (
            f"RWLatch({self.name!r}, readers={s['readers']}, "
            f"writer_depth={s['writer_depth']}, "
            f"waiting_writers={s['waiting_writers']})"
        )
