"""Background run compaction.

Inline compaction (the default, ``auto_compact=True`` on the facility)
cascades tiered merges synchronously at flush time — deterministic, which
is what WAL replay and the crash matrix need. :class:`Compactor` is the
operational alternative: a daemon thread that watches one facility and
merges over-full tiers without stalling readers. The expensive half of a
merge — reading the immutable victim runs and bulk-loading the output
segment — runs with *no* latch held (new files are invisible until
installed); only the pointer swap and manifest install take the database
write latch, and :meth:`LSMSignatureFacility.install_compaction`
revalidates the victims under it.
"""

from __future__ import annotations

import threading
from typing import Optional

from repro.lsm.facility import LSMSignatureFacility
from repro.objects.database import Database


class Compactor:
    """Daemon thread merging one facility's runs under the tiered policy."""

    def __init__(
        self,
        database: Database,
        facility: LSMSignatureFacility,
        *,
        interval: float = 0.05,
    ):
        self._database = database
        self._facility = facility
        self._interval = interval
        self._stop = threading.Event()
        self._wake = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self.merges = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "Compactor":
        if self._thread is not None:
            return self
        self._facility.auto_compact = False
        self._thread = threading.Thread(
            target=self._loop, name="lsm-compactor", daemon=True
        )
        self._thread.start()
        return self

    def stop(self, *, drain: bool = True) -> None:
        """Stop the thread; with ``drain`` finish outstanding merges first.

        The thread is joined *before* draining: a drain loop racing the
        merge loop could lose an install to it (stale plan) and read that
        as "nothing left" while a tier is still over-full.
        """
        if self._thread is None:
            return
        self._stop.set()
        self._wake.set()
        self._thread.join(timeout=10.0)
        self._thread = None
        if drain:
            while self._run_once():
                self.merges += 1
        self._facility.auto_compact = True

    def poke(self) -> None:
        """Wake the thread early (e.g. right after a flush)."""
        self._wake.set()

    def __enter__(self) -> "Compactor":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # Merge loop
    # ------------------------------------------------------------------
    def _loop(self) -> None:
        while not self._stop.is_set():
            if self._run_once():
                self.merges += 1
                continue  # cascade immediately while tiers stay over-full
            self._wake.wait(self._interval)
            self._wake.clear()

    def _run_once(self) -> bool:
        """One merge: prepare latch-free, install under the write latch."""
        plan = self._facility.prepare_compaction()
        if plan is None:
            return False
        with self._database.write_scope():
            return self._facility.install_compaction(plan)

    def __repr__(self) -> str:
        running = self._thread is not None
        return (
            f"Compactor(facility={self._facility.file_prefix!r}, "
            f"running={running}, merges={self.merges})"
        )
