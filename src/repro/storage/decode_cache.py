"""The one decode an owner holds of its file, keyed on the file's version.

Decoding page images — an SSF signature matrix, a BSSF slice matrix, an
OID entry table, a nested-index node map, a map of object records — is a
pure function of the file content, and every content change bumps the
file's :attr:`~repro.storage.paged_file.PagedFile.version` (the BSSF
slices share a version group's counter). A decode captured at version
``v`` is valid exactly while the file is still at ``v``, so each owner
keeps one :class:`DecodeSlot` bound to that version and supplies only
what is its own: how to build the decode, how a write changes it
(:meth:`DecodeSlot.follow`, so the read after a write decodes nothing)
and how to tell it from the pages (:meth:`DecodeSlot.verify`).

The slot lives strictly *above* the I/O accounting: owners charge the
page reads a hit stands for themselves (:meth:`PagedFile.charge_read`),
so the paper's page-access metric is the same warm or cold. Readers never
mutate a payload; writers copy any shared part they change, and run under
the facade write latch (docs/CONCURRENCY.md), which excludes every reader
while ``follow`` changes the payload. A write that fails part-way never
reaches ``follow``: the payload stays at a version the file has left and
the next reader decodes afresh. Writes image pages from these payloads, so
one that drifted from its file would become a durable page with a valid
CRC; ``verify`` drops it and raises :class:`~repro.errors.IndexCorruptionError`.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Dict, Optional, Tuple

from repro.errors import IndexCorruptionError
from repro.obs import tracer as trace
from repro.obs.metrics import REGISTRY


class DecodeSlot:
    """One decoded payload, held at the version of the file it decodes.

    ``version`` reads the file's current version. A ``traced`` slot
    annotates the innermost trace span ``decode="hit"`` or ``"miss"`` on
    every :meth:`get`.
    """

    def __init__(self, version: Callable[[], int], traced: bool = False):
        self._version = version
        self._traced = traced
        self._lock = threading.Lock()
        self._held: Optional[Tuple[int, Any]] = None
        self.hits = 0
        self.misses = 0
        self._metric_hits = REGISTRY.counter("storage.decode_cache.hits")
        self._metric_misses = REGISTRY.counter("storage.decode_cache.misses")
        self._metric_patches = REGISTRY.counter("storage.decode_cache.patches")
        self._metric_drops = REGISTRY.counter("storage.decode_cache.drops")

    def get(self, build: Callable[[], Any]) -> Any:
        """The payload held at the file's version — a hit — or, on a miss,
        ``build()``'s, which is held from then on."""
        version = self._version()
        with self._lock:
            held = self._held
            hit = held is not None and held[0] == version
            if hit:
                self.hits += 1
                self._metric_hits.inc()
            else:
                self.misses += 1
                self._metric_misses.inc()
                self._held = None  # stale: never served again
        if self._traced:
            trace.annotate(decode="hit" if hit else "miss")
        if hit:
            return held[1]
        payload = build()
        with self._lock:
            self._held = (version, payload)
        return payload

    def follow(self, before: int, patch: Callable[[Any], Optional[Any]]) -> None:
        """Carry the payload across a write that moved the file from ``before``.

        ``patch(payload)`` makes the change the write made to the file and
        returns the payload to hold at the file's new version — the same
        object changed in place, or a regrown copy — or ``None`` when it
        cannot follow the write. A payload held at any other version, or
        one ``patch`` gives up on, is dropped; nothing held is a no-op.
        Neither a hit nor a miss: no reader asked for anything.
        """
        after = self._version()
        with self._lock:
            held = self._held
            if held is None:
                return
            patched = patch(held[1]) if held[0] == before else None
            if patched is None:
                self._held = None
                self._metric_drops.inc()
            else:
                self._held = (after, patched)
                self._metric_patches.inc()

    def verify(self, diff: Callable[[Any], Optional[str]]) -> None:
        """Check the payload held at the file's version against the file.

        ``diff(payload)`` decodes the pages afresh, charging nothing, and
        returns ``None`` when they match, else the error message naming
        where they differ. A payload that differs is dropped, so the next
        reader decodes afresh, and :class:`IndexCorruptionError` is raised.
        A payload held at a version the file has left is never served
        again and is not checked.
        """
        version = self._version()
        held = self.held()
        if held is None or held[0] != version:
            return
        message = diff(held[1])
        if message is not None:
            self.drop()
            raise IndexCorruptionError(message)

    def held(self) -> Optional[Tuple[int, Any]]:
        """``(version, payload)`` held, or ``None``, counted as no lookup.

        For verifiers and tests, which must not move the hit ratio the
        workload is measured by.
        """
        with self._lock:
            return self._held

    def drop(self) -> None:
        """Let the payload go (uncounted): the next reader decodes afresh."""
        with self._lock:
            self._held = None

    def stats(self) -> Dict[str, int]:
        """Payloads held (0 or 1) and this slot's hits and misses."""
        with self._lock:
            return {
                "entries": int(self._held is not None),
                "hits": self.hits,
                "misses": self.misses,
            }
