"""Version-keyed cache of decoded page-file content.

The access methods repeatedly decode the same immutable page images into
packed word arrays — a BSSF slice column, an SSF signature matrix. Decoding
is pure function of ``(file content)``, and every file content change bumps
the file's :attr:`~repro.storage.paged_file.PagedFile.version`, so a decode
captured at version ``v`` is valid exactly while the file is still at
``v``. A :class:`DecodeCache` memoizes one payload per file name, keyed on
that version; a lookup with any other version is a miss and implicitly
invalidates the stale entry.

The cache lives strictly *above* the I/O accounting: callers must charge
the logical page reads of a hit themselves (see
:meth:`PagedFile.charge_read`), which keeps the paper's page-access metric
bit-identical whether or not the cache is warm.

Lookups and insertions are serialized by a small internal lock so the LRU
order, hit/miss counters, and entry map stay consistent under concurrent
readers. Readers never mutate a payload, so sharing one across reader
threads is safe. Writers read payloads too: an in-place write builds the
pages it rewrites from the decode it finds (a slice matrix, an OID word
table) and, where the payload is made of parts, writers copy the shared
node — the nested index changes a copy of a decoded node, never the one in
the map. The one mutation is :meth:`DecodeCache.patch`: an in-place writer
that has just moved the file from version ``v`` to ``v'`` applies the same
change to the payload held at ``v`` and re-keys it at ``v'``, so the read
after a write costs no decode. Writers run under the facade write latch
(docs/CONCURRENCY.md), which already excludes every reader of the payload.
The version check stays the only validity test: a write that fails
part-way never reaches ``patch``, the payload stays keyed at a version the
file has left, and the next reader decodes afresh.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Callable, Dict, Optional, Tuple

from repro.errors import StorageError
from repro.obs.metrics import REGISTRY


class DecodeCache:
    """LRU cache of ``file name → (version, decoded payload)``."""

    def __init__(self, max_entries: int = 4096):
        if max_entries <= 0:
            raise StorageError(
                f"decode cache needs max_entries >= 1, got {max_entries}"
            )
        self.max_entries = max_entries
        self._lock = threading.Lock()
        self._entries: "OrderedDict[str, Tuple[int, Any]]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self._metric_hits = REGISTRY.counter("storage.decode_cache.hits")
        self._metric_misses = REGISTRY.counter("storage.decode_cache.misses")
        self._metric_patches = REGISTRY.counter("storage.decode_cache.patches")
        self._metric_drops = REGISTRY.counter("storage.decode_cache.drops")

    def get(self, name: str, version: int) -> Optional[Any]:
        """The payload cached for ``name`` iff it was decoded at ``version``."""
        with self._lock:
            entry = self._entries.get(name)
            if entry is not None and entry[0] == version:
                self.hits += 1
                self._metric_hits.inc()
                self._entries.move_to_end(name)
                return entry[1]
            self.misses += 1
            self._metric_misses.inc()
            if entry is not None:
                # Stale version: the slot will be overwritten by the caller's
                # re-decode; drop it now so it cannot be served again.
                del self._entries[name]
            return None

    def put(self, name: str, version: int, payload: Any) -> None:
        with self._lock:
            self._entries[name] = (version, payload)
            self._entries.move_to_end(name)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)

    def patch(
        self,
        name: str,
        old_version: int,
        new_version: int,
        apply: Callable[[Any], Optional[Any]],
    ) -> None:
        """Carry ``name``'s payload across a write from ``old_version``.

        ``apply(payload)`` makes the change the write made to the file and
        returns the payload to hold at ``new_version`` — the same object
        patched in place, or a regrown copy — or ``None`` when it cannot
        follow the write. A payload held at any other version, or one
        ``apply`` gives up on, is dropped; nothing cached is a no-op.
        Neither a hit nor a miss: no reader asked for anything.
        """
        with self._lock:
            entry = self._entries.get(name)
            if entry is None:
                return
            patched = apply(entry[1]) if entry[0] == old_version else None
            if patched is None:
                del self._entries[name]
                self._metric_drops.inc()
            else:
                self._entries[name] = (new_version, patched)
                self._metric_patches.inc()

    def entry(self, name: str) -> Optional[Tuple[int, Any]]:
        """``(version, payload)`` held for ``name``, counted as no lookup.

        For verifiers, which compare a payload with its file and must not
        move the hit ratio the workload is measured by.
        """
        with self._lock:
            return self._entries.get(name)

    def invalidate(self, name: str) -> None:
        with self._lock:
            self._entries.pop(name, None)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "entries": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
            }
