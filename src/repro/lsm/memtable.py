"""In-memory write buffer for the LSM signature path.

The memtable is the newest layer of the facility: it holds every entry
inserted since the last flush plus tombstones for every OID deleted since
then. Durability comes from the WAL — the database logs each object
mutation before it maintains the facility — so nothing here touches
storage, which is exactly what lets the write path amortize fsyncs.

Each entry keeps the facility-wide sequence number of the insert (query
results are ordered by it — see :mod:`repro.lsm.facility`) and the row
its signature takes in a packed ``(buffer, rows)`` table, grown by
:func:`kernels.append_rows` as SSF's signature matrix is. A search is
then one row kernel over that table, ANDed with a live mask: an update or
a delete clears the old row's live bit, and a row is never reused within
a memtable generation. A flush seals the live rows as they are
(:meth:`MemTable.live_rows`), so a set is hashed once, on insert. The
element sets are kept only for the checkpoint state (:meth:`to_state`),
which re-inserts them on load.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Hashable, List, Set, Tuple

import numpy as np

from repro.core import kernels
from repro.core.signature import SignatureScheme
from repro.objects.oid import OID

SetValue = FrozenSet[Hashable]


class MemTable:
    """Mutable newest layer: ``OID -> (elements, seq, row)`` + tombstones."""

    def __init__(self, scheme: SignatureScheme) -> None:
        self.scheme = scheme
        self.entries: Dict[OID, Tuple[SetValue, int, int]] = {}
        self.tombstones: Set[OID] = set()
        # Operations absorbed since creation; drives the flush threshold.
        self.ops = 0
        nwords = kernels.words_for_bits(scheme.signature_bits)
        self._signatures = (np.zeros((0, nwords), dtype=np.uint64), 0)
        self._live = bytearray()  # 1 while the row is its OID's entry
        self._keys: List[Tuple[int, OID]] = []  # (seq, oid) of each row

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def is_empty(self) -> bool:
        return not self.entries and not self.tombstones

    def insert(self, elements: SetValue, oid: OID, seq: int) -> None:
        """Record a new live version of ``oid`` with sequence number ``seq``."""
        self._retire(oid)
        row = len(self._keys)
        self._signatures = kernels.append_rows(
            self._signatures, row, [self.scheme.set_signature(elements).words]
        )
        self._live.append(1)
        self._keys.append((seq, oid))
        self.entries[oid] = (elements, seq, row)
        self.tombstones.discard(oid)
        self.ops += 1

    def delete(self, oid: OID) -> None:
        """Record the deletion of ``oid`` (shadows any older layer)."""
        self._retire(oid)
        self.tombstones.add(oid)
        self.ops += 1

    def _retire(self, oid: OID) -> None:
        entry = self.entries.pop(oid, None)
        if entry is not None:
            self._live[entry[2]] = 0

    def drops(self, mode: str, words: np.ndarray) -> List[Tuple[int, OID]]:
        """``(seq, oid)`` of each live entry ``mode``'s drop test keeps.

        ``words`` are what :func:`repro.access.base.query_words` derives
        for ``mode``; rows come back in row order, which is seq order.
        """
        buffer, rows = self._signatures
        live = np.frombuffer(self._live, dtype=bool)
        hits = kernels.ROW_TESTS[mode](buffer[:rows], words) & live
        keys = self._keys
        return [keys[row] for row in np.flatnonzero(hits).tolist()]

    def live_rows(self) -> Tuple[List[Tuple[int, OID]], np.ndarray]:
        """``(seq, oid)`` of every live entry and its packed signature
        rows, both in seq order (what a flush seals into a run)."""
        buffer, _ = self._signatures
        rows = np.flatnonzero(np.frombuffer(self._live, dtype=bool))
        keys = self._keys
        return [keys[row] for row in rows.tolist()], buffer[rows]

    # ------------------------------------------------------------------
    # Checkpoint descriptor
    # ------------------------------------------------------------------
    def to_state(self) -> list:
        """Serde-encodable state: entries in seq order + sorted tombstones."""
        entries = sorted(self.entries.items(), key=lambda item: item[1][1])
        return [
            [[oid.to_int(), seq, elements] for oid, (elements, seq, _) in entries],
            sorted(oid.to_int() for oid in self.tombstones),
            self.ops,
        ]

    @classmethod
    def from_state(cls, state: list, scheme: SignatureScheme) -> "MemTable":
        table = cls(scheme)
        entry_rows, tombstone_ints, ops = state
        for oid_int, seq, elements in entry_rows:
            table.insert(frozenset(elements), OID.from_int(oid_int), seq)
        table.tombstones = {OID.from_int(value) for value in tombstone_ints}
        table.ops = ops
        return table
