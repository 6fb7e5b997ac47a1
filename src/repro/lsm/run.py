"""Immutable signature run segments.

A run is a sealed memtable (or the merge of older runs): an ordinary
SSF- or BSSF-format signature file pair, bulk-loaded once in sequence
order and never mutated again. Reusing the in-place facility classes
means runs get the packed-uint64 kernels, the per-page CRC sidecars and
the page-accounting semantics of the paper's facilities for free — a
run's search is exactly an in-place facility's search over its slice of
the entries.

Which of the two formats a run has is its *layout*, recorded in its
manifest descriptor. It follows how the run was made, not the facility's
kind: a memtable flush seals a sequential run (one signature file, a
handful of pages — the paper's ~1-page SSF insertion), while bulk loads
and compaction outputs are laid out in the facility's kind (bit-slicing
costs up to F page writes, paid once per merge). Drop tests depend only on
signature bits at positions the query fixes, so either layout returns the
same candidates.

Signatures are not invertible, so the element sets must ride along for
compaction merges. Each run writes its entry table — ``(oid, seq,
elements)`` rows in seq order, then its tombstones — once, into a
checksummed ``…:entries`` file beside the signature files, and keeps the
decoded table in memory; the manifest carries only the table's checksum.
"""

from __future__ import annotations

import zlib
from typing import Dict, FrozenSet, Hashable, Set, Tuple

from repro.access.bssf import BitSlicedSignatureFile
from repro.access.ssf import SequentialSignatureFile
from repro.core.signature import SignatureScheme
from repro.errors import ConfigurationError, IndexCorruptionError
from repro.lsm.manifest import read_blob, write_blob
from repro.objects.oid import OID
from repro.objects.serde import decode_value, encode_value
from repro.storage.paged_file import StorageManager

SetValue = FrozenSet[Hashable]

#: layout -> (inner facility class, the signature files of an instance)
_LAYOUTS = {
    "ssf": (SequentialSignatureFile, lambda inner: [inner.signature_file]),
    "bssf": (BitSlicedSignatureFile, lambda inner: inner._slice_files),
}
RUN_KINDS = tuple(_LAYOUTS)
SEQUENTIAL = "ssf"

_ENTRIES_MAGIC = b"SIGENT01"


def run_prefix(file_prefix: str, run_id: int) -> str:
    """Storage-file prefix for one run's files.

    The prefix stays under the facility's ``{kind}:{Class}.{attr}:``
    namespace so :func:`repro.access.catalog.facility_of_file` attributes
    run files to the right facility and a rebuild's prefix-drop removes
    them.
    """
    return f"{file_prefix}:r{run_id:06d}"


def _layout(layout: str):
    try:
        return _LAYOUTS[layout]
    except KeyError:
        raise ConfigurationError(f"unknown run layout: {layout!r}") from None


class SignatureRun:
    """One immutable run: inner signature facility + entry/tombstone tables."""

    def __init__(
        self,
        run_id: int,
        level: int,
        layout: str,
        inner,
        entries: Dict[OID, Tuple[SetValue, int]],
        tombstones: Set[OID],
        entries_file,
        table_crc: int,
    ):
        self.run_id = run_id
        self.level = level
        self.layout = layout
        self.inner = inner
        self.entries = entries
        self.tombstones = tombstones
        self.entries_file = entries_file
        self.table_crc = table_crc

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        storage: StorageManager,
        scheme: SignatureScheme,
        file_prefix: str,
        run_id: int,
        level: int,
        layout: str,
        entries: Dict[OID, Tuple[SetValue, int]],
        tombstones: Set[OID],
    ) -> "SignatureRun":
        """Seal ``entries`` into fresh storage files, bulk-loaded in seq order."""
        inner_class, _ = _layout(layout)
        prefix = run_prefix(file_prefix, run_id)
        inner = inner_class(storage, scheme, file_prefix=prefix)
        ordered = sorted(entries.items(), key=lambda item: item[1][1])
        inner.bulk_load([(elements, oid) for oid, (elements, _) in ordered])
        blob = encode_value([
            [[oid.to_int(), seq, elements] for oid, (elements, seq) in ordered],
            sorted(oid.to_int() for oid in tombstones),
        ])
        entries_file = storage.create_file(f"{prefix}:entries")
        write_blob(entries_file, _ENTRIES_MAGIC, run_id, blob)
        return cls(
            run_id, level, layout, inner, dict(entries), set(tombstones),
            entries_file, zlib.crc32(blob),
        )

    @classmethod
    def attach(
        cls,
        storage: StorageManager,
        scheme: SignatureScheme,
        file_prefix: str,
        descriptor: list,
    ) -> "SignatureRun":
        """Re-open the run a :meth:`to_state` descriptor names (checkpoint load)."""
        run_id, level, layout, entry_count, tombstone_count, table_crc = descriptor
        inner_class, _ = _layout(layout)
        prefix = run_prefix(file_prefix, run_id)
        entries_file = storage.open_file(f"{prefix}:entries")
        framed = read_blob(entries_file, _ENTRIES_MAGIC)
        if framed is None:
            raise IndexCorruptionError(
                f"run {run_id}: entry table {entries_file.name!r} is damaged"
            )
        blob = framed[1]
        if zlib.crc32(blob) != table_crc:
            raise IndexCorruptionError(
                f"run {run_id}: entry table {entries_file.name!r} does not "
                f"carry the checksum {table_crc:#010x} the manifest records"
            )
        entry_rows, tombstone_ints = decode_value(blob)
        if (len(entry_rows), len(tombstone_ints)) != (entry_count, tombstone_count):
            raise IndexCorruptionError(
                f"run {run_id}: entry table holds {len(entry_rows)} entries and "
                f"{len(tombstone_ints)} tombstones, manifest says "
                f"{entry_count} and {tombstone_count}"
            )
        inner = inner_class.attach(
            storage, scheme, file_prefix=prefix, entry_count=entry_count
        )
        entries = {
            OID.from_int(oid_int): (frozenset(elements), seq)
            for oid_int, seq, elements in entry_rows
        }
        tombstones = {OID.from_int(value) for value in tombstone_ints}
        return cls(
            run_id, level, layout, inner, entries, tombstones,
            entries_file, table_crc,
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __contains__(self, oid: OID) -> bool:
        return oid in self.entries or oid in self.tombstones

    def seq_of(self, oid: OID) -> int:
        return self.entries[oid][1]

    @property
    def entry_count(self) -> int:
        return len(self.entries)

    def signature_pages(self) -> int:
        """Signature pages a full scan of this run reads (its OID file aside)."""
        pages = self.inner.storage_pages()
        return sum(pages.values()) - pages["oid"]

    def storage_pages(self) -> int:
        return sum(self.inner.storage_pages().values()) + self.entries_file.num_pages

    def file_names(self):
        """Names of this run's storage files (for GC after compaction)."""
        _, signature_files = _layout(self.layout)
        names = [file.name for file in signature_files(self.inner)]
        names.append(self.inner.oid_file.file.name)
        names.append(self.entries_file.name)
        return names

    def drop_files(self, storage: StorageManager) -> None:
        for name in self.file_names():
            storage.drop_file(name)

    def verify(self) -> None:
        self.inner.verify()
        if self.inner.entry_count != len(self.entries):
            raise IndexCorruptionError(
                f"run {self.run_id}: inner facility holds "
                f"{self.inner.entry_count} entries, entry table says "
                f"{len(self.entries)}"
            )

    # ------------------------------------------------------------------
    # Manifest descriptor
    # ------------------------------------------------------------------
    def to_state(self) -> list:
        """Fixed-size descriptor; :meth:`attach` re-opens the run from it."""
        return [
            self.run_id,
            self.level,
            self.layout,
            len(self.entries),
            len(self.tombstones),
            self.table_crc,
        ]

    def __repr__(self) -> str:
        return (
            f"SignatureRun(id={self.run_id}, level={self.level}, "
            f"layout={self.layout!r}, entries={len(self.entries)}, "
            f"tombstones={len(self.tombstones)})"
        )
