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

A run's record is its signature rows: the packed ``(n, W)`` uint64
signature of each entry, in seq order, held in memory as ``words`` and
written once, at build, into a checksummed ``…:entries`` table beside
the signature files, with each entry's OID and seq and the run's
tombstones. Signatures are not invertible, and nothing needs the element
sets back: a flush seals the memtable's rows, a merge gathers its
victims' rows, so neither hashes a set again, and a restart reads the
table back as arrays with no serde decode. The manifest carries only the
table's checksum.

The table (magic ``SIGENT02``) is a ``(entries, tombstones)`` counts
header, then the OIDs (uint64), the seqs (int64), the sorted tombstones
(uint64) and the rows, each little-endian. A ``SIGENT01`` table (serde
element sets) fails the magic check and attaches as damaged, never as an
empty run.
"""

from __future__ import annotations

import struct
import zlib
from typing import Dict, List, Set, Tuple

import numpy as np

from repro.access.bssf import BitSlicedSignatureFile
from repro.access.ssf import SequentialSignatureFile
from repro.core import kernels
from repro.core.signature import SignatureScheme
from repro.errors import ConfigurationError, IndexCorruptionError
from repro.lsm.manifest import read_blob, write_blob
from repro.objects.oid import OID
from repro.storage.paged_file import StorageManager

#: layout -> (inner facility class, the signature files of an instance)
_LAYOUTS = {
    "ssf": (SequentialSignatureFile, lambda inner: [inner.signature_file]),
    "bssf": (BitSlicedSignatureFile, lambda inner: inner._slice_files),
}
RUN_KINDS = tuple(_LAYOUTS)
SEQUENTIAL = "ssf"

_ENTRIES_MAGIC = b"SIGENT02"
_COUNTS = struct.Struct("<QQ")  # entries, tombstones


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
    """One immutable run: inner signature facility + its signature rows,
    entry map and tombstones."""

    def __init__(
        self,
        run_id: int,
        level: int,
        layout: str,
        inner,
        entries: Dict[OID, Tuple[int, int]],
        words: np.ndarray,
        tombstones: Set[OID],
        entries_file,
        table_crc: int,
    ):
        self.run_id = run_id
        self.level = level
        self.layout = layout
        self.inner = inner
        self.entries = entries  # OID -> (seq, row of words)
        self.words = words
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
        keys: List[Tuple[int, OID]],
        words: np.ndarray,
        tombstones: Set[OID],
    ) -> "SignatureRun":
        """Seal ``keys`` — ``(seq, oid)`` pairs in seq order — and their
        packed signature rows ``words`` into fresh storage files."""
        inner_class, _ = _layout(layout)
        prefix = run_prefix(file_prefix, run_id)
        inner = inner_class(storage, scheme, file_prefix=prefix)
        oids = [oid for _, oid in keys]
        inner.bulk_load_words(words, oids)
        blob = b"".join([
            _COUNTS.pack(len(keys), len(tombstones)),
            np.array([oid.to_int() for oid in oids], dtype="<u8").tobytes(),
            np.array([seq for seq, _ in keys], dtype="<i8").tobytes(),
            np.array(
                sorted(oid.to_int() for oid in tombstones), dtype="<u8"
            ).tobytes(),
            np.ascontiguousarray(words, dtype="<u8").tobytes(),
        ])
        entries_file = storage.create_file(f"{prefix}:entries")
        write_blob(entries_file, _ENTRIES_MAGIC, run_id, blob)
        entries = {oid: (seq, row) for row, (seq, oid) in enumerate(keys)}
        return cls(
            run_id, level, layout, inner, entries, words, set(tombstones),
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
        if framed is None or len(framed[1]) < _COUNTS.size:
            raise IndexCorruptionError(
                f"run {run_id}: entry table {entries_file.name!r} is damaged"
            )
        blob = framed[1]
        if zlib.crc32(blob) != table_crc:
            raise IndexCorruptionError(
                f"run {run_id}: entry table {entries_file.name!r} does not "
                f"carry the checksum {table_crc:#010x} the manifest records"
            )
        entries, tombstones = _COUNTS.unpack_from(blob)
        if (entries, tombstones) != (entry_count, tombstone_count):
            raise IndexCorruptionError(
                f"run {run_id}: entry table holds {entries} entries and "
                f"{tombstones} tombstones, manifest says "
                f"{entry_count} and {tombstone_count}"
            )
        width = kernels.words_for_bits(scheme.signature_bits)
        if len(blob) != _COUNTS.size + 8 * (entries * (2 + width) + tombstones):
            raise IndexCorruptionError(
                f"run {run_id}: entry table {entries_file.name!r} is "
                f"{len(blob)} bytes, not the size of {entries} rows of "
                f"{width} words and {tombstones} tombstones"
            )
        body = np.frombuffer(blob, dtype="<u8", offset=_COUNTS.size)
        oid_ints = body[:entries]
        seqs = body[entries:2 * entries].view("<i8")
        tombstone_ints = body[2 * entries:2 * entries + tombstones]
        words = body[2 * entries + tombstones:].reshape(entries, width)
        inner = inner_class.attach(
            storage, scheme, file_prefix=prefix, entry_count=entry_count
        )
        return cls(
            run_id, level, layout, inner,
            {
                OID.from_int(oid_int): (seq, row)
                for row, (oid_int, seq) in enumerate(
                    zip(oid_ints.tolist(), seqs.tolist())
                )
            },
            words,
            {OID.from_int(value) for value in tombstone_ints.tolist()},
            entries_file, table_crc,
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __contains__(self, oid: OID) -> bool:
        return oid in self.entries or oid in self.tombstones

    def seq_of(self, oid: OID) -> int:
        return self.entries[oid][0]

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
        if not self.inner.entry_count == len(self.entries) == len(self.words):
            raise IndexCorruptionError(
                f"run {self.run_id}: inner facility holds "
                f"{self.inner.entry_count} entries, entry table says "
                f"{len(self.entries)} with {len(self.words)} rows"
            )

    def verify_decodes(self) -> None:
        """Check the inner facility's held decodes, then the held rows,
        against the signature pages.

        A merge writes ``words`` into new durable pages with valid CRCs,
        so a poisoned row must be caught here, before it is copied.
        """
        self.inner.verify_decodes()
        stored = self.inner.decode_signatures()
        if stored.shape != self.words.shape:
            bad = min(len(stored), len(self.words))
        else:
            differs = np.flatnonzero((stored != self.words).any(axis=1))
            if not len(differs):
                return
            bad = int(differs[0])
        raise IndexCorruptionError(
            f"run {self.run_id}: held signature row {bad} differs from "
            f"the run's signature file"
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
