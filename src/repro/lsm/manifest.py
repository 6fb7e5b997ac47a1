"""Dual-slot, versioned run manifest with atomic installs.

The manifest records which runs are live for one LSM facility, as one
fixed-size descriptor per run (:meth:`SignatureRun.to_state`): id, level,
layout, entry and tombstone counts and the checksum of the run's entry
table. What a run *holds* lives in the run's own files, written once when
the run is built, so an install encodes O(number of runs) — normally one
blob page — however many entries the facility stores.

It is the classic two-slot scheme: installs alternate between slot files
``a`` and ``b``, writing the blob pages first and the self-validating
header page last. A reader considers a slot valid only if its header
magic, blob length and CRC32 all check out (and every page passes the
store's CRC sidecar), then loads the valid slot with the highest version.
A crash or torn write during an install therefore damages only the slot
being written — the loader falls back to the other slot, i.e. the
previous run set, which is exactly the "torn manifest rolls back"
invariant the crash matrix asserts.

Slot payloads are one deterministic serde value (``[version,
[run descriptors...]]``), so identical logical installs produce identical
pages — a property the WAL crash matrix's byte-equivalence proof relies
on. The framing (:func:`write_blob` / :func:`read_blob`) is shared with
the runs' entry tables.
"""

from __future__ import annotations

import struct
import zlib
from typing import List, Optional, Tuple

from repro.errors import CorruptPageError, StorageError
from repro.objects.serde import decode_value, encode_value
from repro.obs.metrics import REGISTRY
from repro.storage.page import Page
from repro.storage.paged_file import PagedFile, StorageManager

_HEADER = struct.Struct("<8sQII")  # magic, version, blob length, crc32(blob)
# SIGMAN01 slots carried every run's entry rows; they fail validation here
# and load() reports them as damaged rather than as an empty run set.
_MAGIC = b"SIGMAN02"

SLOT_SUFFIXES = ("a", "b")


def manifest_slot_name(file_prefix: str, suffix: str) -> str:
    return f"{file_prefix}:manifest:{suffix}"


def write_blob(file: PagedFile, magic: bytes, version: int, blob: bytes) -> None:
    """Write ``blob`` to pages 1.. and the header naming it to page 0, last."""
    page_size = file.page_size
    blob_pages = (len(blob) + page_size - 1) // page_size
    while file.num_pages < 1 + blob_pages:
        file.append_page()
    for index in range(blob_pages):
        chunk = blob[index * page_size:(index + 1) * page_size]
        file.write_page(1 + index, Page(page_size, chunk.ljust(page_size, b"\x00")))
    header = Page(page_size)
    header.data[: _HEADER.size] = _HEADER.pack(
        magic, version, len(blob), zlib.crc32(blob)
    )
    file.write_page(0, header)


def read_blob(file: PagedFile, magic: bytes) -> Optional[Tuple[int, bytes]]:
    """``(version, blob)`` of a :func:`write_blob` file, ``None`` if invalid."""
    try:
        header = bytes(file.read_page(0).data[: _HEADER.size])
        found, version, length, crc = _HEADER.unpack(header)
        if found != magic:
            return None
        page_size = file.page_size
        blob_pages = (length + page_size - 1) // page_size
        if file.num_pages < 1 + blob_pages:
            return None
        blob = b"".join(
            bytes(file.read_page(1 + index).data) for index in range(blob_pages)
        )[:length]
        if zlib.crc32(blob) != crc:
            return None
        return version, blob
    except (CorruptPageError, StorageError, struct.error):
        return None


class RunManifest:
    """Atomic versioned record of a facility's live run set."""

    def __init__(self, storage: StorageManager, file_prefix: str):
        self._storage = storage
        self.file_prefix = file_prefix
        self.version = 0

    # ------------------------------------------------------------------
    # Install
    # ------------------------------------------------------------------
    def install(self, descriptors: List[list]) -> int:
        """Durably install a new run set; returns the new version.

        Writes the slot *not* holding the current version (alternation is
        deterministic in the version count), blob pages before the header
        page, so a torn install never invalidates the live slot.
        """
        self.version += 1
        suffix = SLOT_SUFFIXES[self.version % 2]
        blob = encode_value([self.version, descriptors])
        slot = self._open_or_create(manifest_slot_name(self.file_prefix, suffix))
        write_blob(slot, _MAGIC, self.version, blob)
        REGISTRY.counter("lsm.manifest_install_bytes").inc(len(blob))
        return self.version

    def _open_or_create(self, name: str):
        try:
            return self._storage.open_file(name)
        except StorageError:
            return self._storage.create_file(name)

    # ------------------------------------------------------------------
    # Load
    # ------------------------------------------------------------------
    def load(self) -> Tuple[List[list], bool]:
        """Read the newest valid slot; returns ``(descriptors, rolled_back)``.

        ``rolled_back`` is True when one slot exists but fails validation —
        the torn-install case — and the other (older) slot was used. A
        facility with no manifest files yet loads as an empty run set.
        """
        candidates = []
        damaged = 0
        for suffix in SLOT_SUFFIXES:
            name = manifest_slot_name(self.file_prefix, suffix)
            try:
                slot = self._storage.open_file(name)
            except StorageError:
                continue
            loaded = self._read_slot(slot)
            if loaded is None:
                damaged += 1
            else:
                candidates.append(loaded)
        if not candidates:
            if damaged:
                raise StorageError(
                    f"both manifest slots of {self.file_prefix!r} are damaged"
                )
            self.version = 0
            return [], False
        version, descriptors = max(candidates, key=lambda item: item[0])
        self.version = version
        return descriptors, damaged > 0

    def _read_slot(self, slot) -> Optional[Tuple[int, List[list]]]:
        framed = read_blob(slot, _MAGIC)
        if framed is None:
            return None
        version, blob = framed
        payload_version, descriptors = decode_value(blob)
        if payload_version != version:
            return None
        return version, descriptors

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def slot_names(self) -> List[str]:
        return [
            manifest_slot_name(self.file_prefix, suffix) for suffix in SLOT_SUFFIXES
        ]

    def storage_pages(self) -> int:
        pages = 0
        for name in self.slot_names():
            try:
                pages += self._storage.open_file(name).num_pages
            except StorageError:
                continue
        return pages

    def __repr__(self) -> str:
        return f"RunManifest(prefix={self.file_prefix!r}, version={self.version})"
