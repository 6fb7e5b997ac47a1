"""Slotted-page object file.

Objects are stored "straightforwardly in the object file" (paper §4
assumption: no decomposition, one page access fetches an object). Each page
is a classic slotted page:

* header (4 bytes): ``u16 slot_count``, ``u16 free_start`` — the offset of
  the first free data byte (data grows forward from the header);
* slot directory growing backward from the page end, 4 bytes per slot:
  ``u16 offset``, ``u16 length`` (offset 0xFFFF marks a deleted slot);
* record bytes in the middle.

Records must fit in one page (page_size - 8 bytes of overhead); the paper's
workloads (sets of up to a few hundred elements) satisfy this comfortably.

Drop resolution (:meth:`ObjectFile.select`) tests predicates on a decode
of the records it has seen before: one ``{address: values}`` map per file
in a :class:`~repro.storage.decode_cache.DecodeSlot`, keyed on the file's
version, filled one record at a time as candidates are first tested, and
carried across every write here with :meth:`DecodeSlot.follow`, which
forgets only the addresses the write touched.
"""

from __future__ import annotations

import struct
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.errors import ObjectStoreError
from repro.objects.serde import decode_object
from repro.storage.decode_cache import DecodeSlot
from repro.storage.page import Page
from repro.storage.paged_file import PagedFile

_HEADER_BYTES = 4
_SLOT_BYTES = 4
# Offset sentinel marking a deleted slot; legitimate offsets are < page size
# (pages are at most 64 KiB because slot fields are u16).
_DELETED_OFFSET = 0xFFFF
# A header (slot_count, free_start) or a slot entry (offset, length).
_U16_PAIR = struct.Struct("<HH")


class RecordAddress(Tuple[int, int]):
    """(page_no, slot) pair; a plain tuple subtype for readable repr."""

    def __new__(cls, page_no: int, slot: int) -> "RecordAddress":
        return super().__new__(cls, (page_no, slot))

    @property
    def page_no(self) -> int:
        return self[0]

    @property
    def slot(self) -> int:
        return self[1]

    def __repr__(self) -> str:
        return f"RecordAddress(page={self[0]}, slot={self[1]})"


def _slot_entry_offset(page_size: int, slot: int) -> int:
    return page_size - _SLOT_BYTES * (slot + 1)


def _free_bytes(page: Page) -> int:
    slot_count = page.read_u16(0)
    free_start = page.read_u16(2)
    directory_start = _slot_entry_offset(page.page_size, slot_count - 1) if slot_count else page.page_size
    return directory_start - free_start


def _frozen(values: Dict[str, Any]) -> Dict[str, Any]:
    """A decoded record as the decode cache holds it: its sets frozen.

    ``SetPredicate.matches`` freezes the set it tests; a frozenset goes
    through as it is, and no row handed to a caller shares an object
    with the cache.
    """
    return {
        name: frozenset(value) if type(value) is set else value
        for name, value in values.items()
    }


class ObjectFile:
    """Record-oriented heap file over a :class:`PagedFile`."""

    def __init__(self, paged_file: PagedFile):
        self.file = paged_file
        self.max_record_bytes = self.file.page_size - _HEADER_BYTES - _SLOT_BYTES
        self._decode = DecodeSlot(lambda: paged_file.version)

    # ------------------------------------------------------------------
    # Record operations
    # ------------------------------------------------------------------
    def insert(self, record: bytes) -> RecordAddress:
        """Append a record, returning its address.

        Appends to the last page when it has room; otherwise allocates a new
        page. This keeps the paper's sequential-fill assumption: N objects
        occupy ``ceil(N / objects_per_page)`` pages.
        """
        if len(record) > self.max_record_bytes:
            raise ObjectStoreError(
                f"record of {len(record)} bytes exceeds page capacity "
                f"({self.max_record_bytes} bytes)"
            )
        version = self.file.version
        address = self._append(record)
        self._follow(version)  # a new slot: nothing decoded to forget
        return address

    def _append(self, record: bytes) -> RecordAddress:
        if self.file.num_pages:
            page_no = self.file.num_pages - 1
            page = self.file.read_page(page_no)
            if _free_bytes(page) >= len(record) + _SLOT_BYTES:
                slot = self._place(page, record)
                self.file.write_page(page_no, page)
                return RecordAddress(page_no, slot)
        page_no, page = self.file.append_page()
        page.write_u16(2, _HEADER_BYTES)
        slot = self._place(page, record)
        self.file.write_page(page_no, page)
        return RecordAddress(page_no, slot)

    def _place(self, page: Page, record: bytes) -> int:
        slot_count = page.read_u16(0)
        free_start = page.read_u16(2) or _HEADER_BYTES
        page.write_bytes(free_start, record)
        slot = slot_count
        entry = _slot_entry_offset(page.page_size, slot)
        page.write_u16(entry, free_start)
        page.write_u16(entry + 2, len(record))
        page.write_u16(0, slot_count + 1)
        page.write_u16(2, free_start + len(record))
        return slot

    def read(self, address: RecordAddress) -> bytes:
        return next(self.read_many((address,)))

    def read_many(self, addresses: Iterable[RecordAddress]) -> Iterator[bytes]:
        """The records at ``addresses``, in order, one logical read each.

        Consecutive addresses on one page form a run: the first does the
        real ``read_page`` (checksum, retries and injected faults included)
        and the rest are cut from that verified image, charged through
        :meth:`PagedFile.charge_read` — the same logical, physical and pool
        accounting without fetching the page again. A write to the file
        between two records (the consumer runs between them) ends the run.
        A bad address raises at its position, after everything before it
        has been yielded and charged.
        """
        file = self.file
        run = None  # (page_no, file version) of the image in ``page``
        for address in addresses:
            page_no = address[0]
            if run != (page_no, file.version):
                page = file.read_page(page_no)
                run = (page_no, file.version)
            else:
                file.charge_read(page_no)
            yield self._record(page, address)

    def delete(self, address: RecordAddress) -> None:
        """Mark a record deleted (offset sentinel). Space is not reclaimed —
        matching the paper's delete-flag update model."""
        page = self.file.read_page(address.page_no)
        offset, _ = self._slot(page, address)
        if offset == _DELETED_OFFSET:
            raise ObjectStoreError(f"record at {address} already deleted")
        entry = _slot_entry_offset(page.page_size, address.slot)
        page.write_u16(entry, _DELETED_OFFSET)
        version = self.file.version
        self.file.write_page(address.page_no, page)
        self._follow(version, address)

    def update(self, address: RecordAddress, record: bytes) -> RecordAddress:
        """Rewrite a record. In place when the new image fits the old
        footprint, otherwise delete + reinsert (address changes)."""
        page = self.file.read_page(address.page_no)
        offset, length = self._slot(page, address)
        if offset == _DELETED_OFFSET:
            raise ObjectStoreError(f"record at {address} was deleted")
        if len(record) <= length:
            page.write_bytes(offset, record)
            entry = _slot_entry_offset(page.page_size, address.slot)
            page.write_u16(entry + 2, len(record))
            version = self.file.version
            self.file.write_page(address.page_no, page)
            self._follow(version, address)
            return address
        self.delete(address)
        return self.insert(record)

    def select(
        self, addresses: Sequence[RecordAddress], predicates: Sequence[Any]
    ) -> List[Tuple[int, Dict[str, Any]]]:
        """Drop resolution over ``addresses``: ``(position, values)`` of
        each record that satisfies every predicate, in order.

        Charged exactly as :meth:`read_many` over the same addresses. A run
        of consecutive addresses on one page does one real ``read_page``
        (checksum, retries and injected faults included); the rest of the
        run is charged in one :meth:`PagedFile.charge_rereads` call when
        the run ends, or before an error leaves it. Predicates
        (``matches(values)``) are tested on the cached decode of a record,
        decoded from the run's page the first time it is tested; only a
        record that satisfies them all is decoded again, fresh from the
        page, into the values returned. A bad address raises at its
        position with everything up to it charged.
        """
        file = self.file
        records = self._records()
        survivors: List[Tuple[int, Dict[str, Any]]] = []
        run_page = None
        pending = 0  # reads of ``run_page`` made but not yet charged
        try:
            for position, address in enumerate(addresses):
                if address[0] != run_page:
                    if pending:
                        file.charge_rereads(run_page, pending)
                        pending = 0
                    page = file.read_page(address[0])
                    run_page = address[0]
                else:
                    pending += 1
                values = records.get(address)
                if values is None:
                    values = _frozen(decode_object(self._record(page, address)))
                    records[address] = values
                for predicate in predicates:
                    if not predicate.matches(values):
                        break
                else:
                    survivors.append(
                        (position, decode_object(self._record(page, address)))
                    )
        finally:
            if pending:
                file.charge_rereads(run_page, pending)
        return survivors

    def _records(self) -> Dict[RecordAddress, Dict[str, Any]]:
        """The record decode held at the file's current version."""
        return self._decode.get(dict)

    def _follow(self, old_version: int, *touched: RecordAddress) -> None:
        """Carry the record decode across a write that moved the file from
        ``old_version``, forgetting the records at ``touched``."""

        def forget(records: dict) -> dict:
            for address in touched:
                records.pop(address, None)
            return records

        self._decode.follow(old_version, forget)

    def verify_decodes(self) -> None:
        """Check every cached record against a fresh decode of its slot.

        Pages are read with :meth:`PagedFile.peek_page`, so nothing is
        charged. On the first record that differs — or whose slot is
        deleted or gone — the payload is dropped, so the next reader
        decodes afresh, and :class:`IndexCorruptionError` names the file,
        page and slot. A payload held at a version the file has left is
        never served again and is not checked.
        """
        self._decode.verify(self._diff)

    def _diff(self, records: Dict[RecordAddress, Dict[str, Any]]) -> Optional[str]:
        page_no = None
        for address, cached in sorted(records.items()):
            if address[0] != page_no:
                page_no = address[0]
                page = self.file.peek_page(page_no)
            try:
                fresh = _frozen(decode_object(self._record(page, address)))
            except ObjectStoreError:
                fresh = None
            if fresh != cached:
                return (
                    f"object file {self.file.name!r}: the decode cached for page "
                    f"{address[0]}, slot {address[1]} differs from the slot"
                )
        return None

    def _record(self, page: Page, address: RecordAddress) -> bytes:
        """The live record at ``address`` on its fetched ``page``."""
        offset, length = self._slot(page, address)
        if offset == _DELETED_OFFSET:
            raise ObjectStoreError(f"record at {address} was deleted")
        return page.read_bytes(offset, length)

    def _slot(self, page: Page, address: RecordAddress) -> Tuple[int, int]:
        page_no, slot = address
        slot_count = _U16_PAIR.unpack_from(page.data, 0)[0]
        if not 0 <= slot < slot_count:
            raise ObjectStoreError(
                f"slot {slot} out of range on page {page_no} "
                f"({slot_count} slots)"
            )
        return _U16_PAIR.unpack_from(
            page.data, _slot_entry_offset(page.page_size, slot)
        )

    # ------------------------------------------------------------------
    # Scans & introspection
    # ------------------------------------------------------------------
    def scan(self) -> Iterator[Tuple[RecordAddress, bytes]]:
        """All live records in storage order; one logical read per page."""
        for page_no, page in self.file.scan_pages():
            slot_count = page.read_u16(0)
            for slot in range(slot_count):
                entry = _slot_entry_offset(page.page_size, slot)
                offset = page.read_u16(entry)
                length = page.read_u16(entry + 2)
                if offset != _DELETED_OFFSET:
                    yield RecordAddress(page_no, slot), page.read_bytes(offset, length)

    @property
    def num_pages(self) -> int:
        return self.file.num_pages

    def live_record_count(self) -> int:
        return sum(1 for _ in self.scan())
