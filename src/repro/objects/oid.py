"""Object identifiers.

The paper assumes 8-byte OIDs with direct object access (Table 2's
``oid = 8``). An :class:`OID` packs a 16-bit class id and a 48-bit serial
number into one 64-bit word, so it round-trips through the paper's 8-byte
on-disk representation exactly.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from repro.errors import ObjectStoreError

OID_BYTES = 8
SERIAL_BITS = 48  # a packed OID word is ``class_id << SERIAL_BITS | serial``
_MAX_CLASS_ID = 0xFFFF
_MAX_SERIAL = (1 << SERIAL_BITS) - 1


@dataclass(frozen=True, order=True)
class OID:
    """A 64-bit object identifier: (class_id, serial)."""

    class_id: int
    serial: int

    def __post_init__(self) -> None:
        if not 0 <= self.class_id <= _MAX_CLASS_ID:
            raise ObjectStoreError(f"class_id out of range: {self.class_id}")
        if not 0 <= self.serial <= _MAX_SERIAL:
            raise ObjectStoreError(f"serial out of range: {self.serial}")

    def to_int(self) -> int:
        return (self.class_id << SERIAL_BITS) | self.serial

    @classmethod
    def from_int(cls, value: int) -> "OID":
        if not 0 <= value <= 0xFFFFFFFFFFFFFFFF:
            raise ObjectStoreError(f"OID integer out of range: {value}")
        return cls(class_id=value >> SERIAL_BITS, serial=value & _MAX_SERIAL)

    def to_bytes(self) -> bytes:
        return struct.pack("<Q", self.to_int())

    @classmethod
    def from_bytes(cls, data: bytes) -> "OID":
        if len(data) != OID_BYTES:
            raise ObjectStoreError(f"OID must be {OID_BYTES} bytes, got {len(data)}")
        return cls.from_int(struct.unpack("<Q", data)[0])

    def __repr__(self) -> str:
        return f"OID({self.class_id}:{self.serial})"


class OIDAllocator:
    """Monotonic per-class serial allocation."""

    def __init__(self) -> None:
        self._next_serial: dict = {}

    def allocate(self, class_id: int) -> OID:
        serial = self._next_serial.get(class_id, 0)
        if serial > _MAX_SERIAL:
            raise ObjectStoreError(f"serial space exhausted for class {class_id}")
        self._next_serial[class_id] = serial + 1
        return OID(class_id=class_id, serial=serial)

    def peek(self, class_id: int) -> OID:
        """The OID the next :meth:`allocate` call will return.

        Write-ahead logging needs the OID *before* the insert mutates any
        state, so the redo record can name it.
        """
        return OID(class_id=class_id, serial=self._next_serial.get(class_id, 0))

    def reserve(self, class_id: int, serial: int) -> None:
        """Mark ``serial`` as used; later allocations start past it.

        Explicit-OID inserts (WAL replay, shard loading) place objects
        under serials that did not come from :meth:`allocate`; reserving
        keeps the monotonic guarantee — a fresh allocation can never
        collide with a reserved serial.
        """
        if not 0 <= serial <= _MAX_SERIAL:
            raise ObjectStoreError(f"serial out of range: {serial}")
        if serial >= self._next_serial.get(class_id, 0):
            self._next_serial[class_id] = serial + 1

    def high_water_mark(self, class_id: int) -> int:
        """Number of OIDs ever allocated for the class."""
        return self._next_serial.get(class_id, 0)
