"""Compact tagged binary serialization for object attribute values.

Objects are dictionaries mapping attribute names to values; values may be
primitives (str / int / float / bool / None), OIDs, or homogeneous-ish
containers (list / tuple / set / frozenset) of further values. The format is
a one-byte tag followed by a length- or fixed-width payload, little-endian
throughout. Sets are serialized in sorted-key order so equal sets always
produce identical bytes (useful for testing and deduplication).

This is deliberately a small purpose-built format rather than pickle/json:
it is deterministic, versioned, byte-budgetable (the object store needs to
know sizes against the 4 KiB page), and cannot execute code on load.
"""

from __future__ import annotations

import struct
from typing import Any, Dict, Tuple

from repro.errors import ObjectStoreError
from repro.objects.oid import OID

FORMAT_VERSION = 1

_TAG_NONE = 0x00
_TAG_FALSE = 0x01
_TAG_TRUE = 0x02
_TAG_INT = 0x03
_TAG_FLOAT = 0x04
_TAG_STR = 0x05
_TAG_BYTES = 0x06
_TAG_OID = 0x07
_TAG_LIST = 0x08
_TAG_TUPLE = 0x09
_TAG_SET = 0x0A
_TAG_FROZENSET = 0x0B

_INT_TAG = bytes([_TAG_INT])


def encode_value(value: Any) -> bytes:
    """Encode one value to tagged bytes."""
    if value is None:
        return bytes([_TAG_NONE])
    if value is False:
        return bytes([_TAG_FALSE])
    if value is True:
        return bytes([_TAG_TRUE])
    if isinstance(value, OID):
        return bytes([_TAG_OID]) + value.to_bytes()
    if isinstance(value, int):
        if not -(2**63) <= value < 2**63:
            raise ObjectStoreError(f"int out of 64-bit range: {value}")
        return bytes([_TAG_INT]) + struct.pack("<q", value)
    if isinstance(value, float):
        return bytes([_TAG_FLOAT]) + struct.pack("<d", value)
    if isinstance(value, str):
        payload = value.encode("utf-8")
        return bytes([_TAG_STR]) + struct.pack("<I", len(payload)) + payload
    if isinstance(value, bytes):
        return bytes([_TAG_BYTES]) + struct.pack("<I", len(value)) + value
    if isinstance(value, (list, tuple, set, frozenset)):
        tag = {
            list: _TAG_LIST,
            tuple: _TAG_TUPLE,
            set: _TAG_SET,
            frozenset: _TAG_FROZENSET,
        }[type(value)]
        encoded = [encode_value(item) for item in value]
        if isinstance(value, (set, frozenset)):
            # Total order over heterogeneous members: type name, then bytes.
            # Each member is encoded once; the sorted pairs carry the bytes.
            pairs = sorted(zip((type(item).__name__ for item in value), encoded))
            encoded = [item_bytes for _, item_bytes in pairs]
        body = b"".join(encoded)
        return bytes([tag]) + struct.pack("<I", len(encoded)) + body
    raise ObjectStoreError(
        f"cannot serialize value of type {type(value).__name__}: {value!r}"
    )


def _decode_value(data: bytes, offset: int) -> Tuple[Any, int]:
    if offset >= len(data):
        raise ObjectStoreError("truncated value: missing tag byte")
    tag = data[offset]
    offset += 1
    if tag == _TAG_NONE:
        return None, offset
    if tag == _TAG_FALSE:
        return False, offset
    if tag == _TAG_TRUE:
        return True, offset
    if tag == _TAG_OID:
        end = offset + 8
        _check_span(data, offset, 8)
        return OID.from_bytes(data[offset:end]), end
    if tag == _TAG_INT:
        _check_span(data, offset, 8)
        return struct.unpack_from("<q", data, offset)[0], offset + 8
    if tag == _TAG_FLOAT:
        _check_span(data, offset, 8)
        return struct.unpack_from("<d", data, offset)[0], offset + 8
    if tag in (_TAG_STR, _TAG_BYTES):
        _check_span(data, offset, 4)
        length = struct.unpack_from("<I", data, offset)[0]
        offset += 4
        _check_span(data, offset, length)
        payload = data[offset : offset + length]
        offset += length
        if tag == _TAG_STR:
            return payload.decode("utf-8"), offset
        return bytes(payload), offset
    if tag in (_TAG_LIST, _TAG_TUPLE, _TAG_SET, _TAG_FROZENSET):
        _check_span(data, offset, 4)
        count = struct.unpack_from("<I", data, offset)[0]
        offset += 4
        end = offset + 9 * count
        if count and end <= len(data) and data[offset:end:9] == _INT_TAG * count:
            # Every member is a tagged int: one strided tag comparison and
            # one unpack ("x" skips each tag byte) replace the loop below.
            items = list(struct.unpack_from("<" + "xq" * count, data, offset))
            offset = end
        else:
            items = []
            for _ in range(count):
                item, offset = _decode_value(data, offset)
                items.append(item)
        if tag == _TAG_LIST:
            return items, offset
        if tag == _TAG_TUPLE:
            return tuple(items), offset
        if tag == _TAG_SET:
            return set(items), offset
        return frozenset(items), offset
    raise ObjectStoreError(f"unknown serialization tag: 0x{tag:02x}")


def _check_span(data: bytes, offset: int, length: int) -> None:
    if offset + length > len(data):
        raise ObjectStoreError("truncated value payload")


def decode_value(data: bytes) -> Any:
    """Decode one value; raises if trailing bytes remain."""
    value, offset = _decode_value(data, 0)
    if offset != len(data):
        raise ObjectStoreError(f"{len(data) - offset} trailing bytes after value")
    return value


def encode_object(attributes: Dict[str, Any]) -> bytes:
    """Encode a full object (attribute dict) with a version header."""
    parts = [struct.pack("<BH", FORMAT_VERSION, len(attributes))]
    for name in sorted(attributes):
        name_bytes = name.encode("utf-8")
        if len(name_bytes) > 0xFF:
            raise ObjectStoreError(f"attribute name too long: {name!r}")
        parts.append(struct.pack("<B", len(name_bytes)))
        parts.append(name_bytes)
        parts.append(encode_value(attributes[name]))
    return b"".join(parts)


def decode_object(data: bytes) -> Dict[str, Any]:
    """Inverse of :func:`encode_object`."""
    if len(data) < 3:
        raise ObjectStoreError("truncated object header")
    version, count = struct.unpack_from("<BH", data, 0)
    if version != FORMAT_VERSION:
        raise ObjectStoreError(f"unsupported object format version: {version}")
    offset = 3
    attributes: Dict[str, Any] = {}
    for _ in range(count):
        _check_span(data, offset, 1)
        name_len = data[offset]
        offset += 1
        _check_span(data, offset, name_len)
        name = data[offset : offset + name_len].decode("utf-8")
        offset += name_len
        value, offset = _decode_value(data, offset)
        attributes[name] = value
    if offset != len(data):
        raise ObjectStoreError(f"{len(data) - offset} trailing bytes after object")
    return attributes
