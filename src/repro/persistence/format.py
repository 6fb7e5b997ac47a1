"""On-disk snapshot container format.

A database snapshot is a single binary file::

    magic "SIGREPRO"  | u16 version | u32 catalog_len | catalog (JSON, UTF-8)
    then, for every file listed in the catalog, its pages in catalog
    order, each one as   u32 kept_len | the page's first kept_len bytes

``kept_len`` is the page's length up to its last nonzero byte: the rest
of a ``page_size`` image is zeros, which the reader restores before any
check runs, so the catalog's CRC32s are those of the full image. A BSSF
slice page holds N bits of an 8·P-bit page, so at N much below 8·P most
of a snapshot would otherwise be zeros.

Version 1 (an earlier build's snapshot) stored every page as its full
``page_size`` image with no length; it is still read, by the same loop
with the kept length fixed at ``page_size``.

The catalog is JSON for debuggability; everything that JSON cannot carry
natively (OIDs, byte strings) is encoded explicitly by the snapshot layer
before it reaches the catalog. Page payloads stay raw binary — they are
the bulk of a snapshot and already have their own internal formats.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from typing import Any, BinaryIO, Dict, List, Tuple

from repro.errors import StorageError

MAGIC = b"SIGREPRO"
FORMAT_VERSION = 2

_HEADER = struct.Struct("<8sHI")
#: A page's kept length; u32 because ``DiskStore`` bounds no page size.
_KEPT = struct.Struct("<I")
#: The version whose pages are stored whole, without a kept length.
_FULL_PAGE_VERSION = 1


@dataclass
class SnapshotHeader:
    version: int
    catalog: Dict[str, Any]


def write_snapshot(
    stream: BinaryIO,
    catalog: Dict[str, Any],
    page_payloads: List[Tuple[str, List[bytes]]],
) -> None:
    """Write header + catalog + each page up to its last nonzero byte.

    ``page_payloads`` must list files in exactly the catalog's
    ``files`` order; this is validated to prevent silent corruption.
    """
    catalog_files = [entry["name"] for entry in catalog.get("files", [])]
    payload_files = [name for name, _ in page_payloads]
    if catalog_files != payload_files:
        raise StorageError(
            "catalog/payload file order mismatch: "
            f"{catalog_files[:3]}... vs {payload_files[:3]}..."
        )
    encoded = json.dumps(catalog, separators=(",", ":"), sort_keys=True).encode("utf-8")
    stream.write(_HEADER.pack(MAGIC, FORMAT_VERSION, len(encoded)))
    stream.write(encoded)
    for entry, (_, pages) in zip(catalog["files"], page_payloads):
        if entry["pages"] != len(pages):
            raise StorageError(
                f"file {entry['name']!r}: catalog says {entry['pages']} pages, "
                f"payload has {len(pages)}"
            )
        for page in pages:
            kept = page.rstrip(b"\0")
            stream.write(_KEPT.pack(len(kept)))
            stream.write(kept)


def read_header(stream: BinaryIO) -> SnapshotHeader:
    raw = stream.read(_HEADER.size)
    if len(raw) != _HEADER.size:
        raise StorageError("truncated snapshot header")
    magic, version, catalog_len = _HEADER.unpack(raw)
    if magic != MAGIC:
        raise StorageError(f"not a snapshot file (magic {magic!r})")
    if version not in (_FULL_PAGE_VERSION, FORMAT_VERSION):
        raise StorageError(f"unsupported snapshot version {version}")
    encoded = stream.read(catalog_len)
    if len(encoded) != catalog_len:
        raise StorageError("truncated snapshot catalog")
    try:
        catalog = json.loads(encoded.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise StorageError(f"corrupt snapshot catalog: {exc}") from exc
    return SnapshotHeader(version=version, catalog=catalog)


def read_pages(stream: BinaryIO, header: SnapshotHeader) -> Dict[str, List[bytes]]:
    """Read every file's page images following the header's catalog.

    Each image is padded with zeros back to the catalog's ``page_size``.
    A kept length above ``page_size``, a truncated page section or
    trailing bytes raise :class:`~repro.errors.StorageError`.
    """
    page_size = header.catalog["page_size"]
    data = stream.read()
    offset = 0
    result: Dict[str, List[bytes]] = {}
    for entry in header.catalog.get("files", []):
        name = entry["name"]
        pages = []
        for page_no in range(entry["pages"]):
            if header.version == _FULL_PAGE_VERSION:
                kept = page_size
            else:
                if offset + _KEPT.size > len(data):
                    raise StorageError(f"truncated page data in file {name!r}")
                (kept,) = _KEPT.unpack_from(data, offset)
                offset += _KEPT.size
                if kept > page_size:
                    raise StorageError(
                        f"file {name!r} page {page_no} keeps {kept} bytes, "
                        f"more than the page size {page_size}"
                    )
            end = offset + kept
            if end > len(data):
                raise StorageError(f"truncated page data in file {name!r}")
            pages.append(data[offset:end].ljust(page_size, b"\0"))
            offset = end
        result[name] = pages
    if offset != len(data):
        raise StorageError("trailing bytes after snapshot payload")
    return result
