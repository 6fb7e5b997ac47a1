"""The network wire protocol: length-prefixed, JSON-framed, versioned.

One frame is an 8-byte binary header followed by a JSON payload::

    offset  size  field
    0       2     magic  b"SF"
    2       1     protocol version (currently 1)
    3       1     frame kind (request or response, see the constants)
    4       4     payload length, big-endian unsigned
    8       n     payload, UTF-8 JSON

Requests carry query text and a serialized
:class:`~repro.query.options.ExecutionOptions`; responses carry rows, the
plan summary, the per-query :class:`~repro.storage.stats.IOSnapshot` delta
and timing — everything :class:`~repro.query.executor.QueryResult` holds
except the span tree (a live object graph that never crosses the wire).
Errors travel as structured ``{code, message, details}`` payloads built
from the stable codes in :mod:`repro.errors`, so the client re-raises the
same exception class the server raised.

Compatibility rules: payloads are JSON objects and every decoder ignores
unknown keys, so a newer peer may add fields freely; the version byte only
has to move for incompatible *frame* changes. A frame longer than the
receiver's ``max_frame_bytes`` is rejected before its payload is read.
"""

from __future__ import annotations

import json
import socket
import struct
from typing import Any, Dict, Optional, Tuple

from repro.errors import (
    ConnectionLostError,
    FrameTooLargeError,
    ProtocolError,
    RemoteError,
    ReproError,
    ShardUnavailableError,
    StaleSubscriberError,
    WalCorruptError,
    error_class_for_code,
    error_code,
)
from repro.objects.oid import OID
from repro.query.executor import QueryResult, QueryStatistics
from repro.storage.stats import FileIOCounts, IOSnapshot

__all__ = [
    "PROTOCOL_VERSION",
    "DEFAULT_MAX_FRAME_BYTES",
    "DEFAULT_PORT",
    "HELLO",
    "QUERY",
    "BATCH",
    "PING",
    "GOODBYE",
    "WAL_SUBSCRIBE",
    "WAL_ACK",
    "SYNC",
    "OK",
    "RESULT",
    "RESULTS",
    "ERROR",
    "PONG",
    "BYE",
    "WAL_RECORDS",
    "HEARTBEAT",
    "SYNC_PAGES",
    "read_frame",
    "write_frame",
    "encode_value",
    "decode_value",
    "encode_result",
    "decode_result",
    "encode_error",
    "decode_error",
]

PROTOCOL_VERSION = 1

#: 16 MiB — generous for result sets, small enough to bound a hostile peer.
DEFAULT_MAX_FRAME_BYTES = 16 * 1024 * 1024

#: default TCP port for ``sigfile-repro serve`` ("SF" -> 0x53 0x46 -> 7731
#: is just a memorable free port, nothing magic)
DEFAULT_PORT = 7731

_MAGIC = b"SF"
_HEADER = struct.Struct(">2sBBI")

# Request frame kinds (client -> server).
HELLO = 1  # handshake: protocol version + optional auth token
QUERY = 2  # one query text + options
BATCH = 3  # many query texts + shared options
PING = 4  # liveness / latency probe
GOODBYE = 5  # orderly close
WAL_SUBSCRIBE = 6  # replica: stream WAL records from my watermark LSN
WAL_ACK = 7  # replica: records through this LSN are durably applied
SYNC = 8  # replica: send me your checkpoint file (stale or diverged)

# Response frame kinds (server -> client).
OK = 16  # handshake accepted
RESULT = 17  # one QueryResult
RESULTS = 18  # ordered list of QueryResults
ERROR = 19  # structured error payload
PONG = 20
BYE = 21  # server is closing this connection (drain or GOODBYE ack)
WAL_RECORDS = 22  # a batch of [lsn, base64 payload] log records
HEARTBEAT = 23  # idle stream liveness; carries the primary's end LSN
SYNC_PAGES = 24  # one base64 slice of the checkpoint file, budgeted into
#                  a frame sequence ("offset"; "more" marks continuations)

_KNOWN_KINDS = frozenset(
    (
        HELLO, QUERY, BATCH, PING, GOODBYE, WAL_SUBSCRIBE, WAL_ACK, SYNC,
        OK, RESULT, RESULTS, ERROR, PONG, BYE,
        WAL_RECORDS, HEARTBEAT, SYNC_PAGES,
    )
)


# ----------------------------------------------------------------------
# Framing
# ----------------------------------------------------------------------
def _recv_exact(sock: socket.socket, size: int) -> Optional[bytes]:
    """Read exactly ``size`` bytes; ``None`` on clean EOF at a boundary."""
    chunks = []
    remaining = size
    while remaining:
        chunk = sock.recv(min(remaining, 65536))
        if not chunk:
            if remaining == size:
                return None  # clean close between frames
            raise ConnectionLostError(
                f"peer closed mid-frame ({size - remaining}/{size} bytes read)"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def write_frame(
    sock: socket.socket,
    kind: int,
    payload: Dict[str, Any],
    max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
) -> None:
    """Serialize and send one frame."""
    body = json.dumps(payload, separators=(",", ":"), sort_keys=True).encode(
        "utf-8"
    )
    if len(body) > max_frame_bytes:
        raise FrameTooLargeError(
            f"outgoing frame of {len(body)} bytes exceeds the "
            f"{max_frame_bytes}-byte frame limit"
        )
    sock.sendall(_HEADER.pack(_MAGIC, PROTOCOL_VERSION, kind, len(body)) + body)


def read_frame(
    sock: socket.socket,
    max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
) -> Optional[Tuple[int, Dict[str, Any]]]:
    """Read one frame; ``None`` when the peer closed between frames.

    Raises :class:`~repro.errors.ProtocolError` on bad magic, version skew,
    an unknown frame kind, an oversized declared length, or a payload that
    is not a JSON object, and :class:`~repro.errors.ConnectionLostError`
    when the peer vanishes mid-frame.
    """
    header = _recv_exact(sock, _HEADER.size)
    if header is None:
        return None
    magic, version, kind, length = _HEADER.unpack(header)
    if magic != _MAGIC:
        raise ProtocolError(f"bad frame magic {magic!r} (expected {_MAGIC!r})")
    if version != PROTOCOL_VERSION:
        raise ProtocolError(
            f"unsupported protocol version {version} "
            f"(this peer speaks {PROTOCOL_VERSION})"
        )
    if kind not in _KNOWN_KINDS:
        raise ProtocolError(f"unknown frame kind {kind}")
    if length > max_frame_bytes:
        raise FrameTooLargeError(
            f"incoming frame declares {length} bytes, over the "
            f"{max_frame_bytes}-byte frame limit"
        )
    body = _recv_exact(sock, length) if length else b""
    if body is None:
        raise ConnectionLostError("peer closed after frame header")
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"frame payload is not valid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise ProtocolError(
            f"frame payload must be a JSON object, got {type(payload).__name__}"
        )
    return kind, payload


# ----------------------------------------------------------------------
# Value codec
# ----------------------------------------------------------------------
# Object attribute values are JSON plus sets and OIDs. Non-JSON types ride
# in single-key tag objects; a real dict that could be mistaken for a tag
# (any key starting with "$") is escaped as a "$dict" pair list.
def encode_value(value: Any) -> Any:
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, OID):
        return {"$oid": value.to_int()}
    if isinstance(value, (set, frozenset)):
        return {"$set": [encode_value(v) for v in sorted(value, key=repr)]}
    if isinstance(value, tuple):
        return {"$tuple": [encode_value(v) for v in value]}
    if isinstance(value, list):
        return [encode_value(v) for v in value]
    if isinstance(value, dict):
        if any(not isinstance(k, str) or k.startswith("$") for k in value):
            return {
                "$dict": [
                    [encode_value(k), encode_value(v)] for k, v in value.items()
                ]
            }
        return {k: encode_value(v) for k, v in value.items()}
    raise ProtocolError(
        f"cannot serialize {type(value).__name__!r} value over the wire"
    )


def decode_value(value: Any) -> Any:
    if isinstance(value, list):
        return [decode_value(v) for v in value]
    if isinstance(value, dict):
        if len(value) == 1:
            ((tag, inner),) = value.items()
            if tag == "$oid":
                return OID.from_int(inner)
            if tag == "$set":
                return {decode_value(v) for v in inner}
            if tag == "$tuple":
                return tuple(decode_value(v) for v in inner)
            if tag == "$dict":
                return {decode_value(k): decode_value(v) for k, v in inner}
        return {k: decode_value(v) for k, v in value.items()}
    return value


# ----------------------------------------------------------------------
# Result codec
# ----------------------------------------------------------------------
def _encode_io(snapshot: Optional[IOSnapshot]) -> Optional[Dict[str, Any]]:
    if snapshot is None:
        return None
    return {
        name: [
            counts.logical_reads,
            counts.logical_writes,
            counts.physical_reads,
            counts.physical_writes,
        ]
        for name, counts in snapshot.files()
    }


def _decode_io(payload: Optional[Dict[str, Any]]) -> Optional[IOSnapshot]:
    if payload is None:
        return None
    return IOSnapshot(
        {
            name: FileIOCounts(*counts[:4])
            for name, counts in payload.items()
        }
    )


def encode_result(result: QueryResult) -> Dict[str, Any]:
    """Serialize one :class:`QueryResult` (the span tree stays behind)."""
    stats = result.statistics
    payload: Dict[str, Any] = {}
    if result.partial:
        # Only degraded scatter-gather answers carry these; omitting them
        # otherwise keeps complete results byte-stable across versions.
        payload["partial"] = True
        payload["missing_shards"] = list(result.missing_shards)
    return {
        **payload,
        "rows": [
            [oid.to_int(), encode_value(values)] for oid, values in result.rows
        ],
        "statistics": {
            "plan": stats.plan,
            "candidates": stats.candidates,
            "false_drops": stats.false_drops,
            "results": stats.results,
            "elapsed_seconds": stats.elapsed_seconds,
            "detail": encode_value(stats.detail),
            "io": _encode_io(stats.io),
        },
    }


def decode_result(payload: Dict[str, Any]) -> QueryResult:
    stats_payload = payload.get("statistics") or {}
    statistics = QueryStatistics(
        plan=stats_payload.get("plan", ""),
        candidates=stats_payload.get("candidates", 0),
        false_drops=stats_payload.get("false_drops", 0),
        results=stats_payload.get("results", 0),
        io=_decode_io(stats_payload.get("io")),
        elapsed_seconds=stats_payload.get("elapsed_seconds", 0.0),
        detail=decode_value(stats_payload.get("detail") or {}),
    )
    rows = [
        (OID.from_int(oid_int), decode_value(values))
        for oid_int, values in payload.get("rows", [])
    ]
    return QueryResult(
        rows=rows,
        statistics=statistics,
        trace=None,
        partial=bool(payload.get("partial", False)),
        missing_shards=[str(s) for s in payload.get("missing_shards", [])],
    )


# ----------------------------------------------------------------------
# Error codec
# ----------------------------------------------------------------------
def encode_error(exc: BaseException) -> Dict[str, Any]:
    """Structured error payload: stable code, message, typed details."""
    details: Dict[str, Any] = {"class": type(exc).__name__}
    if isinstance(exc, WalCorruptError):
        details["lsn"] = exc.lsn
    if isinstance(exc, StaleSubscriberError):
        details["base_lsn"] = exc.base_lsn
    if isinstance(exc, ShardUnavailableError):
        details["missing_shards"] = list(exc.missing_shards)
    if isinstance(exc, RemoteError):
        # Re-relaying (e.g. through a proxy): keep the original code.
        return {
            "code": exc.remote_code,
            "message": str(exc),
            "details": details,
        }
    return {"code": error_code(exc), "message": str(exc), "details": details}


def decode_error(payload: Dict[str, Any]) -> ReproError:
    """Rebuild the server's exception; unknown codes become RemoteError."""
    code = payload.get("code", "internal")
    message = payload.get("message", "remote error")
    details = payload.get("details") or {}
    cls = error_class_for_code(code)
    if cls is None:
        return RemoteError(message, remote_code=code)
    if cls is WalCorruptError:
        return WalCorruptError(message, lsn=details.get("lsn", -1))
    if cls is StaleSubscriberError:
        return StaleSubscriberError(message, base_lsn=details.get("base_lsn", -1))
    if cls is ShardUnavailableError:
        return ShardUnavailableError(
            message, missing_shards=details.get("missing_shards")
        )
    try:
        return cls(message)
    except TypeError:
        # A class whose constructor grew extra required arguments on the
        # server side: degrade to RemoteError rather than failing to raise.
        return RemoteError(message, remote_code=code)
