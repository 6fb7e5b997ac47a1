"""Exception hierarchy for the repro package.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch one base class. Subsystems raise the most specific subclass available.

Every class carries a stable machine-readable ``code`` — the identifier the
wire protocol (:mod:`repro.wire`) ships across the network so a
:class:`~repro.client.RemoteClient` can re-raise the *same* exception class
the server raised. Codes are registered automatically at class-definition
time; :func:`error_class_for_code` resolves a code back to its class, and a
code minted by a newer server that this client does not know decodes to
:class:`RemoteError` with the original code preserved.
"""

from __future__ import annotations

from typing import Dict, Optional, Type

#: code -> exception class; populated by ``ReproError.__init_subclass__``.
_CODE_REGISTRY: Dict[str, Type["ReproError"]] = {}


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""

    #: stable machine-readable identifier, shipped over the wire protocol
    code: str = "internal"

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        # Only classes that declare their own code register it; the first
        # declarer wins so aliases cannot silently repoint a code.
        declared = cls.__dict__.get("code")
        if declared is not None and declared not in _CODE_REGISTRY:
            _CODE_REGISTRY[declared] = cls


_CODE_REGISTRY[ReproError.code] = ReproError


def error_class_for_code(code: str) -> Optional[Type[ReproError]]:
    """The exception class registered for ``code``, or ``None`` if unknown."""
    return _CODE_REGISTRY.get(code)


def error_code(exc: BaseException) -> str:
    """The stable code for any exception (non-repro errors are "internal")."""
    return getattr(exc, "code", ReproError.code)


class ConfigurationError(ReproError):
    """A parameter or parameter combination is invalid (e.g. m > F)."""

    code = "bad-config"


class StorageError(ReproError):
    """Base class for storage-layer failures."""

    code = "storage"


class PageError(StorageError):
    """A page-level operation failed (bad page id, overflow, corruption)."""

    code = "page"


class CorruptPageError(PageError):
    """A page image failed its CRC32 checksum on a physical read."""

    code = "corrupt-page"


class TransientIOError(StorageError):
    """A (simulated) transient device failure; retrying may succeed."""

    code = "transient-io"


class SimulatedCrashError(ReproError):
    """A fault-injection crash point fired.

    Deliberately *not* a :class:`StorageError`: recovery paths that degrade
    gracefully on storage failures must never swallow a simulated crash —
    a crash means the process is gone, and the test harness catches it at
    the top level to exercise restart/recovery behaviour.
    """

    code = "simulated-crash"


class BufferPoolError(StorageError):
    """The buffer pool could not satisfy a request (e.g. all frames pinned)."""

    code = "buffer-pool"


class WalError(StorageError):
    """Base class for write-ahead-log failures."""

    code = "wal"


class WalCorruptError(WalError):
    """An interior WAL record failed its CRC32 frame check.

    A *final* half-written record is normal after a crash and is silently
    truncated during recovery; corruption anywhere before the tail means
    the log cannot be trusted past that point. ``lsn`` names the first
    unreadable record.
    """

    code = "wal-corrupt"

    def __init__(self, message: str, lsn: int):
        super().__init__(message)
        self.lsn = lsn


class CheckpointMismatchError(WalError):
    """A WAL directory's log does not cover its checkpoint's LSN.

    Recovery needs ``base_lsn <= checkpoint_lsn <= end_lsn`` (no
    checkpoint counts as LSN 0); otherwise records between the two are
    lost, as when a replica's checkpoint install is cut short between
    restarting its log and renaming the checkpoint into place, and the
    directory is refused rather than reopened silently wrong.
    """

    code = "wal-checkpoint-mismatch"

    def __init__(
        self,
        message: str,
        checkpoint_lsn: int = -1,
        base_lsn: int = -1,
        end_lsn: int = -1,
    ):
        super().__init__(message)
        self.checkpoint_lsn = checkpoint_lsn
        self.base_lsn = base_lsn
        self.end_lsn = end_lsn


class ConcurrencyError(ReproError):
    """Base class for concurrency-layer failures (latches, admission)."""

    code = "concurrency"


class LatchError(ConcurrencyError):
    """A latch was misused (release without hold, conflicting upgrade)."""

    code = "latch"


class AdmissionError(ConcurrencyError):
    """The query service shed a request: its admission queue stayed full
    through every retry the policy allowed."""

    code = "admission"


class TenantQuotaError(AdmissionError):
    """A tenant exceeded its per-tenant in-flight admission quota.

    A quota breach is the tenant's own saturation, not the server's — it is
    shed at the network edge before consuming a service admission slot, so
    one noisy tenant cannot starve the others.
    """

    code = "tenant-quota"


class ObjectStoreError(ReproError):
    """Base class for object-store failures."""

    code = "object-store"


class UnknownOIDError(ObjectStoreError):
    """An OID does not identify a live object."""

    code = "unknown-oid"


class SchemaError(ObjectStoreError):
    """An object does not conform to its class schema."""

    code = "schema"


class AccessFacilityError(ReproError):
    """Base class for access-facility (SSF / BSSF / NIX) failures."""

    code = "access-facility"


class IndexCorruptionError(AccessFacilityError):
    """An index invariant was violated (detected during verification)."""

    code = "index-corruption"


class QueryError(ReproError):
    """Base class for query-layer failures."""

    code = "query"


class ParseError(QueryError):
    """The SQL-like query text could not be parsed."""

    code = "parse"


class PlanningError(QueryError):
    """No executable plan could be produced for a query."""

    code = "planning"


class DeadlineExceededError(QueryError):
    """A request's deadline budget expired before it could execute.

    Carried end-to-end: clients ship the remaining budget as
    ``ExecutionOptions.deadline_ms``; a server or service that receives an
    already-expired request rejects it up front (no worker is burned on an
    answer nobody is waiting for), and a
    :class:`~repro.sharding.ShardRouter` charges every sub-request against
    the same budget.
    """

    code = "deadline-exceeded"


class ShardUnavailableError(ReproError):
    """A strict-mode scatter-gather request lost one or more shards.

    Raised by :class:`~repro.sharding.ShardRouter` when
    ``partial_results="strict"`` and any shard stayed unreachable through
    the retry budget — a complete answer cannot be produced.
    ``missing_shards`` names the shards (by index/URL) that never answered;
    in ``"degraded"`` mode the same information rides on the merged
    result's ``missing_shards`` field instead of raising.
    """

    code = "shard-unavailable"

    def __init__(self, message: str, missing_shards=None):
        super().__init__(message)
        self.missing_shards = list(missing_shards or [])


class ProtocolError(ReproError):
    """A wire-protocol frame was malformed, oversized, or version-skewed."""

    code = "protocol"


class FrameTooLargeError(ProtocolError):
    """A frame exceeds the negotiated ``max_frame_bytes`` ceiling.

    Raised on the sending side *before* any bytes hit the socket, so the
    connection stays usable: a server whose result overflows the limit
    ships this as a structured error frame instead of an opaque disconnect,
    and the client re-raises it under the same class.
    """

    code = "frame-too-large"


class AuthenticationError(ReproError):
    """The server rejected the connection's auth token."""

    code = "auth"


class ConnectionLostError(ReproError):
    """The transport to a remote server failed (dial, send, or receive).

    Raised client-side after every reconnect attempt the retry policy
    allows has failed; distinct from :class:`ProtocolError` (the peer spoke,
    but spoke garbage) and from server-raised errors (which arrive as
    well-formed error frames and re-raise as their own classes).
    """

    code = "connection-lost"


class ReplicationError(ReproError):
    """Base class for primary→replica log-shipping failures."""

    code = "replication"


class StaleSubscriberError(ReplicationError):
    """A subscriber's watermark fell behind the primary's log.

    A checkpoint truncated records the replica never received; tailing the
    log cannot close the gap. ``base_lsn`` names the oldest LSN the primary
    still holds — the replica must install the primary's checkpoint file
    (a ``SYNC``) and re-subscribe from that checkpoint's LSN.
    """

    code = "stale-subscriber"

    def __init__(self, message: str, base_lsn: int = -1):
        super().__init__(message)
        self.base_lsn = base_lsn


class ReadOnlyReplicaError(ReplicationError):
    """A mutating operation reached a read-only replica.

    Replicas apply shipped WAL records and serve queries; direct writes
    would diverge them from the primary. Write to the primary, or
    :meth:`~repro.replication.ReplicaDatabase.promote` the replica first.
    """

    code = "read-only-replica"


class RemoteError(ReproError):
    """A server-side error whose class this client does not know.

    Round-trips the original code and message so callers can still branch
    on ``remote_code`` even across a protocol-version skew.
    """

    code = "remote"

    def __init__(self, message: str, remote_code: Optional[str] = None):
        super().__init__(message)
        self.remote_code = remote_code or RemoteError.code
