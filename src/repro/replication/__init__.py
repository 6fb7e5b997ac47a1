"""Replicated serving: WAL log shipping, checkpoint install, failover.

The primary side (:class:`ReplicationSource`) streams raw WAL record
payloads to subscribers from their watermark LSN; the replica side
(:class:`ReplicaDatabase`) appends them to its own byte-identical local
log and redoes them through the recovery handlers, yielding a read-only
mirror that is byte-equivalent to the primary's durable prefix. When a
checkpoint truncation outruns a replica (or its history diverged), the
replica installs the primary's ``checkpoint.sigdb`` and tails from that
checkpoint's LSN.
"""

from repro.replication.primary import ReplicaCursor, ReplicationSource
from repro.replication.replica import ReplicaDatabase

__all__ = [
    "ReplicaCursor",
    "ReplicaDatabase",
    "ReplicationSource",
]
