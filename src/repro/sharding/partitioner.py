"""Hash partitioning: which shard owns which object.

The paper's set predicates (``T ⊇ Q``, ``T ⊆ Q``) are evaluated object by
object, so a horizontal partitioning by OID splits the work without
changing any answer: every shard runs the same signature test over its
slice and the union of the drops is exactly the unsharded drop set.

:class:`HashPartitioner` is the placement function — a process-stable hash
of ``(class name, OID)`` modulo the shard count, identical across runs,
machines and Python versions (CRC32, not ``hash()``, which is seeded per
process). :func:`partition_database` applies it: given one populated
:class:`~repro.objects.database.Database`, it builds N shard databases
with the same schemas and access facilities and places every object on
its owner shard *under its original OID* (the explicit-OID insert path),
so sharded results are row-for-row identical to unsharded ones.
"""

from __future__ import annotations

import zlib
from typing import Callable, List, Optional

from repro.errors import ConfigurationError
from repro.objects.database import Database
from repro.objects.oid import OID

__all__ = ["HashPartitioner", "partition_database"]


class HashPartitioner:
    """Stable ``(class, OID) -> shard index`` placement."""

    def __init__(self, num_shards: int):
        if num_shards < 1:
            raise ConfigurationError(
                f"num_shards must be >= 1, got {num_shards}"
            )
        self.num_shards = num_shards

    def shard_of(self, class_name: str, oid: OID) -> int:
        """The shard that owns this object; stable across processes."""
        key = f"{class_name}:{oid.to_int()}".encode("utf-8")
        return zlib.crc32(key) % self.num_shards

    def __repr__(self) -> str:
        return f"HashPartitioner(num_shards={self.num_shards})"


def _replicate_schema(source: Database, shard: Database) -> None:
    """Mirror class definitions and access facilities onto one shard.

    Classes are defined in ascending class-id order so the shard mints the
    *same* class ids as the source — OIDs embed the class id, and the
    explicit-OID insert path refuses a mismatch.
    """
    ids = source.objects.class_ids()
    for class_name in sorted(ids, key=ids.__getitem__):
        shard.define_class(source.schema(class_name))
    for class_name, attribute in source.indexed_paths():
        for facility in source.indexes_on(class_name, attribute).values():
            kind, params = facility.create_params()
            shard.create_index(kind, class_name, attribute, params)


def partition_database(
    source: Database,
    num_shards: int,
    *,
    partitioner: Optional[HashPartitioner] = None,
    shard_factory: Optional[Callable[[int], Database]] = None,
) -> List[Database]:
    """Split one database into ``num_shards`` hash-partitioned databases.

    Each shard receives the full schema and the same facilities
    (identical signature scheme parameters, and the source's layouts: an
    in-place facility stays in place and an LSM one stays LSM whatever
    the shard's durability mode), then exactly the objects the
    partitioner assigns it, inserted under their original OIDs. Facilities
    are created *before* the objects arrive, so per-object index
    maintenance runs in the same OID order as an unsharded load.

    ``shard_factory(index)`` builds each empty shard; the default mirrors
    the source's page size with in-memory durability (callers that want
    WAL-mode shards pass their own factory).
    """
    partitioner = partitioner or HashPartitioner(num_shards)
    if partitioner.num_shards != num_shards:
        raise ConfigurationError(
            f"partitioner covers {partitioner.num_shards} shard(s), "
            f"but {num_shards} were requested"
        )
    if shard_factory is None:
        page_size = source.storage.page_size

        def shard_factory(_index: int) -> Database:
            return Database(page_size=page_size, durability="none")

    shards = [shard_factory(index) for index in range(num_shards)]
    for shard in shards:
        _replicate_schema(source, shard)
    for class_name in source.objects.class_names():
        for oid, values in source.objects.scan(class_name):
            owner = partitioner.shard_of(class_name, oid)
            shards[owner].insert_with_oid(class_name, oid, values)
    return shards
