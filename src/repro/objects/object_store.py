"""Object store: classes, OIDs, and per-class object files.

Implements the paper's object-manager assumptions: every object has a
unique OID, any object is directly accessible by its OID (one page access),
and objects live undecomposed in the object file of their class.

The OID → record-address directory is kept in memory and its maintenance is
not charged page accesses, mirroring the paper's model in which OID-based
object access costs exactly ``P_s``/``P_u`` = 1 page. It is keyed by the
packed OID word (:meth:`OID.to_int`), the form facilities hand candidates
over in, so drop resolution (:meth:`ObjectStore.resolve`) builds an
:class:`OID` only for a row it returns.
"""

from __future__ import annotations

from itertools import groupby
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ObjectStoreError, SchemaError, UnknownOIDError
from repro.objects.object_file import ObjectFile, RecordAddress
from repro.objects.oid import OID, SERIAL_BITS, OIDAllocator
from repro.objects.schema import ClassSchema
from repro.objects.serde import decode_object, encode_object
from repro.storage.paged_file import StorageManager


class ObjectStore:
    """All classes' objects on one storage manager."""

    def __init__(self, storage: StorageManager):
        self.storage = storage
        self._schemas: Dict[str, ClassSchema] = {}
        self._class_ids: Dict[str, int] = {}
        self._class_names: Dict[int, str] = {}
        self._files: Dict[str, ObjectFile] = {}
        self._directory: Dict[int, RecordAddress] = {}  # OID word -> address
        self._live_counts: Dict[int, int] = {}
        # Monotonic churn counter per class: inserts and deletes both
        # count. The live count alone cannot drive staleness decisions —
        # a delete followed by an explicit-OID re-insert (WAL replay,
        # run-merge order, shard loading) nets zero even though the
        # attribute distribution may have shifted arbitrarily.
        self._mutation_counts: Dict[int, int] = {}
        self._allocator = OIDAllocator()
        self._next_class_id = 1

    # ------------------------------------------------------------------
    # Schema management
    # ------------------------------------------------------------------
    def define_class(self, schema: ClassSchema) -> None:
        if schema.name in self._schemas:
            raise SchemaError(f"class already defined: {schema.name!r}")
        class_id = self._next_class_id
        self._next_class_id += 1
        self._schemas[schema.name] = schema
        self._class_ids[schema.name] = class_id
        self._class_names[class_id] = schema.name
        paged = self.storage.create_file(self.object_file_name(schema.name))
        self._files[schema.name] = ObjectFile(paged)

    @staticmethod
    def object_file_name(class_name: str) -> str:
        return f"objects:{class_name}"

    def schema(self, class_name: str) -> ClassSchema:
        try:
            return self._schemas[class_name]
        except KeyError:
            raise SchemaError(f"class not defined: {class_name!r}") from None

    def class_names(self) -> Tuple[str, ...]:
        return tuple(sorted(self._schemas))

    def class_ids(self) -> Dict[str, int]:
        """``{class name: class id}`` — ids follow definition order.

        Replicating a schema elsewhere (shard loading, replica rebuild)
        must define classes in ascending id order so OIDs — which embed
        the class id — mean the same thing on both sides.
        """
        return dict(self._class_ids)

    def class_name_of(self, oid: OID) -> str:
        try:
            return self._class_names[oid.class_id]
        except KeyError:
            raise UnknownOIDError(f"OID {oid} has unknown class id") from None

    # ------------------------------------------------------------------
    # Object lifecycle
    # ------------------------------------------------------------------
    def peek_next_oid(self, class_name: str) -> OID:
        """The OID the next insert into ``class_name`` will allocate."""
        return self._allocator.peek(self._class_ids[class_name])

    def insert(
        self,
        class_name: str,
        values: Dict[str, Any],
        payload: Optional[bytes] = None,
    ) -> OID:
        """Insert ``values``; ``payload`` is its pre-validated encoding.

        Callers that already validated and encoded the object (the WAL
        path builds its redo record from the same image) pass ``payload``
        so the work is not repeated — the logged bytes and the stored
        bytes are then identical by construction.
        """
        if payload is None:
            self.schema(class_name).validate_object(values)
            payload = encode_object(values)
        oid = self._allocator.allocate(self._class_ids[class_name])
        address = self._files[class_name].insert(payload)
        self._directory[oid.to_int()] = address
        class_id = oid.class_id
        self._live_counts[class_id] = self._live_counts.get(class_id, 0) + 1
        self._bump_mutations(class_id)
        return oid

    def insert_with_oid(
        self,
        class_name: str,
        oid: OID,
        values: Dict[str, Any],
        payload: Optional[bytes] = None,
    ) -> OID:
        """Insert under a caller-chosen OID (WAL replay, shard loading).

        The OID's class id must match ``class_name`` and the OID must not
        already be live; its serial is reserved so later fresh allocations
        cannot collide. Serial gaps are fine — a shard holds only its hash
        slice of a class, and :meth:`scan` orders by OID, not by density.
        ``payload`` is the object's pre-validated encoding, as in
        :meth:`insert`.
        """
        if payload is None:
            self.schema(class_name).validate_object(values)
            payload = encode_object(values)
        class_id = self._class_ids[class_name]
        if oid.class_id != class_id:
            raise ObjectStoreError(
                f"OID {oid} carries class id {oid.class_id}, but "
                f"{class_name!r} is class {class_id}"
            )
        if oid.to_int() in self._directory:
            raise ObjectStoreError(f"{oid} is already live")
        self._allocator.reserve(class_id, oid.serial)
        address = self._files[class_name].insert(payload)
        self._directory[oid.to_int()] = address
        self._live_counts[class_id] = self._live_counts.get(class_id, 0) + 1
        self._bump_mutations(class_id)
        return oid

    def fetch(self, oid: OID) -> Dict[str, Any]:
        """Fetch an object by OID — one logical page read, per the model."""
        return next(self.fetch_many((oid,)))

    def fetch_many(self, oids: Iterable[OID]) -> Iterator[Dict[str, Any]]:
        """The objects of ``oids``, in order and lazily, one logical page
        read each; an unknown or deleted OID raises at its position.

        OIDs in OID order (a scan's) sit on the same few object pages, and
        each run of them costs one page fetch (:meth:`ObjectFile.read_many`).
        Drop resolution goes through :meth:`resolve` instead.
        """
        for class_name, run in groupby(oids, key=self.class_name_of):
            records = self._files[class_name].read_many(map(self._address, run))
            yield from map(decode_object, records)

    def resolve(
        self, words: Sequence[int], predicates: Sequence[Any]
    ) -> List[Tuple[OID, Dict[str, Any]]]:
        """Drop resolution: the candidates that satisfy every predicate.

        ``words`` are candidate OIDs packed as :meth:`OID.to_int` words (a
        ``uint64`` array or a list), in the order a facility produced them;
        the rows come back in that order as ``(OID, values)``. Each
        candidate costs the one object-page read the paper's model prices,
        charged exactly as a :meth:`fetch` per candidate would charge it
        (``tests/reference/drop_resolution.py`` is that loop), and an
        unknown or deleted OID raises at its position with everything
        before it charged. Candidates are handed to their class's
        :meth:`ObjectFile.select` a class at a time; see there for how a
        page run is read once and tested on cached decodes.
        """
        if isinstance(words, np.ndarray):
            words = words.tolist()
        directory = self._directory
        rows: List[Tuple[OID, Dict[str, Any]]] = []
        batch: List[int] = []  # the words of one class, in order
        addresses: List[RecordAddress] = []
        class_id = None
        for word in words:
            address = directory.get(word)
            if address is None or word >> SERIAL_BITS != class_id:
                self._select(class_id, batch, addresses, predicates, rows)
                if address is None:
                    raise self._unknown(word)
                class_id = word >> SERIAL_BITS
                batch, addresses = [], []
            batch.append(word)
            addresses.append(address)
        self._select(class_id, batch, addresses, predicates, rows)
        return rows

    def _select(self, class_id, words, addresses, predicates, rows) -> None:
        """Resolve one class's batch, appending its surviving rows."""
        if not words:
            return
        selected = self._files[self._class_names[class_id]].select(
            addresses, predicates
        )
        for position, values in selected:
            rows.append((OID.from_int(words[position]), values))

    def _unknown(self, word: int) -> UnknownOIDError:
        """The error :meth:`fetch` raises for a word with no live object."""
        oid = OID.from_int(word)
        self.class_name_of(oid)  # an unknown class is reported as such
        return UnknownOIDError(f"no live object for {oid}")

    def update(
        self,
        oid: OID,
        values: Dict[str, Any],
        payload: Optional[bytes] = None,
    ) -> None:
        """Replace an object's fields; ``payload`` as in :meth:`insert`."""
        class_name = self.class_name_of(oid)
        if payload is None:
            self.schema(class_name).validate_object(values)
            payload = encode_object(values)
        address = self._address(oid)
        new_address = self._files[class_name].update(address, payload)
        self._directory[oid.to_int()] = new_address
        self._bump_mutations(oid.class_id)

    def delete(self, oid: OID) -> None:
        class_name = self.class_name_of(oid)
        address = self._address(oid)
        self._files[class_name].delete(address)
        del self._directory[oid.to_int()]
        self._live_counts[oid.class_id] -= 1
        self._bump_mutations(oid.class_id)

    def _bump_mutations(self, class_id: int) -> None:
        self._mutation_counts[class_id] = (
            self._mutation_counts.get(class_id, 0) + 1
        )

    def _address(self, oid: OID) -> RecordAddress:
        try:
            return self._directory[oid.to_int()]
        except KeyError:
            raise UnknownOIDError(f"no live object for {oid}") from None

    def exists(self, oid: OID) -> bool:
        return oid.to_int() in self._directory

    # ------------------------------------------------------------------
    # Scans & statistics
    # ------------------------------------------------------------------
    def scan(self, class_name: str) -> Iterator[Tuple[OID, Dict[str, Any]]]:
        """All live objects of a class in OID order.

        Costs one logical read per object, as the same ``fetch`` calls
        would; consecutive objects on one page share its fetch.
        """
        oids = [OID.from_int(word) for word in self.live_words(class_name)]
        yield from zip(oids, self.fetch_many(oids))

    def live_words(self, class_name: str) -> List[int]:
        """Every live object of a class as an OID word, in OID order —
        the candidates of a sequential scan (see :meth:`resolve`)."""
        self.schema(class_name)  # raises for unknown classes
        class_id = self._class_ids[class_name]
        return sorted(
            word for word in self._directory if word >> SERIAL_BITS == class_id
        )

    def count(self, class_name: str) -> int:
        """Live objects of a class — O(1) via the maintained counter.

        Called on every planner statistics lookup (drift detection), so it
        must not scan the directory: on a 64K-object store that genexpr
        dominated per-query planning time.
        """
        self.schema(class_name)
        class_id = self._class_ids[class_name]
        return self._live_counts.get(class_id, 0)

    def mutation_count(self, class_name: str) -> int:
        """Total lifecycle mutations (insert/update/delete) ever applied.

        Monotonic, unlike :meth:`count`: churn that nets zero live objects
        (delete + explicit-OID re-insert, update sweeps) still advances it,
        so statistics staleness can be detected even when the live count
        never moves.
        """
        self.schema(class_name)
        class_id = self._class_ids[class_name]
        return self._mutation_counts.get(class_id, 0)

    def verify_decodes(self, class_name: str) -> None:
        """:meth:`ObjectFile.verify_decodes` on the class's object file."""
        self.schema(class_name)  # raises for unknown classes
        self._files[class_name].verify_decodes()

    def object_pages(self, class_name: str) -> int:
        """Pages occupied by a class's object file."""
        try:
            return self._files[class_name].num_pages
        except KeyError:
            raise SchemaError(f"class not defined: {class_name!r}") from None

    def set_attribute_value(self, oid: OID, attribute: str) -> frozenset:
        """Fetch just a set attribute's value (still one page access)."""
        values = self.fetch(oid)
        class_name = self.class_name_of(oid)
        attr = self.schema(class_name).attribute(attribute)
        if not attr.is_set:
            raise ObjectStoreError(
                f"attribute {attribute!r} of {class_name!r} is not a set"
            )
        return frozenset(values[attribute])
