"""Abstract interface of a set access facility.

A facility indexes one set-valued attribute path (e.g. ``Student.hobbies``)
and supports the two search shapes of the paper plus maintenance:

* ``search_superset(query)`` — candidates for ``target ⊇ query`` (Q1);
* ``search_subset(query)`` — candidates for ``target ⊆ query`` (Q2);
* ``insert`` / ``delete`` of one (set value, OID) pair, and ``apply`` of
  a batch of them in order.

Searches return *candidate* OIDs. Signature facilities may return false
drops; the query executor performs drop resolution against the object store.
NIX returns exact answers for ``T ⊇ Q`` and over-approximations for
``T ⊆ Q`` (the union of per-element OID lists — everything that intersects
the query set), matching the paper's §4.3 retrieval procedures.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import FrozenSet, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core import kernels
from repro.core.signature import SignatureScheme
from repro.errors import AccessFacilityError, ConfigurationError
from repro.objects.oid import OID

SetValue = FrozenSet[Hashable]

#: one maintenance op: ``("insert" | "delete", set value, OID)``
FacilityOp = Tuple[str, SetValue, OID]


@dataclass(frozen=True)
class BatchQuerySpec:
    """One query's search parameters, as plain data.

    Mirrors the keyword surface of ``search_superset`` / ``search_subset``
    / ``search_overlap``: ``mode`` selects the drop test, the optional
    fields carry the §5.1.3 smart-strategy knobs.
    """

    mode: str
    query: SetValue
    use_elements: Optional[int] = None
    slices_to_examine: Optional[int] = None


def query_words(
    scheme: SignatureScheme,
    mode: str,
    query: SetValue,
    *,
    use_elements: Optional[int] = None,
    slices_to_examine: Optional[int] = None,
) -> np.ndarray:
    """The packed words a signature search of ``mode`` tests entries against.

    ``superset`` and ``overlap`` test the query signature (for superset
    with ``use_elements``, the §5.1.3 partial signature of that many
    elements in repr-sorted order). ``subset`` tests the mask of the query
    signature's zero positions, only the first ``slices_to_examine`` of
    them in ascending order when given: an entry is a subset drop iff it
    has no 1 inside the mask. The signature facilities derive their words
    here, once per search, and hand them to ``search_words``; the LSM
    facility hands the same words to its memtable and every run.
    """
    if mode not in kernels.ROW_TESTS:
        raise ConfigurationError(f"unknown search mode: {mode!r}")
    if use_elements is None:
        words = scheme.set_signature(query).words
    elif use_elements < 1:
        raise AccessFacilityError(f"use_elements must be >= 1, got {use_elements}")
    else:
        words = scheme.partial_query_signature(
            sorted(query, key=repr), use_elements
        ).words
    if mode != "subset":
        return words
    zeros = kernels.cleared_bit_indices(words, scheme.signature_bits)
    mask = np.zeros(scheme.signature_bits, dtype=np.uint8)
    mask[zeros[:slices_to_examine]] = 1
    return kernels.pack_rows(mask[np.newaxis, :])[0]


class SearchResult:
    """Candidates plus provenance for the executor and the experiments.

    A facility that holds its candidates as packed OID words (NIX posting
    lists, the OID file's word table) passes ``candidates=None`` and the
    ``uint64`` array as ``words``; one that holds :class:`OID` objects
    passes those. Each form is built from the other on first use, so drop
    resolution, which reads :attr:`words`, builds no ``OID`` for a
    candidate it drops.
    """

    __slots__ = ("_candidates", "_words", "exact", "facility", "detail")

    def __init__(
        self,
        candidates: Optional[List[OID]],
        exact: bool,
        facility: str,
        detail: Optional[dict] = None,
        words: Optional[np.ndarray] = None,
    ):
        self._candidates = candidates
        self._words = words
        self.exact = exact
        self.facility = facility
        self.detail = detail or {}

    @property
    def candidates(self) -> List[OID]:
        """The candidates as :class:`OID` objects, in facility order."""
        if self._candidates is None:
            self._candidates = [OID.from_int(word) for word in self._words.tolist()]
        return self._candidates

    @property
    def words(self) -> np.ndarray:
        """The candidates packed as :meth:`OID.to_int` ``uint64`` words."""
        if self._words is None:
            self._words = np.array(
                [oid.to_int() for oid in self._candidates], dtype=np.uint64
            )
        return self._words

    def __len__(self) -> int:
        if self._candidates is None:
            return len(self._words)
        return len(self._candidates)

    def __repr__(self) -> str:
        kind = "exact" if self.exact else "candidate"
        return f"SearchResult({len(self)} {kind} OIDs from {self.facility})"


class SetAccessFacility(abc.ABC):
    """Base class for SSF, BSSF and NIX."""

    #: short identifier used in plans, stats and reports; a catalog kind
    name: str = "abstract"

    #: True for the LSM layout (memtable + immutable runs)
    is_lsm: bool = False

    #: every file of the facility is named ``{file_prefix}:{part}``
    file_prefix: str = ""

    @abc.abstractmethod
    def insert(self, elements: SetValue, oid: OID) -> None:
        """Index one object's set value."""

    @abc.abstractmethod
    def delete(self, elements: SetValue, oid: OID) -> None:
        """Remove one object's set value from the index."""

    def apply(self, ops: Sequence[FacilityOp]) -> None:
        """Apply ``ops`` in order, as that many inserts and deletes would.

        The default makes one :meth:`insert` / :meth:`delete` call per op.
        The signature files override it to write each page the batch
        touches once (the facade hands over one op, WAL replay a batch).
        """
        for op, elements, oid in ops:
            if op == "insert":
                self.insert(elements, oid)
            else:
                self.delete(elements, oid)

    @abc.abstractmethod
    def search_superset(self, query: SetValue) -> SearchResult:
        """Candidates for ``T ⊇ Q``."""

    @abc.abstractmethod
    def search_subset(self, query: SetValue) -> SearchResult:
        """Candidates for ``T ⊆ Q``."""

    def search_overlap(self, query: SetValue) -> SearchResult:
        """Candidates for ``T ∩ Q ≠ ∅`` (a §6 extension operator).

        Optional; facilities that support it override. The default raises.
        """
        raise NotImplementedError(f"{self.name} does not support overlap search")

    def search_spec(self, spec: BatchQuerySpec) -> SearchResult:
        """Run the search one :class:`BatchQuerySpec` describes."""
        if spec.mode == "superset":
            if spec.use_elements is not None:
                return self.search_superset(
                    spec.query, use_elements=spec.use_elements
                )
            return self.search_superset(spec.query)
        if spec.mode == "subset":
            if spec.slices_to_examine is not None:
                return self.search_subset(
                    spec.query, slices_to_examine=spec.slices_to_examine
                )
            return self.search_subset(spec.query)
        if spec.mode == "overlap":
            return self.search_overlap(spec.query)
        raise ValueError(f"unknown search mode: {spec.mode!r}")

    def create_params(self) -> Tuple[str, list]:
        """``(kind, params)`` that make another facility like this one.

        The pair a ``create_index`` WAL record logs, layout included;
        feeding it to :meth:`Database.create_index` on any database (a
        shard, this one after its files were dropped) builds an empty
        facility of the same kind, layout and options
        (:func:`repro.access.catalog.create_params`).
        """
        from repro.access.catalog import create_params

        return create_params(self)

    @abc.abstractmethod
    def storage_pages(self) -> dict:
        """Per-component page counts, e.g. ``{"signature": 493, "oid": 63}``."""

    def total_storage_pages(self) -> int:
        return sum(self.storage_pages().values())

    def verify(self) -> None:
        """Check internal invariants; raise IndexCorruptionError on failure.

        Default: no-op. Facilities override with real structural checks.
        """

    def verify_decodes(self) -> None:
        """Check what the facility holds decoded against a fresh decode.

        Default: no-op. SSF, BSSF, NIX and the LSM facility (run by run)
        override: a held decode that differs from its pages is dropped and
        IndexCorruptionError names the file and page.
        """
