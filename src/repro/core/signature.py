"""Superimposed-coding set signatures (paper Section 3.1).

A *set signature* is the bitwise OR of the element signatures of every
element in a set value. Set signatures built from stored attribute values are
*target signatures*; those built from a query's set constant are *query
signatures*.

Drop conditions (Section 3.1):

``T ⊇ Q`` (has-subset)
    A target is a drop when every bit set in the **query** signature is also
    set in the target signature.

``T ⊆ Q`` (in-subset)
    A target is a drop when every bit set in the **target** signature is also
    set in the query signature.

A drop is only a *candidate*; hash collisions plus superimposition produce
false drops, which the query executor resolves by fetching the object
(Section 3.1's "false drop resolution").
"""

from __future__ import annotations

import enum
from typing import FrozenSet, Hashable, Iterable

import numpy as np

from repro.core.bits import BitVector, words_for_bits
from repro.core.hashing import ElementHasher
from repro.errors import ConfigurationError


class SetPredicateKind(enum.Enum):
    """The set comparison the paper's queries exercise, plus §6 extensions."""

    HAS_SUBSET = "has-subset"      # T ⊇ Q  (query Q1)
    IN_SUBSET = "in-subset"        # T ⊆ Q  (query Q2)
    CONTAINS = "contains"          # membership: q ∈ T (⊇ with |Q| = 1)
    EQUALS = "set-equals"          # T = Q
    OVERLAPS = "overlaps"          # T ∩ Q ≠ ∅

    def evaluate(self, target: FrozenSet, query: FrozenSet) -> bool:
        """Exact (non-signature) evaluation of the predicate on real sets."""
        if self is SetPredicateKind.HAS_SUBSET:
            return target >= query
        if self is SetPredicateKind.IN_SUBSET:
            return target <= query
        if self is SetPredicateKind.CONTAINS:
            return query <= target
        if self is SetPredicateKind.EQUALS:
            return target == query
        return bool(target & query)


class SignatureScheme:
    """The (F, m) design point of a signature file.

    Wraps an :class:`ElementHasher` and provides set/query signature
    construction and the two drop tests. All signatures produced by one
    scheme are interoperable; mixing schemes raises.
    """

    def __init__(self, signature_bits: int, bits_per_element: int, seed: int = 0):
        self.hasher = ElementHasher(signature_bits, bits_per_element, seed=seed)
        self.signature_bits = signature_bits
        self.bits_per_element = bits_per_element
        self.seed = seed

    # ------------------------------------------------------------------
    # Signature construction
    # ------------------------------------------------------------------
    def element_signature(self, element: Hashable) -> BitVector:
        return self.hasher.element_signature(element)

    def set_signature(self, elements: Iterable[Hashable]) -> BitVector:
        """Superimpose (OR) the element signatures of ``elements``.

        Runs on memoized packed element words (one ``bitwise_or.reduce``
        over the stacked rows) instead of per-bit loops; the result is
        identical, only cheaper for large sets and repeated elements.
        """
        signature_words = self.hasher.signature_words
        rows = [signature_words(element) for element in elements]
        sig = BitVector(self.signature_bits)
        if rows:
            np.bitwise_or.reduce(rows, axis=0, out=sig.words)
        return sig

    # Query signatures are constructed identically; the alias keeps call
    # sites readable and gives the smart strategies a single place to hook.
    query_signature = set_signature

    def set_signature_words_many(self, element_sets) -> np.ndarray:
        """Packed set signatures for many sets at once: an ``(n, W)`` array.

        Row ``i`` equals ``set_signature(element_sets[i]).words``. Gathers
        every element's memoized packed row into one stacked array and
        superimposes each set's segment with a single
        ``np.bitwise_or.reduceat`` — one vectorized pass instead of one
        Python-level reduce per set.
        """
        signature_words = self.hasher.signature_words
        words = words_for_bits(self.signature_bits)
        # Hash each *distinct* element once and gather occurrences with one
        # fancy index — bulk loads repeat domain elements thousands of
        # times, and a per-occurrence numpy call dominates the load.
        index_of: dict = {}
        unique_rows = []
        occurrences = []
        offsets = []
        position = 0
        for elements in element_sets:
            offsets.append(position)
            for element in elements:
                idx = index_of.get(element)
                if idx is None:
                    idx = len(unique_rows)
                    index_of[element] = idx
                    unique_rows.append(signature_words(element))
                occurrences.append(idx)
                position += 1
        out = np.zeros((len(offsets), words), dtype=np.uint64)
        if not occurrences:
            return out
        stacked = np.vstack(unique_rows)[np.asarray(occurrences)]
        # reduceat cannot represent empty segments (an offset equal to the
        # next one reduces a single row instead of none), so superimpose
        # only the non-empty sets and leave empty ones all-zero.
        starts = np.array(offsets + [position])
        lengths = np.diff(starts)
        nonempty = np.flatnonzero(lengths)
        if nonempty.size:
            reduced = np.bitwise_or.reduceat(stacked, starts[nonempty], axis=0)
            out[nonempty] = reduced
        return out

    def partial_query_signature(
        self, elements: Iterable[Hashable], use_elements: int
    ) -> BitVector:
        """Signature of the first ``use_elements`` elements only.

        This is the primitive behind the §5.1.3 smart strategy for ``T ⊇ Q``:
        forming the query signature from a subset of the query set weakens
        the filter but touches fewer bit slices; the executor's drop
        resolution restores exactness.
        """
        chosen = list(elements)[:use_elements]
        if not chosen:
            raise ConfigurationError("partial query signature needs >= 1 element")
        return self.set_signature(chosen)

    # ------------------------------------------------------------------
    # Drop tests
    # ------------------------------------------------------------------
    def _check_compatible(self, target: BitVector, query: BitVector) -> None:
        if target.nbits != self.signature_bits or query.nbits != self.signature_bits:
            raise ConfigurationError(
                f"signature width mismatch: scheme F={self.signature_bits}, "
                f"target={target.nbits}, query={query.nbits}"
            )

    def is_drop_superset(self, target: BitVector, query: BitVector) -> bool:
        """Drop test for ``T ⊇ Q``: target covers the query signature."""
        self._check_compatible(target, query)
        return target.covers(query)

    def is_drop_subset(self, target: BitVector, query: BitVector) -> bool:
        """Drop test for ``T ⊆ Q``: query covers the target signature."""
        self._check_compatible(target, query)
        return query.covers(target)

    def is_drop(
        self, kind: SetPredicateKind, target: BitVector, query: BitVector
    ) -> bool:
        """Conservative signature-level test for any supported predicate.

        Guarantee: if the real sets satisfy the predicate, this returns True
        (no false dismissals). False positives are possible and expected.
        """
        if kind in (SetPredicateKind.HAS_SUBSET, SetPredicateKind.CONTAINS):
            return self.is_drop_superset(target, query)
        if kind is SetPredicateKind.IN_SUBSET:
            return self.is_drop_subset(target, query)
        if kind is SetPredicateKind.EQUALS:
            return target == query
        # OVERLAPS: sets sharing an element force >= 1 shared signature bit
        # unless either set is empty (empty set has an all-zero signature).
        if target.is_zero() or query.is_zero():
            return False
        return target.intersects(query)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SignatureScheme):
            return NotImplemented
        return (
            self.signature_bits == other.signature_bits
            and self.bits_per_element == other.bits_per_element
            and self.seed == other.seed
        )

    def __hash__(self) -> int:
        return hash((self.signature_bits, self.bits_per_element, self.seed))

    def __repr__(self) -> str:
        return (
            f"SignatureScheme(F={self.signature_bits}, m={self.bits_per_element}, "
            f"seed={self.seed})"
        )
