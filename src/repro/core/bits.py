"""Packed bit-vector primitives used by the signature scheme.

Signatures are fixed-width bit strings. The paper manipulates them with
bitwise OR (superimposed coding) and bitwise containment tests. Pure-Python
per-bit loops are far too slow for a 32,000-object database with F up to
2,500 bits, so bit vectors are stored packed into ``numpy`` ``uint64`` words
and all operations are vectorized. The semantics are identical to a naive
bit-array implementation; only the constant factors change, which does not
affect the page-access counts the paper's cost model is expressed in.

Bit order convention: bit ``i`` of the vector lives in word ``i // 64`` at
in-word position ``i % 64`` (little-endian within the word). The trailing
unused bits of the last word are always zero — every public operation
preserves this invariant, and :meth:`BitVector.check_invariants` verifies it.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Sequence

import numpy as np

from repro.errors import ConfigurationError

_WORD_BITS = 64

# Lookup table: population count of each byte value, used to popcount packed
# words without looping over bits.
_POPCOUNT8 = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)


def words_for_bits(nbits: int) -> int:
    """Number of 64-bit words needed to hold ``nbits`` bits."""
    if nbits < 0:
        raise ConfigurationError(f"bit count must be non-negative, got {nbits}")
    return (nbits + _WORD_BITS - 1) // _WORD_BITS


def _tail_mask(nbits: int) -> np.uint64:
    """Mask selecting the valid bits of the final word of an nbits vector."""
    used = nbits % _WORD_BITS
    if used == 0:
        return np.uint64(0xFFFFFFFFFFFFFFFF)
    return np.uint64((1 << used) - 1)


def popcount_words(words: np.ndarray) -> int:
    """Total number of set bits across an array of uint64 words."""
    as_bytes = words.view(np.uint8)
    return int(_POPCOUNT8[as_bytes].sum())


class BitVector:
    """A fixed-length bit vector packed into uint64 words.

    Instances are mutable; the bitwise operators (``|``, ``&``, ``~``) return
    new vectors, while the ``set_bit`` / ``or_with`` style methods mutate in
    place. Equality compares length and content.
    """

    __slots__ = ("nbits", "words")

    def __init__(self, nbits: int, words: np.ndarray | None = None):
        if nbits <= 0:
            raise ConfigurationError(f"bit vector length must be positive, got {nbits}")
        self.nbits = nbits
        nwords = words_for_bits(nbits)
        if words is None:
            self.words = np.zeros(nwords, dtype=np.uint64)
        else:
            if words.dtype != np.uint64 or words.shape != (nwords,):
                raise ConfigurationError(
                    f"backing array must be uint64[{nwords}], got {words.dtype}{words.shape}"
                )
            self.words = words

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_positions(cls, nbits: int, positions: Iterable[int]) -> "BitVector":
        """Build a vector with the given bit positions set."""
        vec = cls(nbits)
        for pos in positions:
            vec.set_bit(pos)
        return vec

    @classmethod
    def from_bitstring(cls, text: str) -> "BitVector":
        """Build a vector from a string like ``"01010100"``.

        Position 0 is the leftmost character, matching the paper's figures.
        """
        cleaned = text.replace(" ", "")
        if not cleaned or any(c not in "01" for c in cleaned):
            raise ConfigurationError(f"not a bit string: {text!r}")
        return cls.from_positions(
            len(cleaned), (i for i, c in enumerate(cleaned) if c == "1")
        )

    @classmethod
    def from_bytes(cls, nbits: int, data: bytes) -> "BitVector":
        """Inverse of :meth:`to_bytes`."""
        nwords = words_for_bits(nbits)
        expected = nwords * 8
        if len(data) != expected:
            raise ConfigurationError(
                f"expected {expected} bytes for {nbits} bits, got {len(data)}"
            )
        words = np.frombuffer(data, dtype="<u8").astype(np.uint64).copy()
        vec = cls(nbits, words)
        vec.words[-1] &= _tail_mask(nbits)
        return vec

    def copy(self) -> "BitVector":
        return BitVector(self.nbits, self.words.copy())

    # ------------------------------------------------------------------
    # Bit access
    # ------------------------------------------------------------------
    def _check_pos(self, pos: int) -> None:
        if not 0 <= pos < self.nbits:
            raise IndexError(f"bit position {pos} out of range [0, {self.nbits})")

    def set_bit(self, pos: int) -> None:
        self._check_pos(pos)
        self.words[pos // _WORD_BITS] |= np.uint64(1 << (pos % _WORD_BITS))

    def clear_bit(self, pos: int) -> None:
        self._check_pos(pos)
        self.words[pos // _WORD_BITS] &= np.uint64(
            ~(1 << (pos % _WORD_BITS)) & 0xFFFFFFFFFFFFFFFF
        )

    def get_bit(self, pos: int) -> bool:
        self._check_pos(pos)
        word = int(self.words[pos // _WORD_BITS])
        return bool((word >> (pos % _WORD_BITS)) & 1)

    def __getitem__(self, pos: int) -> bool:
        return self.get_bit(pos)

    def set_positions(self) -> List[int]:
        """Sorted list of positions whose bit is 1."""
        result: List[int] = []
        for widx in np.nonzero(self.words)[0]:
            word = int(self.words[widx])
            base = int(widx) * _WORD_BITS
            while word:
                low = word & -word
                result.append(base + low.bit_length() - 1)
                word ^= low
        return result

    def zero_positions(self) -> List[int]:
        """Sorted list of positions whose bit is 0."""
        ones = set(self.set_positions())
        return [i for i in range(self.nbits) if i not in ones]

    def iter_bits(self) -> Iterator[bool]:
        for i in range(self.nbits):
            yield self.get_bit(i)

    # ------------------------------------------------------------------
    # Bulk operations
    # ------------------------------------------------------------------
    def popcount(self) -> int:
        """Number of set bits (the signature *weight*)."""
        return popcount_words(self.words)

    def _require_same_length(self, other: "BitVector") -> None:
        if self.nbits != other.nbits:
            raise ConfigurationError(
                f"length mismatch: {self.nbits} vs {other.nbits}"
            )

    def or_with(self, other: "BitVector") -> None:
        """In-place bitwise OR (superimposed-coding accumulation)."""
        self._require_same_length(other)
        np.bitwise_or(self.words, other.words, out=self.words)

    def __or__(self, other: "BitVector") -> "BitVector":
        self._require_same_length(other)
        return BitVector(self.nbits, self.words | other.words)

    def __and__(self, other: "BitVector") -> "BitVector":
        self._require_same_length(other)
        return BitVector(self.nbits, self.words & other.words)

    def __invert__(self) -> "BitVector":
        inverted = ~self.words
        vec = BitVector(self.nbits, inverted.astype(np.uint64))
        vec.words[-1] &= _tail_mask(self.nbits)
        return vec

    def is_zero(self) -> bool:
        return not self.words.any()

    def covers(self, other: "BitVector") -> bool:
        """True iff every bit set in ``other`` is also set in ``self``.

        This is the signature containment test at the heart of both query
        conditions: a target signature *covers* the query signature for
        ``T ⊇ Q`` drops, and the query signature covers the target signature
        for ``T ⊆ Q`` drops.
        """
        self._require_same_length(other)
        return bool(np.array_equal(other.words & self.words, other.words))

    def intersects(self, other: "BitVector") -> bool:
        """True iff the two vectors share at least one set bit."""
        self._require_same_length(other)
        return bool((self.words & other.words).any())

    # ------------------------------------------------------------------
    # Serialization & dunder plumbing
    # ------------------------------------------------------------------
    def to_bytes(self) -> bytes:
        """Little-endian packed representation (whole words)."""
        return self.words.astype("<u8").tobytes()

    def to_bitstring(self) -> str:
        """Render as a 0/1 string, position 0 leftmost (paper's notation)."""
        return "".join("1" if b else "0" for b in self.iter_bits())

    def check_invariants(self) -> None:
        """Raise if the unused tail bits of the last word are not zero."""
        tail = int(self.words[-1]) & ~int(_tail_mask(self.nbits)) & 0xFFFFFFFFFFFFFFFF
        if tail:
            raise ConfigurationError("tail bits beyond nbits are set")

    def __len__(self) -> int:
        return self.nbits

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BitVector):
            return NotImplemented
        return self.nbits == other.nbits and bool(
            np.array_equal(self.words, other.words)
        )

    def __hash__(self) -> int:
        return hash((self.nbits, self.words.tobytes()))

    def __repr__(self) -> str:
        if self.nbits <= 64:
            return f"BitVector({self.to_bitstring()!r})"
        return f"BitVector(nbits={self.nbits}, weight={self.popcount()})"


def stack_vectors(vectors: Sequence[BitVector]) -> np.ndarray:
    """Stack equal-length vectors into a 2-D uint64 matrix (row per vector).

    Used by the in-memory SSF scan path: containment of one query signature
    against many target signatures reduces to a vectorized matrix test.
    """
    if not vectors:
        return np.zeros((0, 0), dtype=np.uint64)
    nbits = vectors[0].nbits
    for vec in vectors:
        if vec.nbits != nbits:
            raise ConfigurationError("cannot stack vectors of differing lengths")
    return np.stack([vec.words for vec in vectors])


def rows_covering(matrix: np.ndarray, query: BitVector) -> np.ndarray:
    """Row indices of ``matrix`` whose bit set is a superset of ``query``.

    Vectorized form of :meth:`BitVector.covers` applied row-wise; this is the
    `T ⊇ Q` drop test over a whole signature file at once.
    """
    if matrix.shape[0] == 0:
        return np.zeros(0, dtype=np.int64)
    masked = matrix & query.words
    hits = np.all(masked == query.words, axis=1)
    return np.nonzero(hits)[0]


def rows_covered_by(matrix: np.ndarray, query: BitVector) -> np.ndarray:
    """Row indices of ``matrix`` whose bit set is a subset of ``query``.

    Vectorized `T ⊆ Q` drop test: every "1" in the row must appear in the
    query signature.
    """
    if matrix.shape[0] == 0:
        return np.zeros(0, dtype=np.int64)
    masked = matrix & query.words
    hits = np.all(masked == matrix, axis=1)
    return np.nonzero(hits)[0]
