"""Packed-word batch kernels for signature search.

Unpacking every slice page (BSSF) or signature page (SSF) into per-entry
``bool``/0-1 arrays before combining them would spend most of each
query's wall-clock expanding bits 8× and walking Python loops. These
kernels keep everything in ``uint64`` words — 64 entries (or signature
bits) per machine word — and only materialize indices at the very end,
when the surviving drop positions are needed.

Conventions match :mod:`repro.core.bits`: bit ``i`` lives in word
``i // 64`` at in-word position ``i % 64`` (``numpy``'s
``bitorder="little"``). All kernels are pure functions on numpy arrays;
they never touch storage and therefore cannot perturb the paper's
page-access accounting — the access methods charge I/O separately, and
the per-page oracle in ``tests/reference/`` pins what they charge.
"""

from __future__ import annotations

import numpy as np

WORD_BITS = 64

_ALL_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)


def words_for_bits(nbits: int) -> int:
    """Number of uint64 words needed to hold ``nbits`` bits."""
    return (nbits + WORD_BITS - 1) // WORD_BITS


def ones_mask(nbits: int, nwords: int) -> np.ndarray:
    """A ``nwords``-long word array with exactly the first ``nbits`` set."""
    mask = np.zeros(nwords, dtype=np.uint64)
    full = min(nbits // WORD_BITS, nwords)
    mask[:full] = _ALL_ONES
    rem = nbits % WORD_BITS
    if rem and full < nwords:
        mask[full] = np.uint64((1 << rem) - 1)
    return mask


def any_bit(words: np.ndarray) -> bool:
    """True iff any bit is set — the superset-AND early-exit test."""
    return bool(words.any())


def covers_all(acc: np.ndarray, mask: np.ndarray) -> bool:
    """True iff every bit of ``mask`` is set in ``acc`` — the subset-OR
    "everything eliminated" early-exit test (``acc`` need not be masked)."""
    return bool(np.array_equal(acc & mask, mask))


def set_bit_indices(words: np.ndarray, nbits: int) -> np.ndarray:
    """Ascending indices (< ``nbits``) of the set bits of ``words``.

    This is the vectorized drop-index materialization: one ``unpackbits``
    over exactly ``nbits`` positions plus one ``nonzero``, in place of a
    per-entry Python loop.
    """
    if nbits == 0 or words.size == 0:
        return np.zeros(0, dtype=np.int64)
    bits = np.unpackbits(words.view(np.uint8), bitorder="little", count=nbits)
    return np.nonzero(bits)[0]


def cleared_bit_indices(words: np.ndarray, nbits: int) -> np.ndarray:
    """Ascending indices (< ``nbits``) of the *zero* bits of ``words``."""
    if nbits == 0 or words.size == 0:
        return np.zeros(0, dtype=np.int64)
    bits = np.unpackbits(words.view(np.uint8), bitorder="little", count=nbits)
    return np.nonzero(bits == 0)[0]


def append_rows(table: tuple, index: int, new_rows) -> "tuple | None":
    """A growable ``(buffer, rows)`` table with ``new_rows`` from row ``index`` on.

    The table's content is the ``buffer[:rows]`` view; what lies behind it
    is spare capacity. ``None`` when the table does not end at ``index``.
    A buffer too short is copied into one at least twice as long, so an
    append is amortised O(rows appended) — what lets a decoded table follow
    the entries a write appends (the OID file's words, the SSF's signature
    rows).
    """
    buffer, rows = table
    if rows != index:
        return None
    end = rows + len(new_rows)
    if end > buffer.shape[0]:
        grown = np.zeros((max(end, 2 * rows),) + buffer.shape[1:], buffer.dtype)
        grown[:rows] = buffer[:rows]
        buffer = grown
    for offset, row in enumerate(new_rows):  # no array built from a short list
        buffer[rows + offset] = row
    return buffer, end


# ----------------------------------------------------------------------
# Row (signature-matrix) kernels — the SSF full-scan fast path
# ----------------------------------------------------------------------
def pack_rows(bit_rows: np.ndarray) -> np.ndarray:
    """Pack a (n, F) 0/1 matrix into a (n, words_for_bits(F)) uint64 matrix."""
    n, nbits = bit_rows.shape
    nwords = words_for_bits(nbits)
    padded = np.zeros((n, nwords * WORD_BITS), dtype=np.uint8)
    padded[:, :nbits] = bit_rows
    packed = np.packbits(padded, axis=1, bitorder="little")
    return np.ascontiguousarray(packed).view(np.uint64)


def unpack_rows(word_rows: np.ndarray, nbits: int) -> np.ndarray:
    """Inverse of :func:`pack_rows`: (n, W) uint64 → (n, nbits) 0/1 uint8."""
    if word_rows.shape[0] == 0:
        return np.zeros((0, nbits), dtype=np.uint8)
    as_bytes = np.ascontiguousarray(word_rows).view(np.uint8)
    return np.unpackbits(as_bytes, axis=1, bitorder="little")[:, :nbits]


def rows_covering(matrix: np.ndarray, query_words: np.ndarray) -> np.ndarray:
    """Per-row ``T ⊇ Q`` drop test: row covers every query bit."""
    return np.all((matrix & query_words) == query_words, axis=1)


def rows_disjoint_from(matrix: np.ndarray, mask_words: np.ndarray) -> np.ndarray:
    """Per-row test that the row has *no* bit inside ``mask_words``.

    With the mask set to the examined zero positions of a query signature
    this is the ``T ⊆ Q`` drop test (no target bit outside the query).
    """
    return ~np.any(matrix & mask_words, axis=1)


def rows_intersecting(matrix: np.ndarray, query_words: np.ndarray) -> np.ndarray:
    """Per-row ``T ∩ Q ≠ ∅`` drop test: row shares a bit with the query."""
    return np.any(matrix & query_words, axis=1)


#: the per-row drop test of each search mode, against the packed words
#: :func:`repro.access.base.query_words` derives for that mode
ROW_TESTS = {
    "superset": rows_covering,
    "subset": rows_disjoint_from,
    "overlap": rows_intersecting,
}
