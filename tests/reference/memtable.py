"""The memtable's drop tests one entry at a time: the LSM facility's loop
before the memtable kept its signatures as a packed row table.

Every entry's signature is derived afresh from its element set and tested
with :class:`BitVector` ``covers`` / ``intersects``, against a query
signature (or subset mask) derived here too, so the oracle shares neither
the row table nor :func:`repro.access.base.query_words` with the code it
checks.
"""

from typing import List, Optional, Tuple

import numpy as np

from repro.core import kernels
from repro.core.bits import BitVector
from repro.errors import AccessFacilityError
from repro.lsm.memtable import MemTable
from repro.objects.oid import OID


def _query_signature(scheme, query, use_elements: Optional[int]) -> BitVector:
    if use_elements is None:
        return scheme.set_signature(query)
    if use_elements < 1:
        raise AccessFacilityError(f"use_elements must be >= 1, got {use_elements}")
    return scheme.partial_query_signature(sorted(query, key=repr), use_elements)


def _subset_mask(scheme, query, slices_to_examine: Optional[int]) -> BitVector:
    """The examined zero positions of the query signature, ascending."""
    signature = scheme.set_signature(query)
    bits = kernels.unpack_rows(
        signature.words[np.newaxis, :], scheme.signature_bits
    )[0]
    zero_positions = np.nonzero(1 - bits)[0]
    if slices_to_examine is not None:
        zero_positions = zero_positions[:slices_to_examine]
    mask_bits = np.zeros(scheme.signature_bits, dtype=np.uint8)
    mask_bits[zero_positions] = 1
    words = kernels.pack_rows(mask_bits[np.newaxis, :])[0]
    return BitVector(scheme.signature_bits, words)


def memtable_drops(
    memtable: MemTable,
    mode: str,
    query,
    *,
    use_elements: Optional[int] = None,
    slices_to_examine: Optional[int] = None,
) -> List[Tuple[int, OID]]:
    """``(seq, oid)`` of every memtable entry ``mode``'s drop test keeps,
    in seq order."""
    scheme = memtable.scheme
    if mode == "superset":
        signature = _query_signature(scheme, query, use_elements)

        def hit(entry_sig):
            return entry_sig.covers(signature)
    elif mode == "subset":
        mask = _subset_mask(scheme, query, slices_to_examine)

        def hit(entry_sig):
            return not entry_sig.intersects(mask)
    else:
        signature = scheme.set_signature(query)

        def hit(entry_sig):
            return entry_sig.intersects(signature)
    matches = []
    for oid, (elements, seq, _) in memtable.entries.items():
        if hit(scheme.set_signature(elements)):
            matches.append((seq, oid))
    return sorted(matches)
