"""Bit-level packing of signatures into pages.

The cost model stores ``floor(P·b / F)`` signatures per page — signatures
are packed bit-contiguously within a page (never crossing a page boundary).
These helpers size a signature page and install one :class:`BitVector`
signature into a page image — the SSF insert path. Searches and bulk loads
never come through here: they decode and build whole files in packed words
(:mod:`repro.core.kernels`).

Bit order: position ``j`` of a page's bitstream lives in byte ``j // 8`` at
in-byte position ``j % 8``, LSB first — exactly numpy's
``bitorder="little"`` and exactly :meth:`BitVector.to_bytes`'s layout, so
conversions are pure ``packbits`` / ``unpackbits`` calls.
"""

from __future__ import annotations

import numpy as np

from repro.core.bits import BitVector
from repro.errors import ConfigurationError
from repro.storage.page import Page


def signatures_per_page(page_size: int, signature_bits: int) -> int:
    """``floor(P·b / F)`` — capacity of one signature page."""
    if signature_bits <= 0:
        raise ConfigurationError(f"F must be positive, got {signature_bits}")
    capacity = (page_size * 8) // signature_bits
    if capacity == 0:
        raise ConfigurationError(
            f"signature of {signature_bits} bits does not fit a "
            f"{page_size}-byte page"
        )
    return capacity


def signature_to_bits(signature: BitVector) -> np.ndarray:
    """Signature as a 0/1 uint8 array of length F."""
    raw = np.frombuffer(signature.to_bytes(), dtype=np.uint8)
    return np.unpackbits(raw, bitorder="little")[: signature.nbits]


def page_bit_array(page: Page) -> np.ndarray:
    """The page's full bitstream as a 0/1 uint8 array (P·b long)."""
    raw = np.frombuffer(bytes(page.data), dtype=np.uint8)
    return np.unpackbits(raw, bitorder="little")


def store_bit_array(page: Page, bits: np.ndarray) -> None:
    """Write a full bitstream back into the page image."""
    expected = page.page_size * 8
    if len(bits) != expected:
        raise ConfigurationError(
            f"bit array of {len(bits)} bits does not match page of {expected}"
        )
    page.write_bytes(0, np.packbits(bits.astype(np.uint8), bitorder="little").tobytes())


def write_signature_in_page(page: Page, slot: int, signature: BitVector) -> None:
    """Install a signature at bit offset ``slot · F`` within the page."""
    capacity = signatures_per_page(page.page_size, signature.nbits)
    if not 0 <= slot < capacity:
        raise ConfigurationError(
            f"slot {slot} out of range for capacity {capacity}"
        )
    bits = page_bit_array(page)
    start = slot * signature.nbits
    bits[start : start + signature.nbits] = signature_to_bits(signature)
    store_bit_array(page, bits)
