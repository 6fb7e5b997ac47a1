"""Tests for bit-level signature packing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.access.sigpack import (
    page_bit_array,
    signature_to_bits,
    signatures_per_page,
    store_bit_array,
    write_signature_in_page,
)
from repro.core.bits import BitVector
from repro.errors import ConfigurationError
from repro.storage.page import Page
from tests.reference.sigpack import read_signature_matrix


class TestCapacity:
    def test_paper_values(self):
        # floor(P·b/F): F=250 → 131, F=500 → 65 (drives SC_SIG anchors)
        assert signatures_per_page(4096, 250) == 131
        assert signatures_per_page(4096, 500) == 65
        assert signatures_per_page(4096, 1000) == 32
        assert signatures_per_page(4096, 2500) == 13

    def test_oversized_signature_rejected(self):
        with pytest.raises(ConfigurationError):
            signatures_per_page(8, 100)

    def test_invalid_f(self):
        with pytest.raises(ConfigurationError):
            signatures_per_page(4096, 0)


class TestBitConversions:
    def test_signature_to_bits(self):
        sig = BitVector.from_bitstring("01010100")
        assert signature_to_bits(sig).tolist() == [0, 1, 0, 1, 0, 1, 0, 0]

    def test_page_bit_array_length(self):
        assert len(page_bit_array(Page(64))) == 512

    def test_store_bit_array_roundtrip(self):
        page = Page(64)
        bits = np.zeros(512, dtype=np.uint8)
        bits[[0, 7, 8, 511]] = 1
        store_bit_array(page, bits)
        assert page_bit_array(page).tolist() == bits.tolist()

    def test_store_wrong_length_rejected(self):
        with pytest.raises(ConfigurationError):
            store_bit_array(Page(64), np.zeros(100, dtype=np.uint8))


class TestPageSlots:
    def test_write_and_read_back(self):
        page = Page(64)  # 512 bits; F=100 → 5 slots
        sig_a = BitVector.from_positions(100, [0, 50, 99])
        sig_b = BitVector.from_positions(100, [1, 2, 3])
        write_signature_in_page(page, 0, sig_a)
        write_signature_in_page(page, 3, sig_b)
        matrix = read_signature_matrix(page, 100, 4)
        assert matrix.shape == (4, 100)
        assert np.nonzero(matrix[0])[0].tolist() == [0, 50, 99]
        assert np.nonzero(matrix[1])[0].tolist() == []
        assert np.nonzero(matrix[3])[0].tolist() == [1, 2, 3]

    def test_unaligned_f_packs_across_bytes(self):
        """F not a multiple of 8 must still pack without interference."""
        page = Page(64)
        sigs = [BitVector.from_positions(37, [i, 36]) for i in range(5)]
        for slot, sig in enumerate(sigs):
            write_signature_in_page(page, slot, sig)
        matrix = read_signature_matrix(page, 37, 5)
        for slot, sig in enumerate(sigs):
            assert np.nonzero(matrix[slot])[0].tolist() == sig.set_positions()

    def test_slot_bounds_checked(self):
        page = Page(64)
        sig = BitVector(100)
        with pytest.raises(ConfigurationError):
            write_signature_in_page(page, 5, sig)  # capacity is 5 (slots 0-4)

    def test_count_bounds_checked(self):
        with pytest.raises(ConfigurationError):
            read_signature_matrix(Page(64), 100, 6)


@settings(max_examples=50)
@given(
    F=st.integers(min_value=1, max_value=511),
    data=st.data(),
)
def test_property_slots_do_not_interfere(F, data):
    page = Page(64)
    capacity = signatures_per_page(64, F)
    slots = data.draw(
        st.lists(
            st.integers(0, capacity - 1), min_size=1, max_size=min(capacity, 6),
            unique=True,
        )
    )
    written = {}
    for slot in slots:
        positions = data.draw(
            st.sets(st.integers(0, F - 1), max_size=min(F, 8))
        )
        sig = BitVector.from_positions(F, positions)
        write_signature_in_page(page, slot, sig)
        written[slot] = sig
    matrix = read_signature_matrix(page, F, capacity)
    for slot in range(capacity):
        expected = written.get(slot, BitVector(F))
        assert np.nonzero(matrix[slot])[0].tolist() == expected.set_positions()
