"""Unit tests for the packed-word batch kernels."""

import numpy as np
import pytest

from repro.core import kernels
from repro.core.bits import BitVector


def pack_bits(bits):
    """Pack a python 0/1 list into uint64 words (reference layout)."""
    arr = np.packbits(np.array(bits, dtype=np.uint8), bitorder="little")
    nwords = kernels.words_for_bits(len(bits))
    padded = np.zeros(nwords * 8, dtype=np.uint8)
    padded[: len(arr)] = arr
    return padded.view(np.uint64).copy()


class TestMasks:
    @pytest.mark.parametrize("nbits", [0, 1, 63, 64, 65, 100, 128, 500])
    def test_ones_mask_sets_exactly_nbits(self, nbits):
        nwords = max(kernels.words_for_bits(nbits), 2)
        mask = kernels.ones_mask(nbits, nwords)
        assert list(kernels.set_bit_indices(mask, nwords * 64)) == list(range(nbits))

    def test_ones_mask_clamped_to_nwords(self):
        mask = kernels.ones_mask(500, 2)  # 500 bits don't fit 2 words
        assert mask.tolist() == [2**64 - 1] * 2


class TestAccumulate:
    def test_any_bit_and_covers_all(self):
        zero = np.zeros(3, dtype=np.uint64)
        assert not kernels.any_bit(zero)
        mask = kernels.ones_mask(130, 3)
        assert kernels.any_bit(mask)
        assert kernels.covers_all(mask, mask)
        partial = mask.copy()
        partial[0] = np.uint64(1)
        assert not kernels.covers_all(partial, mask)
        # extra bits beyond the mask don't matter
        extra = mask.copy()
        extra[2] |= np.uint64(1 << 10)
        assert kernels.covers_all(extra, mask)

    def test_empty_arrays(self):
        empty = np.zeros(0, dtype=np.uint64)
        assert not kernels.any_bit(empty)
        assert kernels.covers_all(empty, empty)
        assert kernels.set_bit_indices(empty, 0).size == 0
        assert kernels.cleared_bit_indices(empty, 0).size == 0


class TestIndexExtraction:
    @pytest.mark.parametrize("nbits", [1, 64, 65, 127, 500])
    def test_set_and_cleared_partition_range(self, nbits):
        rng = np.random.default_rng(nbits)
        bits = rng.integers(0, 2, size=nbits)
        words = pack_bits(bits)
        ones = list(kernels.set_bit_indices(words, nbits))
        zeros = list(kernels.cleared_bit_indices(words, nbits))
        assert ones == list(np.nonzero(bits)[0])
        assert sorted(ones + zeros) == list(range(nbits))

    def test_truncates_to_nbits(self):
        words = np.array([2**64 - 1], dtype=np.uint64)
        assert list(kernels.set_bit_indices(words, 5)) == [0, 1, 2, 3, 4]


class TestRowKernels:
    @pytest.mark.parametrize("nbits", [60, 64, 130, 500])
    def test_pack_unpack_roundtrip(self, nbits):
        rng = np.random.default_rng(nbits)
        rows = rng.integers(0, 2, size=(17, nbits)).astype(np.uint8)
        packed = kernels.pack_rows(rows)
        assert packed.shape == (17, kernels.words_for_bits(nbits))
        assert np.array_equal(kernels.unpack_rows(packed, nbits), rows)

    def test_row_predicates_match_bitvector(self):
        rng = np.random.default_rng(3)
        nbits = 170
        rows = rng.integers(0, 2, size=(40, nbits)).astype(np.uint8)
        qbits = rng.integers(0, 2, size=nbits).astype(np.uint8)
        matrix = kernels.pack_rows(rows)
        query = BitVector.from_positions(nbits, np.nonzero(qbits)[0])
        zero_mask = pack_bits(1 - qbits)
        targets = [
            BitVector.from_positions(nbits, np.nonzero(r)[0]) for r in rows
        ]
        covering = kernels.rows_covering(matrix, query.words)
        disjoint = kernels.rows_disjoint_from(matrix, zero_mask)
        intersecting = kernels.rows_intersecting(matrix, query.words)
        for i, target in enumerate(targets):
            assert covering[i] == target.covers(query)
            assert disjoint[i] == query.covers(target)
            assert intersecting[i] == target.intersects(query)

    def test_empty_matrix(self):
        matrix = np.zeros((0, 3), dtype=np.uint64)
        q = np.zeros(3, dtype=np.uint64)
        assert kernels.rows_covering(matrix, q).shape == (0,)
        assert kernels.rows_disjoint_from(matrix, q).shape == (0,)
        assert kernels.rows_intersecting(matrix, q).shape == (0,)


class TestAppendRow:
    def test_appends_behind_the_view_and_doubles_when_full(self):
        table = (np.zeros((0, 2), dtype=np.uint64), 0)
        capacities = []
        for index in range(9):
            table = kernels.append_rows(table, index, [[index, index + 100]])
            buffer, rows = table
            assert rows == index + 1
            assert buffer[:rows, 0].tolist() == list(range(rows))
            assert buffer[:rows, 1].tolist() == [100 + i for i in range(rows)]
            capacities.append(buffer.shape[0])
        assert capacities == [1, 2, 4, 4, 8, 8, 8, 8, 16]

    def test_spare_capacity_is_written_in_place(self):
        buffer = np.zeros(4, dtype=np.uint64)
        grown, rows = kernels.append_rows((buffer, 1), 1, [7])
        assert grown is buffer and rows == 2 and buffer[1] == 7

    def test_a_block_grows_the_buffer_to_hold_it(self):
        table = (np.arange(2, dtype=np.uint64), 2)
        buffer, rows = kernels.append_rows(table, 2, [5, 6, 7])
        assert buffer.shape == (5,) and rows == 5
        assert buffer.tolist() == [0, 1, 5, 6, 7]
        buffer, rows = kernels.append_rows((buffer, rows), 5, [8])
        assert buffer.shape == (10,) and buffer[:rows].tolist() == [0, 1, 5, 6, 7, 8]

    def test_refuses_a_table_that_does_not_end_at_the_index(self):
        table = (np.zeros(4, dtype=np.uint64), 2)
        assert kernels.append_rows(table, 1, [7]) is None
        assert kernels.append_rows(table, 3, [7]) is None
        assert table[0].tolist() == [0, 0, 0, 0]
