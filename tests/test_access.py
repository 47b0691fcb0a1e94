"""Tests for random (point) access into compressed columns."""

import numpy as np
import pytest

from repro.bitmap import RoaringBitmap
from repro.core.access import read_rows, read_value
from repro.core.compressor import compress_column
from repro.core.config import BtrBlocksConfig
from repro.core.decompressor import decompress_column
from repro.core.file_format import column_from_bytes, column_to_bytes
from repro.encodings.base import SchemeId
from repro.exceptions import IntegrityError
from repro.types import Column


@pytest.fixture
def int_column(rng, small_config):
    values = rng.integers(0, 1000, 3500).astype(np.int32)
    return values, compress_column(Column.ints("c", values), small_config)


class TestReadRows:
    def test_single_row(self, int_column):
        values, compressed = int_column
        out = read_rows(compressed, [1234])
        assert out.data.tolist() == [values[1234]]

    def test_rows_across_blocks(self, int_column):
        values, compressed = int_column
        picks = [0, 999, 1000, 2500, 3499]
        out = read_rows(compressed, picks)
        assert out.data.tolist() == [int(values[i]) for i in picks]

    def test_order_and_duplicates_preserved(self, int_column):
        values, compressed = int_column
        picks = [3000, 5, 3000, 5]
        out = read_rows(compressed, picks)
        assert out.data.tolist() == [int(values[i]) for i in picks]

    def test_out_of_range_raises(self, int_column):
        _, compressed = int_column
        with pytest.raises(IndexError):
            read_rows(compressed, [3500])
        with pytest.raises(IndexError):
            read_rows(compressed, [-1])

    def test_empty_request(self, int_column):
        _, compressed = int_column
        assert len(read_rows(compressed, [])) == 0

    def test_string_rows(self, small_config):
        values = [f"row-{i % 13}" for i in range(2500)]
        compressed = compress_column(Column.strings("s", values), small_config)
        out = read_rows(compressed, [7, 1300, 2499])
        assert out.data.to_pylist() == [b"row-7", b"row-0", b"row-3"]

    def test_double_rows_bitwise(self, rng, small_config):
        values = np.round(rng.uniform(0, 10, 1500), 2)
        values[42] = np.nan
        compressed = compress_column(Column.doubles("d", values), small_config)
        out = read_rows(compressed, [42, 43])
        assert np.array_equal(
            np.asarray(out.data).view(np.uint64), values[[42, 43]].view(np.uint64)
        )

    def test_null_rows_flagged(self, rng, small_config):
        column = Column.ints("c", rng.integers(0, 5, 2000),
                             RoaringBitmap.from_positions([1500]))
        compressed = compress_column(column, small_config)
        out = read_rows(compressed, [10, 1500])
        assert out.nulls.to_array().tolist() == [1]


class TestReadRowsIntegrity:
    def test_flipped_payload_byte_raises_like_a_full_decode(self, rng):
        """A point read holds its block to the stored CRC32, as a full
        decode does, instead of returning the damaged value."""
        values = rng.integers(-(2**31), 2**31, 2000).astype(np.int32)
        config = BtrBlocksConfig(
            block_size=1000, allowed_schemes=frozenset({SchemeId.UNCOMPRESSED_INT})
        )
        compressed = column_from_bytes(
            column_to_bytes(compress_column(Column.ints("c", values), config))
        )
        block = compressed.blocks[0]
        assert block.root_scheme_name == "uncompressed"
        payload = bytearray(block.data)
        payload[-1] ^= 0x01  # the high byte of row 999
        block.data = bytes(payload)

        with pytest.raises(IntegrityError):
            decompress_column(compressed)
        with pytest.raises(IntegrityError):
            read_rows(compressed, [999])
        with pytest.raises(IntegrityError):
            read_value(compressed, 999)
        # The undamaged block still answers.
        assert read_rows(compressed, [1500]).data.tolist() == [values[1500]]


class TestReadValue:
    def test_scalar_types(self, small_config, rng):
        ints = compress_column(Column.ints("i", np.arange(1200)), small_config)
        assert read_value(ints, 1100) == 1100
        strings = compress_column(Column.strings("s", ["a", "b"] * 600), small_config)
        assert read_value(strings, 1) == b"b"

    def test_null_returns_none(self, small_config):
        column = Column.ints("c", np.zeros(100, dtype=np.int32),
                             RoaringBitmap.from_positions([50]))
        compressed = compress_column(column, small_config)
        assert read_value(compressed, 50) is None
        assert read_value(compressed, 51) == 0
