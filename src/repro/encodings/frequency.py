"""Frequency encoding, adapted as in the paper (Section 2.2).

BtrBlocks' variant of DB2 BLU's frequency encoding optimises for columns with
one dominant value: it stores (1) the top value, (2) a Roaring bitmap marking
the positions holding the top value and (3) the exception values, which are
cascade-compressed.
"""

from __future__ import annotations

import numpy as np

from repro.bitmap import RoaringBitmap
from repro.encodings import strutil
from repro.encodings.base import (
    CompressionContext,
    DecompressionContext,
    Scheme,
    SchemeId,
    register_scheme,
)
from repro.encodings.wire import Reader, Writer
from repro.exceptions import CorruptBlockError
from repro.types import ColumnType, StringArray


class _FrequencyBase(Scheme):
    """Shared top-value/bitmap/exceptions logic for numeric types."""

    name = "frequency"
    selective = True

    def is_viable(self, stats, config) -> bool:
        if stats.count == 0 or stats.distinct_count <= 1:
            return False
        return stats.unique_fraction <= config.frequency_max_unique_fraction

    def _top_mask(self, values: np.ndarray) -> np.ndarray:
        """Boolean mask of positions holding the most frequent value."""
        if values.dtype == np.float64:
            keys = values.view(np.uint64)
        else:
            keys = values
        uniq, counts = np.unique(keys, return_counts=True)
        top = uniq[np.argmax(counts)]
        return keys == top

    def compress(self, values: np.ndarray, ctx: CompressionContext) -> bytes:
        values = np.asarray(values)
        mask = self._top_mask(values)
        top_value = values[mask][:1]
        exceptions = values[~mask]
        writer = Writer()
        writer.array(top_value)
        writer.blob(RoaringBitmap.from_bools(mask).serialize())
        writer.blob(ctx.compress_child(exceptions, self.ctype))
        return writer.getvalue()

    def decode(
        self, payload: bytes, count: int, ctx: DecompressionContext, sel=None, out=None
    ) -> np.ndarray:
        reader = Reader(payload)
        top_value = reader.array()
        bitmap = RoaringBitmap.deserialize(reader.blob())
        exc_blob = reader.blob()
        mask = bitmap.to_mask(count)
        if not ctx.vectorized:
            exceptions = ctx.decompress_child(exc_blob, self.ctype)
            values = np.empty(count, dtype=top_value.dtype)
            exc_pos = 0
            for i in range(count):
                if mask[i]:
                    values[i] = top_value[0]
                else:
                    values[i] = exceptions[exc_pos]
                    exc_pos += 1
            return values
        top_rows, exc_ranks = _split_selection(mask, sel)
        if out is None:
            out = np.empty(len(top_rows), dtype=top_value.dtype)
        out[top_rows] = top_value[0]
        if exc_ranks is None or exc_ranks.size:
            exceptions = ctx.decompress_child(exc_blob, self.ctype, sel=exc_ranks)
            if len(exceptions) != len(top_rows) - int(top_rows.sum()):
                raise CorruptBlockError("frequency exceptions do not match the bitmap")
            out[~top_rows] = exceptions
        return out


def _split_selection(mask: np.ndarray, sel: "np.ndarray | None"):
    """``(top_rows, exc_ranks)`` for a selection over a top-value ``mask``.

    ``top_rows`` flags which selected rows hold the top value. Each other
    selected row's rank among all exceptions is its row in the cascaded
    exceptions child, so the child decodes only ``exc_ranks``; ``None``
    means every exception (a full decode).
    """
    if sel is None:
        return mask, None
    top_rows = mask[sel]
    return top_rows, np.cumsum(~mask)[sel[~top_rows]] - 1


class FrequencyInt(_FrequencyBase):
    scheme_id = SchemeId.FREQUENCY_INT
    ctype = ColumnType.INTEGER


class FrequencyDouble(_FrequencyBase):
    scheme_id = SchemeId.FREQUENCY_DOUBLE
    ctype = ColumnType.DOUBLE


class FrequencyString(Scheme):
    """Frequency encoding for strings: top string + bitmap + exception pool."""

    scheme_id = SchemeId.FREQUENCY_STRING
    name = "frequency"
    ctype = ColumnType.STRING
    selective = True

    def is_viable(self, stats, config) -> bool:
        if stats.count == 0 or stats.distinct_count <= 1:
            return False
        return stats.unique_fraction <= config.frequency_max_unique_fraction

    def compress(self, values: StringArray, ctx: CompressionContext) -> bytes:
        codes, uniques = strutil.encode_distinct(values)
        counts = np.bincount(codes, minlength=len(uniques))
        top_code = int(np.argmax(counts))
        mask = codes == top_code
        exception_rows = np.nonzero(~mask)[0]
        exceptions = strutil.gather(values, exception_rows)
        writer = Writer()
        writer.blob(uniques[top_code])
        writer.blob(RoaringBitmap.from_bools(mask).serialize())
        writer.blob(ctx.compress_child(exceptions, ColumnType.STRING))
        return writer.getvalue()

    def decode(
        self, payload: bytes, count: int, ctx: DecompressionContext, sel=None, out=None
    ) -> StringArray:
        reader = Reader(payload)
        top = reader.blob()
        bitmap = RoaringBitmap.deserialize(reader.blob())
        exc_blob = reader.blob()
        top_rows, exc_ranks = _split_selection(bitmap.to_mask(count), sel)
        exceptions = ctx.decompress_child(exc_blob, ColumnType.STRING, sel=exc_ranks)
        # Treat [top] + exceptions as a pool and gather: code 0 is the top
        # value, exception i maps to pool row 1 + i.
        pool = strutil.concat([StringArray.from_pylist([top]), exceptions])
        codes = np.zeros(len(top_rows), dtype=np.int64)
        codes[~top_rows] = 1 + np.arange(len(exceptions), dtype=np.int64)
        if ctx.vectorized:
            return strutil.gather(pool, codes)
        return pool.take(codes)


register_scheme(FrequencyInt())
register_scheme(FrequencyDouble())
register_scheme(FrequencyString())
