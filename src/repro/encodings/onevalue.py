"""One Value encoding — a whole block holding a single distinct value.

The paper calls this a specialization of RLE for columns with one unique
value per block (Section 2.2); Table 4's ``RealEstate1/New Build?`` column
(all zeros) compresses 13,055x with it.
"""

from __future__ import annotations

import numpy as np

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


class OneValueInt(Scheme):
    scheme_id = SchemeId.ONE_VALUE_INT
    name = "one_value"
    ctype = ColumnType.INTEGER
    selective = True

    def is_viable(self, stats, config) -> bool:
        return stats.count > 0 and stats.distinct_count == 1

    def compress(self, values: np.ndarray, ctx: CompressionContext) -> bytes:
        return Writer().i64(int(values[0])).getvalue()

    def decode(
        self, payload: bytes, count: int, ctx: DecompressionContext, sel=None, out=None
    ) -> np.ndarray:
        value = Reader(payload).i64()
        if out is None:
            return np.full(_wanted(count, sel), value, dtype=np.int32)
        out.fill(np.int32(value))
        return out

    def header_bounds(
        self, payload: bytes, count: int, ctx: DecompressionContext
    ) -> "tuple[int, int] | None":
        try:
            value = int(np.int32(Reader(payload).i64()))
        except Exception:
            return None
        return value, value


class OneValueDouble(Scheme):
    scheme_id = SchemeId.ONE_VALUE_DOUBLE
    name = "one_value"
    ctype = ColumnType.DOUBLE
    selective = True

    def is_viable(self, stats, config) -> bool:
        return stats.count > 0 and stats.distinct_count == 1

    def compress(self, values: np.ndarray, ctx: CompressionContext) -> bytes:
        # Store the exact bit pattern so NaN payloads and -0.0 round-trip.
        return Writer().array(np.asarray(values[:1], dtype=np.float64)).getvalue()

    def decode(
        self, payload: bytes, count: int, ctx: DecompressionContext, sel=None, out=None
    ) -> np.ndarray:
        value = Reader(payload).array()
        if value.size != 1:
            raise CorruptBlockError(
                f"one_value payload holds {value.size} values, expected 1"
            )
        if out is None:
            return np.repeat(value, _wanted(count, sel))
        out.fill(value[0])
        return out

    def header_bounds(
        self, payload: bytes, count: int, ctx: DecompressionContext
    ) -> "tuple[float, float] | None":
        try:
            value = Reader(payload).array()
        except Exception:
            return None
        if value.size != 1 or value.dtype != np.float64 or np.isnan(value[0]):
            return None
        v = float(value[0])
        return v, v


class OneValueString(Scheme):
    scheme_id = SchemeId.ONE_VALUE_STRING
    name = "one_value"
    ctype = ColumnType.STRING
    selective = True

    def is_viable(self, stats, config) -> bool:
        return stats.count > 0 and stats.distinct_count == 1

    def compress(self, values: StringArray, ctx: CompressionContext) -> bytes:
        return Writer().blob(values[0]).getvalue()

    def decode(
        self, payload: bytes, count: int, ctx: DecompressionContext, sel=None, out=None
    ) -> StringArray:
        value = Reader(payload).blob()
        n = _wanted(count, sel)
        buffer = np.frombuffer(value * n, dtype=np.uint8)
        offsets = np.arange(n + 1, dtype=np.int64) * len(value)
        return StringArray(buffer, offsets)


def _wanted(count: int, sel: "np.ndarray | None") -> int:
    """How many values a decode with selection ``sel`` returns."""
    return count if sel is None else len(sel)


register_scheme(OneValueInt())
register_scheme(OneValueDouble())
register_scheme(OneValueString())
