"""The one decode contract, checked for every scheme in the registry.

Every scheme decodes through one entry point, ``decode(payload, count, ctx,
sel=None, out=None)``, behind one node gate. Whatever kernel a scheme has
(or lacks), three properties must hold:

* a selection is a take: ``decode(x, sel) == take(decode(x), sel)``, bit
  for bit, for random sorted-unique selections;
* ``out=`` is a destination, not a different decode: the filled slot is
  bit-identical to a plain decode, and is what comes back;
* a slot or a selection that disagrees with the block's declared count is
  a typed error, raised before any scheme code runs.

The cases are parametrised over the live registry plus the two extension
schemes, so a newly registered scheme is checked without editing this file.
Each scheme is fed the first input shape it is viable on, and a scheme that
is viable on none of them fails rather than skips.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.blocks import CompressedBlock
from repro.core.compressor import make_context as compression_context
from repro.core.config import BtrBlocksConfig
from repro.core.decompressor import decode_block, make_context
from repro.core.selector import SchemeSelector
from repro.core.stats import compute_stats
from repro.encodings import base
from repro.encodings.base import all_schemes, take_values
from repro.encodings.extensions import DeltaZigZagInt, TruncationInt
from repro.encodings.wire import wrap
from repro.exceptions import CorruptBlockError, FormatError
from repro.types import ColumnType, StringArray

ROWS = 1000  # eight 128-value pages, so selections straddle page bounds
SEED = 20231


def _schemes() -> list:
    schemes = {scheme.scheme_id: scheme for scheme in all_schemes()}
    for extension in (TruncationInt(), DeltaZigZagInt()):
        schemes.setdefault(extension.scheme_id, extension)
    return [schemes[k] for k in sorted(schemes)]


SCHEMES = _schemes()
NUMERIC = [scheme for scheme in SCHEMES if scheme.ctype is not ColumnType.STRING]


def _ids(scheme) -> str:
    return f"{scheme.name}-{scheme.ctype.value}"


def _shapes(ctype: ColumnType) -> list:
    """Input shapes, richest first; each scheme takes the first it accepts."""
    rng = np.random.default_rng(SEED)
    skewed = np.where(rng.random(ROWS) < 0.9, 42, rng.integers(0, 10_000, ROWS))
    runs = np.repeat(rng.integers(0, 50, ROWS // 16 + 1), 16)[:ROWS]
    if ctype is ColumnType.INTEGER:
        return [
            skewed.astype(np.int32),
            runs.astype(np.int32),
            rng.integers(0, 1000, ROWS).astype(np.int32),
            np.full(ROWS, 7, dtype=np.int32),
        ]
    if ctype is ColumnType.DOUBLE:
        return [
            skewed / 4.0,
            runs / 8.0,
            np.round(rng.uniform(0, 10_000, ROWS), 2),
            np.full(ROWS, 2.5),
        ]
    words = [f"https://example.com/item/{int(x):08x}" for x in rng.integers(0, 2**31, ROWS)]
    return [
        StringArray.from_pylist([w if s != 42 else "top" for w, s in zip(words, skewed)]),
        StringArray.from_pylist([f"run-{int(x)}" for x in runs]),
        StringArray.from_pylist(words),
        StringArray.from_pylist(["same"] * ROWS),
    ]


def _values_for(scheme):
    config = BtrBlocksConfig()
    for values in _shapes(scheme.ctype):
        stats = compute_stats(values, scheme.ctype)
        scheme.prepare_stats(values, stats, config)
        if scheme.is_viable(stats, config):
            return values
    pytest.fail(f"{_ids(scheme)} is viable on none of the contract's input shapes")


@pytest.fixture
def encoded(request, monkeypatch):
    """``(scheme, values, block)``: a checksum-less block the scheme wrote.

    Extension schemes are registered for the test only, so the global pool
    other tests see stays the default one.
    """
    scheme = request.param
    monkeypatch.setitem(base._REGISTRY, scheme.scheme_id, scheme)
    values = _values_for(scheme)
    payload = scheme.compress(values, compression_context(SchemeSelector()))
    block = CompressedBlock(len(values), wrap(scheme.scheme_id, len(values), payload))
    return scheme, values, block


def _bits(ctype: ColumnType, values):
    if ctype is ColumnType.STRING:
        return values.to_pylist()
    array = np.asarray(values)
    assert array.dtype == (np.int32 if ctype is ColumnType.INTEGER else np.float64)
    return array.view(np.uint32 if ctype is ColumnType.INTEGER else np.uint64).tolist()


def _selections():
    rng = np.random.default_rng(SEED + 1)
    picks = [
        np.empty(0, dtype=np.int64),
        np.array([ROWS - 1]),
        np.array([0, 127, 128, 129, 511]),  # both sides of page bounds
        np.arange(ROWS),
    ]
    picks += [np.sort(rng.choice(ROWS, size=k, replace=False)) for k in (3, 50, 400)]
    return picks


@pytest.mark.parametrize("vectorized", [True, False], ids=["vectorized", "scalar"])
@pytest.mark.parametrize("encoded", SCHEMES, ids=_ids, indirect=True)
def test_selection_is_a_take(encoded, vectorized):
    scheme, values, block = encoded
    ctx = make_context(vectorized)
    full = decode_block(block, scheme.ctype, ctx)
    assert _bits(scheme.ctype, full) == _bits(scheme.ctype, values)
    for sel in _selections():
        got = decode_block(block, scheme.ctype, ctx, sel=sel)
        expected = take_values(full, sel)
        assert _bits(scheme.ctype, got) == _bits(scheme.ctype, expected), sel[:8]


@pytest.mark.parametrize("encoded", NUMERIC, ids=_ids, indirect=True)
def test_out_is_bit_identical_to_a_plain_decode(encoded):
    scheme, _values, block = encoded
    ctx = make_context()
    plain = decode_block(block, scheme.ctype, ctx)
    dtype = np.asarray(plain).dtype
    for sel in (None, *_selections()):
        expected = plain if sel is None else take_values(plain, sel)
        # Poisoned slot: every value must be overwritten by the decode.
        out = np.full(len(expected), 0x5A, dtype=dtype)
        got = decode_block(block, scheme.ctype, ctx, sel=sel, out=out)
        assert got is out
        assert _bits(scheme.ctype, out) == _bits(scheme.ctype, expected)


@pytest.mark.parametrize("encoded", SCHEMES, ids=_ids, indirect=True)
def test_disagreeing_slot_or_selection_is_a_typed_error(encoded):
    scheme, _values, block = encoded
    ctx = make_context()
    for bad in (np.array([0, ROWS]), np.array([-1, 3])):
        with pytest.raises(CorruptBlockError):
            decode_block(block, scheme.ctype, ctx, sel=bad)
    if scheme.ctype is ColumnType.STRING:
        return
    dtype = np.int32 if scheme.ctype is ColumnType.INTEGER else np.float64
    for rows in (ROWS - 1, ROWS + 1):
        with pytest.raises(FormatError):
            decode_block(block, scheme.ctype, ctx, out=np.empty(rows, dtype=dtype))
    with pytest.raises(FormatError):
        decode_block(block, scheme.ctype, ctx, sel=np.arange(4), out=np.empty(5, dtype=dtype))
    # Degrade policies answer a bad slot the same way they answer damage.
    result = decode_block(
        block, scheme.ctype, ctx, out=np.empty(ROWS + 1, dtype=dtype), on_corrupt="skip"
    )
    assert len(result) == 0
