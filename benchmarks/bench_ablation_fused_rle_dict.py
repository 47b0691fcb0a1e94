"""Ablation — fused RLE+Dictionary decompression (paper Section 5).

The scheme selector often RLE-compresses the code sequence of a dictionary;
BtrBlocks fuses the two decode steps (lookup run values first, replicate the
looked-up values) when the average run length exceeds 3, skipping the
intermediate code array. The paper reports +7% end-to-end on string columns
using RLE. This bench decodes the same compressed blocks with fusion on and
off and checks outputs are identical and the fused path is not slower on
run-heavy dictionary data.
"""

import time

import numpy as np
import pytest

from repro.core.compressor import compress_column
from repro.core.decompressor import decode_block, make_context
from repro.types import Column, ColumnType, StringArray, columns_equal


def _decompress_with(compressed, ctype, fuse: bool):
    ctx = make_context(vectorized=True, fuse_rle_dict=fuse)
    return [decode_block(block, ctype, ctx) for block in compressed.blocks]


def _run_column(column):
    compressed = compress_column(column)
    timings = {}
    outputs = {}
    for fuse in (True, False):
        best = float("inf")
        for _ in range(7):
            started = time.perf_counter()
            outputs[fuse] = _decompress_with(compressed, column.ctype, fuse)
            best = min(best, time.perf_counter() - started)
        timings[fuse] = best
    return compressed, timings, outputs


def test_ablation_fused_rle_dict_strings(benchmark):
    values = StringArray.from_pylist([
        name for name in ("ALPHABET", "BRAVOOO", "CHARLIE", "DELTAAA")
        for _ in range(4000)
    ])
    column = Column("s", ColumnType.STRING, values)

    def run():
        return _run_column(column)

    compressed, timings, outputs = benchmark.pedantic(run, rounds=1, iterations=1)
    for a, b in zip(outputs[True], outputs[False]):
        assert a == b
    print(f"\nFused {timings[True]*1000:.1f} ms vs unfused {timings[False]*1000:.1f} ms "
          f"({timings[False]/timings[True]:.2f}x)")
    # Fusion must never be a large regression on its target workload.
    assert timings[True] <= timings[False] * 1.35


def test_ablation_fused_rle_dict_integers(benchmark):
    rng = np.random.default_rng(3)
    values = np.repeat(rng.integers(0, 200, 1600), 160).astype(np.int32)
    column = Column.ints("i", values)

    def run():
        return _run_column(column)

    compressed, timings, outputs = benchmark.pedantic(run, rounds=1, iterations=1)
    for a, b in zip(outputs[True], outputs[False]):
        assert np.array_equal(a, b)
    assert timings[True] <= timings[False] * 1.35
