"""Micro-benchmarks: per-scheme compress/decompress throughput.

Not a paper figure — the per-kernel numbers engineers check when touching a
scheme. Each scheme runs on a favourable 64k-value block (the distribution
it exists for), isolated from selection and cascading noise; children use
the default pool.

Paper context: Figure 4 reports One Value as the fastest decoder (8.9-11.8
GB/s in C++) and dictionary string decode at ~19.6 GB/s; the assertions
here only check the *internal* ordering that design relies on (One Value
fastest; everything faster than FSST's byte-level work).
"""

import time

import numpy as np
import pytest

from repro.core.compressor import make_context
from repro.core.decompressor import make_context as decode_context
from repro.core.selector import SchemeSelector
from repro.encodings.base import SchemeId, get_scheme
from repro.types import ColumnType, StringArray

N = 64_000


def _workloads(rng):
    cities = ["PHOENIX", "RALEIGH", "BETHESDA", "ATHENS", "OSLO"]
    return {
        SchemeId.ONE_VALUE_INT: np.zeros(N, dtype=np.int32),
        SchemeId.RLE_INT: np.repeat(rng.integers(0, 50, N // 100), 100).astype(np.int32)[:N],
        SchemeId.DICT_INT: np.array([3, 10**6, 77_000_005, 2 * 10**9 - 1], dtype=np.int64)[
            rng.integers(0, 4, N)
        ].astype(np.int32),
        SchemeId.FAST_BP128: (rng.integers(0, 500, N) + 10**6).astype(np.int32),
        SchemeId.FAST_PFOR: np.where(
            rng.random(N) < 0.01, 2**29, rng.integers(0, 64, N)
        ).astype(np.int32),
        SchemeId.FREQUENCY_DOUBLE: np.where(
            rng.random(N) < 0.8, 0.0, rng.standard_normal(N)
        ),
        SchemeId.PSEUDODECIMAL: np.round(rng.uniform(0, 1000, N), 2),
        SchemeId.DICT_STRING: StringArray.from_pylist(
            [cities[i] for i in rng.integers(0, 5, N)]
        ),
        SchemeId.FSST: StringArray.from_pylist(
            [f"https://example.com/item?id={i}&ref=home" for i in range(N)]
        ),
    }


@pytest.fixture(scope="module")
def measurements():
    rng = np.random.default_rng(23)
    rows = []
    for scheme_id, values in _workloads(rng).items():
        scheme = get_scheme(scheme_id)
        ctx = make_context(SchemeSelector())
        nbytes = values.nbytes if hasattr(values, "nbytes") else values.nbytes
        started = time.perf_counter()
        payload = scheme.compress(values, ctx)
        compress_seconds = time.perf_counter() - started
        decode_ctx = decode_context()
        best = float("inf")
        for _ in range(3):
            started = time.perf_counter()
            out = scheme.decode(payload, len(values), decode_ctx)
            best = min(best, time.perf_counter() - started)
        rows.append({
            "scheme": f"{scheme.name}[{scheme.ctype.value}]",
            "ratio": nbytes / len(payload),
            "compress_mb_s": nbytes / compress_seconds / 1e6,
            "decompress_mb_s": nbytes / best / 1e6,
        })
    return rows


def test_micro_scheme_throughput(benchmark, measurements):
    benchmark.pedantic(lambda: measurements, rounds=1, iterations=1)
    from _harness import print_table

    print_table(
        "Per-scheme micro-benchmarks (64k favourable blocks)",
        ["Scheme", "Ratio", "Compress [MB/s]", "Decompress [MB/s]"],
        [[r["scheme"], r["ratio"], r["compress_mb_s"], r["decompress_mb_s"]] for r in measurements],
    )
    speed = {r["scheme"]: r["decompress_mb_s"] for r in measurements}
    # One Value must be the fastest decoder (paper Figure 4's observation).
    assert speed["one_value[integer]"] == max(speed.values())
    # FSST's byte-level decode is the most expensive string path.
    assert speed["fsst[string]"] < speed["dictionary[string]"]
    # Every scheme beat raw storage on its favourable distribution.
    assert all(r["ratio"] > 1.0 for r in measurements)
