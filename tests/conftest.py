"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import BtrBlocksConfig
from repro.types import Column, StringArray


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def small_config() -> BtrBlocksConfig:
    """A config with a small block size so multi-block paths get exercised."""
    return BtrBlocksConfig(block_size=1000)


@pytest.fixture
def price_doubles(rng) -> np.ndarray:
    return np.round(rng.uniform(1.0, 1000.0, 5000), 2)


@pytest.fixture
def run_ints(rng) -> np.ndarray:
    return np.repeat(rng.integers(0, 50, 250), 20).astype(np.int32)[:5000]


@pytest.fixture
def city_strings() -> StringArray:
    cities = ["PHOENIX", "RALEIGH", "BETHESDA", "ATHENS", "OSLO"]
    return StringArray.from_pylist([cities[i % 5] for i in range(5000)])


@pytest.fixture
def url_strings() -> StringArray:
    return StringArray.from_pylist(
        [f"https://example.com/products/cat-{i % 40}/item?id={i}" for i in range(3000)]
    )


def make_string_column(values, name="s") -> Column:
    return Column.strings(name, values)


def scheme_round_trip(scheme, values, config=None, vectorized=True):
    """Compress values with one specific scheme and decompress them again.

    Children still go through normal cascading selection, exactly as they
    would when the selector picks this scheme for a block.
    """
    from repro.core.compressor import make_context as compression_context
    from repro.core.decompressor import make_context as decompression_context
    from repro.core.selector import SchemeSelector

    selector = SchemeSelector(config)
    ctx = compression_context(selector)
    payload = scheme.compress(values, ctx)
    out = scheme.decode(payload, len(values), decompression_context(vectorized))
    return payload, out
