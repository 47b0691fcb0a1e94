"""Host fingerprint and the reference kernels that gauge the host's speed.

A Python and a NumPy reference kernel are timed next to every timed
operation, set-up and commit, and the benchmark reports those timings at
the nominal host speed (:func:`at_nominal_speed`), so a slow phase of the
host does not read as a regression. ``numpy_ref_gb_s`` reports the NumPy
kernel's speed in every run, so a slower runner also shows next to the
metrics.
"""

from __future__ import annotations

import gc
import os
import platform
import statistics
import time

import numpy as np


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def load_average() -> "list[float]":
    try:
        return [round(v, 2) for v in os.getloadavg()]
    except OSError:
        return []


REF_REPEATS = 15

#: Seconds the Python and the NumPy reference kernels take at the nominal
#: host speed: their medians on a 2-vCPU Intel Xeon virtual machine.
REF_NOMINAL_SECONDS = (0.0048, 0.0008)
_REF_WORDS = tuple(f"w{i % 5000}-{i}" for i in range(20_000))
_REF_RNG = np.random.default_rng(12345)
_REF_POOL = _REF_RNG.integers(0, 1 << 40, 65_536, dtype=np.int64)
_REF_INDEX = _REF_RNG.integers(0, _REF_POOL.size, 100_000)
#: Preallocated outputs: an allocation of this size maps fresh pages, and
#: what that costs depends on the process's heap, not on the host's speed.
_REF_GATHERED = np.empty(_REF_INDEX.size, dtype=np.int64)
_REF_SUMS = np.empty(_REF_INDEX.size, dtype=np.int64)


def _python_kernel() -> None:
    """Dictionary updates, a sort and a sum over 20,000 short strings."""
    counts: "dict[str, int]" = {}
    for i, word in enumerate(_REF_WORDS):
        counts[word] = counts.get(word, 0) + i
    sum(len(word) for word in sorted(counts, key=len))


def _numpy_kernel() -> None:
    """Gather + prefix sum over 100,000 int64 values, the shape of
    dictionary decode."""
    np.take(_REF_POOL, _REF_INDEX, out=_REF_GATHERED)
    np.cumsum(_REF_GATHERED, out=_REF_SUMS)


def _timed(kernel) -> float:
    started = time.perf_counter()
    kernel()
    return time.perf_counter() - started


def reference_seconds() -> "tuple[float, float]":
    """Wall seconds of the Python and of the NumPy reference kernel.

    The garbage collector is off while they run, so the objects the library
    leaves alive do not change their cost. The NumPy kernel runs once
    untimed first, so what the last operation left in the CPU caches does
    not change its cost either. They call nothing in the library, so a
    change to the library cannot move them.
    """
    gc.disable()
    try:
        python = _timed(_python_kernel)
        _numpy_kernel()
        return python, _timed(_numpy_kernel)
    finally:
        gc.enable()


def at_nominal_speed(seconds: float, ref_before, ref_after, python_share: float) -> float:
    """``seconds`` of wall time, rescaled to the nominal host speed by the
    reference timings taken just before and just after it.

    The host's speed drifts by up to 2x over seconds to minutes, and the
    reference kernels slow with it, while a change to the library moves
    only ``seconds``. The drift slows interpreter-bound code more than NumPy
    kernels; ``python_share`` is the weight of the Python kernel in the
    slowdown, which matches how much the timed work follows each.
    """
    weights = (python_share, 1.0 - python_share)
    slowdown = sum(
        weight * (before + after) / (2 * nominal)
        for weight, before, after, nominal in zip(weights, ref_before, ref_after, REF_NOMINAL_SECONDS)
    )
    return seconds / slowdown


class NominalClock:
    """Wall time at the nominal host speed, in laps with the reference
    kernels timed at every lap boundary (and outside every lap)."""

    def __init__(self, python_share: float = 1.0) -> None:
        self.python_share = python_share
        self.total = 0.0
        self._ref = reference_seconds()
        self._started = time.perf_counter()

    def lap(self) -> float:
        """Nominal seconds since the last lap; they are added to ``total``."""
        seconds = time.perf_counter() - self._started
        ref = reference_seconds()
        nominal = at_nominal_speed(seconds, self._ref, ref, self.python_share)
        self._ref = ref
        self.total += nominal
        self._started = time.perf_counter()
        return nominal


def numpy_ref_gb_s() -> float:
    """GB/s of output of the NumPy reference kernel, median of
    ``REF_REPEATS`` timings."""
    timings = [_timed(_numpy_kernel) for _ in range(REF_REPEATS)]
    return _REF_INDEX.size * 8 / 1e9 / statistics.median(timings)


def fingerprint() -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "loadavg_start": load_average(),
    }
