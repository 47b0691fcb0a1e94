"""Block-parallel compression and decompression (thread + process backends).

The paper parallelises compression and decompression over blocks and columns
with TBB (Section 6, "Test setup"); blocks are independent by design, which
is one of the stated reasons for block-based compression (Section 2.2).
This module fans ``(column, block)`` tasks out to an execution backend:

* ``"thread"`` — one shared thread pool. NumPy kernels release the GIL for
  large operations, so both directions see some speedup under CPython, but
  the Python orchestration around each block stays serialised.
* ``"process"`` — the shared-memory process pool in :mod:`repro.procpool`.
  Workers decode directly into disjoint slices of one shared output buffer
  (no column bytes are pickled), which is what actually scales with cores.
* ``"auto"`` — process when it can pay for itself (pool available, at least
  two usable CPUs, and enough block tasks to amortise dispatch), thread
  otherwise.

Results are bit-identical to the sequential API (given equal seeds) on every
backend: each block task positions its selector with
:meth:`~repro.core.selector.SchemeSelector.begin_block`, which makes a
block's bytes a pure function of ``(column, block index, config, seed)`` —
never of scheduling order or of which pool ran it. Degenerate workloads (one
task, or ``max_workers=1``) skip the pools entirely and run inline.

A process worker that dies mid-call (kill -9, OOM) surfaces as the typed
:class:`~repro.exceptions.WorkerDiedError`. Compression always falls back to
the thread path — its inputs are untouched, so the retry is safe and
bit-identical. Decompression re-raises under ``on_corrupt="raise"`` (the
caller asked for fail-stop) and falls back otherwise. Either way: no hangs,
no torn columns, and the shared-memory segments are unlinked by the process
layer's ``finally`` blocks.
"""

from __future__ import annotations

from concurrent.futures import FIRST_EXCEPTION, Future, ThreadPoolExecutor, wait
from typing import Callable, Sequence, TypeVar

from repro.core.blocks import CompressedColumn, CompressedRelation
from repro.core.compressor import compress_column_block, iter_block_ranges
from repro.core.config import (
    DEFAULT_PROCESS_MIN_TASKS,
    PARALLEL_BACKENDS,
    BtrBlocksConfig,
    DecodeLimits,
)
from repro.core.decompressor import (
    assemble_column,
    decode_block,
    make_context,
    preallocate_column,
)
from repro.core.relation import Relation
from repro.core.selector import SchemeSelector, SelectionCache
from repro.exceptions import WorkerDiedError
from repro.observe import get_registry
from repro.types import Column, ColumnType

T = TypeVar("T")
R = TypeVar("R")


def collect_futures(futures: "Sequence[Future]") -> list:
    """Collect futures in submission order with deterministic errors.

    On failure, pending futures are cancelled, everything still running is
    drained (so no task can keep writing into shared buffers after this
    returns), and the error of the *lowest-index* task is raised — always the
    same exception for the same failing inputs, regardless of scheduling.
    """
    if not futures:
        return []
    done, pending = wait(futures, return_when=FIRST_EXCEPTION)
    if any(not f.cancelled() and f.exception() is not None for f in done):
        for future in pending:
            future.cancel()
    first_error: "BaseException | None" = None
    for future in futures:  # submission order; .exception() drains running tasks
        if future.cancelled():
            continue
        error = future.exception()
        if error is not None and first_error is None:
            first_error = error
    if first_error is not None:
        raise first_error
    return [future.result() for future in futures]


def _run_tasks(
    fn: Callable[[T], R], tasks: Sequence[T], max_workers: int | None
) -> list[R]:
    """Run tasks through one shared thread pool, preserving submission order.

    Degenerates to an inline loop when a pool cannot help: a single task, or
    an explicit ``max_workers=1``. The inline path runs the exact same task
    function, so metrics and output bytes are identical either way; inline
    runs are counted under ``parallel.inline_runs``. Errors follow
    :func:`collect_futures` discipline: outstanding tasks are cancelled or
    drained and the lowest-index failure is raised.
    """
    if max_workers == 1 or len(tasks) <= 1:
        get_registry().incr("parallel.inline_runs")
        return [fn(task) for task in tasks]
    with ThreadPoolExecutor(max_workers=max_workers) as pool:
        futures = [pool.submit(fn, task) for task in tasks]
        return collect_futures(futures)


def resolve_backend(
    backend: str | None,
    config: BtrBlocksConfig | None = None,
    task_count: int | None = None,
    max_workers: int | None = None,
) -> str:
    """Resolve a requested backend to the one that will actually run.

    ``None`` defers to ``config.parallel_backend`` (default ``"thread"``).
    ``"auto"`` picks the process pool only when it exists, at least two CPUs
    are usable, the worker count is not pinned to one, and the call carries
    enough block tasks to amortise shm setup and task pickling
    (``config.process_min_tasks``). An explicit ``"process"`` on a platform
    without multiprocessing quietly degrades to ``"thread"`` (counted under
    ``parallel.backend.fallbacks``) — callers never have to care.
    """
    from repro import procpool

    choice = backend if backend is not None else (
        config.parallel_backend if config is not None else "thread"
    )
    if choice not in PARALLEL_BACKENDS:
        raise ValueError(
            f"unknown parallel backend {choice!r}; expected one of {PARALLEL_BACKENDS}"
        )
    if choice == "auto":
        min_tasks = (
            config.process_min_tasks if config is not None else DEFAULT_PROCESS_MIN_TASKS
        )
        workers = max_workers if max_workers is not None else procpool.default_workers()
        if (
            procpool.available()
            and workers >= 2
            and (task_count is None or task_count >= min_tasks)
        ):
            return "process"
        return "thread"
    if choice == "process" and not procpool.available():
        get_registry().incr("parallel.backend.fallbacks")
        return "thread"
    return choice


def compress_relation_parallel(
    relation: Relation,
    config: BtrBlocksConfig | None = None,
    max_workers: int | None = None,
    backend: str | None = None,
) -> CompressedRelation:
    """Compress all blocks of all columns concurrently.

    Every ``(column, block)`` task builds a fresh, identically-seeded
    :class:`SchemeSelector`, so scheme choices are deterministic and workers
    share no mutable state. With sticky selection enabled, the tasks of one
    column share that column's :class:`SelectionCache` — thread-safe, but
    *shared and mutable*, so sticky runs always stay on the thread backend
    (counted under ``parallel.backend.sticky_fallbacks``). A process worker
    death falls back to the thread path: the input relation is untouched, so
    the retry is safe and produces the same bytes.
    """
    config = config or BtrBlocksConfig()
    tasks: list[tuple[int, int, int, int]] = []
    for col_idx, column in enumerate(relation.columns):
        for index, start, stop in iter_block_ranges(len(column), config.block_size):
            tasks.append((col_idx, index, start, stop))

    registry = get_registry()
    registry.incr("parallel.compress_runs")
    chosen = resolve_backend(backend, config, len(tasks), max_workers)
    if chosen == "process" and config.sticky_selection:
        registry.incr("parallel.backend.sticky_fallbacks")
        chosen = "thread"
    if chosen == "process" and (max_workers == 1 or len(tasks) <= 1):
        chosen = "thread"  # the inline path below is strictly cheaper
    registry.incr(f"parallel.backend.{chosen}.runs")
    if chosen == "process":
        from repro import procpool

        try:
            with registry.timer("compress.parallel"):
                return procpool.compress_relation_process(relation, config, max_workers)
        except WorkerDiedError:
            registry.incr("parallel.backend.fallbacks")

    caches: list[SelectionCache | None] = [
        SelectionCache(config) if config.sticky_selection else None
        for _ in relation.columns
    ]

    def worker(task: tuple[int, int, int, int]):
        col_idx, index, start, stop = task
        selector = SchemeSelector(config, cache=caches[col_idx])
        return compress_column_block(
            relation.columns[col_idx], index, start, stop, selector
        )

    with registry.timer("compress.parallel"):
        blocks = _run_tasks(worker, tasks, max_workers)
    columns = [CompressedColumn(c.name, c.ctype) for c in relation.columns]
    for (col_idx, _, _, _), block in zip(tasks, blocks):
        columns[col_idx].blocks.append(block)
    registry.incr("compress.columns", len(relation.columns))
    return CompressedRelation(relation.name, columns)


def decompress_relation_parallel(
    compressed: CompressedRelation,
    vectorized: bool = True,
    max_workers: int | None = None,
    on_corrupt: str = "raise",
    limits: DecodeLimits | None = None,
    backend: str | None = None,
    config: BtrBlocksConfig | None = None,
) -> Relation:
    """Decompress all blocks of all columns concurrently.

    The decompression context is stateless, so one instance is shared by
    every task. Numeric columns take the zero-copy path: each column's full
    array is preallocated up front and every block task decodes into its own
    disjoint slice, so workers never contend and reassembly is a metadata
    pass (:func:`assemble_column` over the filled array) instead of a
    concatenation. On the process backend that preallocated array lives in
    shared memory and workers are other processes — same layout, real
    cores. String columns keep per-block parts.

    ``on_corrupt`` applies the same checksum/degradation policy as the
    sequential API on every backend. It also decides the worker-death
    policy: under ``"raise"`` a killed process worker surfaces as
    :class:`WorkerDiedError` (fail-stop, as requested); under ``"skip"`` /
    ``"null_block"`` the call quietly reruns on the thread path from the
    untouched compressed input.
    """
    task_count = sum(len(column.blocks) for column in compressed.columns)
    registry = get_registry()
    registry.incr("parallel.decompress_runs")
    chosen = resolve_backend(backend, config, task_count, max_workers)
    if chosen == "process" and (max_workers == 1 or task_count <= 1):
        chosen = "thread"
    registry.incr(f"parallel.backend.{chosen}.runs")
    if chosen == "process":
        from repro import procpool

        try:
            with registry.timer("decompress.parallel"):
                return procpool.decompress_relation_process(
                    compressed,
                    vectorized=vectorized,
                    max_workers=max_workers,
                    on_corrupt=on_corrupt,
                    limits=limits,
                )
        except WorkerDiedError:
            if on_corrupt == "raise":
                raise
            registry.incr("parallel.backend.fallbacks")

    ctx = make_context(vectorized, limits=limits)
    buffers = [
        preallocate_column(column, ctx.limits) if column.ctype is not ColumnType.STRING else None
        for column in compressed.columns
    ]
    tasks: list[tuple[int, int, int]] = []
    for col_idx, column in enumerate(compressed.columns):
        offset = 0
        for block_idx, block in enumerate(column.blocks):
            tasks.append((col_idx, block_idx, offset))
            offset += block.count

    def worker(task: tuple[int, int, int]):
        col_idx, block_idx, start = task
        column = compressed.columns[col_idx]
        block = column.blocks[block_idx]
        buffer = buffers[col_idx]
        out = None if buffer is None else buffer[start : start + block.count]
        return decode_block(block, column.ctype, ctx, out=out, on_corrupt=on_corrupt)

    with registry.timer("decompress.parallel"):
        parts = _run_tasks(worker, tasks, max_workers)
    grouped: list[list] = [[] for _ in compressed.columns]
    for (col_idx, _, _), values in zip(tasks, parts):
        grouped[col_idx].append(values)
    columns = [
        assemble_column(column, column_parts, buffer)
        for column, buffer, column_parts in zip(compressed.columns, buffers, grouped)
    ]
    return Relation(compressed.name, columns)


def decompress_column_parallel(
    column: CompressedColumn,
    vectorized: bool = True,
    max_workers: int | None = None,
    on_corrupt: str = "raise",
    limits: DecodeLimits | None = None,
    backend: str | None = None,
    config: BtrBlocksConfig | None = None,
) -> Column:
    """Decompress one column through the backend machinery.

    The per-column entry point remote scans use when a process backend is
    configured: wraps the column in a single-column relation and reuses
    :func:`decompress_relation_parallel` (including its worker-death
    policy). Note this path does not consult the decoded-block cache — the
    cache's parent-side arrays cannot be handed to another process.
    """
    relation = decompress_relation_parallel(
        CompressedRelation(column.name, [column]),
        vectorized=vectorized,
        max_workers=max_workers,
        on_corrupt=on_corrupt,
        limits=limits,
        backend=backend,
        config=config,
    )
    return relation.columns[0]
