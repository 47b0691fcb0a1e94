"""Process-pool execution backend: shared-memory block tasks.

The thread pool in :mod:`repro.parallel` buys nothing on CPU-bound
NumPy-plus-Python block decode — the GIL serialises it. This module runs the
same per-``(column, block)`` work units in a pool of *processes* instead,
with column data carried in ``multiprocessing.shared_memory`` segments so no
column bytes are ever pickled:

* **Decompress** — the parent packs every block's compressed payload (data +
  NULL bitmap, both needed for CRC verification) into one input segment and
  sizes one output segment from the block headers (the same validated
  pre-allocation as :func:`~repro.core.decompressor.preallocate_column`).
  Each worker task rebuilds its :class:`~repro.core.blocks.CompressedBlock`
  from an input-segment slice and decodes straight into its disjoint
  output-segment slice via
  :func:`~repro.core.decompressor.decode_block`'s zero-copy ``out=``,
  retargeted at shared pages. Only tiny per-block results (``None`` /
  :class:`~repro.core.decompressor.CorruptBlockResult`) cross the pipe.
  String columns have variable-size outputs, so their decoded values are
  pickled back instead.

* **Compress** — the parent packs each column's raw values (and serialized
  NULL bitmap) into the input segment; each worker task slices its block
  range out of shared memory, rebuilds the chunk and runs the existing
  :func:`~repro.core.compressor.compress_chunk_block` with a fresh,
  identically-seeded selector — so compressed bytes are bit-identical to the
  sequential and thread paths. Compressed blocks are small by definition and
  pickle back, along with each worker's metrics snapshot and trace decisions
  for the parent to merge (counter parity with the other backends).

The pool itself is persistent: one :class:`ProcessPoolExecutor` (preferring
the ``fork`` start method) is kept warm and reused across calls
(``parallel.backend.process.pool_starts`` / ``pool_reuses``). A worker that
dies mid-task (kill -9, segfault, OOM) breaks the pool; that surfaces as the
typed :class:`~repro.exceptions.WorkerDiedError` after the broken pool is
discarded — callers in :mod:`repro.parallel` either re-raise it
(``on_corrupt="raise"``) or rerun the call on the thread/inline path from
the still-intact inputs. Shared-memory segments are unlinked in ``finally``
blocks, so success, failure and KeyboardInterrupt all leave ``/dev/shm``
clean (``parallel.shm.*`` counters account the lifecycle).
"""

from __future__ import annotations

import itertools
import multiprocessing as mp
import os
import signal
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from multiprocessing import shared_memory

import numpy as np

from repro.bitmap import RoaringBitmap
from repro.core.blocks import CompressedBlock, CompressedColumn, CompressedRelation
from repro.core.compressor import compress_chunk_block, iter_block_ranges
from repro.core.config import BtrBlocksConfig, DecodeLimits
from repro.core.decompressor import (
    _EMPTY_DTYPES,
    CorruptBlockResult,
    assemble_column,
    decode_block,
    make_context,
    preallocate_column,
)
from repro.core.relation import Relation
from repro.core.selector import SchemeSelector
from repro.exceptions import WorkerDiedError
from repro.observe import (
    MetricsRegistry,
    SelectionTrace,
    get_registry,
    get_trace,
    use_registry,
    use_trace,
)
from repro.types import Column, ColumnType, StringArray

__all__ = [
    "ProcessBlockDecoder",
    "available",
    "compress_relation_process",
    "decompress_relation_process",
    "default_workers",
    "shutdown_pool",
    "start_method",
]


# -- test hooks ----------------------------------------------------------------

#: When set to a stage name ("fetch-handoff" / "mid-decode" / "pre-assemble"),
#: the first worker task reaching that stage SIGKILLs its own process — the
#: worker-death matrix's injection point. Inherited by fork-started workers,
#: so tests must set it *before* the pool forks (shutdown_pool() first).
_TEST_KILL: "str | None" = None

#: When set to N, the parent raises KeyboardInterrupt after submitting N
#: tasks — the Ctrl-C leg of the segment-leak matrix.
_TEST_INTERRUPT_AFTER_SUBMITS: "int | None" = None


def _maybe_kill(stage: str) -> None:
    if _TEST_KILL == stage:
        os.kill(os.getpid(), signal.SIGKILL)


def _maybe_interrupt(submitted: int) -> None:
    if _TEST_INTERRUPT_AFTER_SUBMITS is not None and submitted >= _TEST_INTERRUPT_AFTER_SUBMITS:
        raise KeyboardInterrupt("injected interrupt (test hook)")


# -- shared-memory segments ----------------------------------------------------

_SEGMENT_COUNTER = itertools.count()
#: Names of segments this process created and has not yet unlinked — the
#: leak-check surface for tests (must be empty after every call).
_ACTIVE_SEGMENTS: "set[str]" = set()


def _create_segment(nbytes: int) -> shared_memory.SharedMemory:
    """Create one named segment, counted under ``parallel.shm.*``."""
    while True:
        name = f"btrb-{os.getpid()}-{next(_SEGMENT_COUNTER)}"
        try:
            seg = shared_memory.SharedMemory(name=name, create=True, size=max(1, nbytes))
            break
        except FileExistsError:  # stale segment from a recycled pid
            continue
    _ACTIVE_SEGMENTS.add(seg.name)
    get_registry().incr_many(
        [("parallel.shm.segments", 1), ("parallel.shm.bytes", max(1, nbytes))]
    )
    return seg


def _release_segment(seg: shared_memory.SharedMemory) -> None:
    """Close + unlink, tolerating both double-release and exported views.

    Unlink is the anti-leak operation (it removes the ``/dev/shm`` entry);
    a close that fails because some NumPy view is still alive only delays
    unmapping until garbage collection and must not mask the unlink.
    """
    try:
        seg.close()
    except BufferError:
        pass
    try:
        seg.unlink()
    except FileNotFoundError:
        pass
    if seg.name in _ACTIVE_SEGMENTS:
        _ACTIVE_SEGMENTS.discard(seg.name)
        get_registry().incr("parallel.shm.unlinked")


_worker_tracking_off = False


def _disable_worker_shm_tracking() -> None:
    """Stop this *worker* process registering attached segments.

    Python < 3.13 registers even attachments with the resource tracker
    (``SharedMemory(track=False)`` only exists from 3.13). Under ``fork``
    the tracker process is shared with the parent, so a worker-side
    register/unregister pair would tamper with the parent's own
    registration and the parent's eventual unlink would be double-counted.
    The parent owns every segment's lifecycle, so workers simply skip
    shared-memory tracking; other resource types are untouched.
    """
    global _worker_tracking_off
    if _worker_tracking_off:
        return
    from multiprocessing import resource_tracker

    original = resource_tracker.register

    def register(name: str, rtype: str) -> None:
        if rtype != "shared_memory":
            original(name, rtype)

    resource_tracker.register = register
    _worker_tracking_off = True


def _attach_segment(name: str) -> shared_memory.SharedMemory:
    """Worker-side attach to a parent-owned segment (untracked)."""
    _disable_worker_shm_tracking()
    return shared_memory.SharedMemory(name=name)


def _close_quiet(seg: shared_memory.SharedMemory) -> None:
    try:
        seg.close()
    except BufferError:  # a transient view still alive; freed with the worker
        pass


def _align(offset: int, alignment: int = 8) -> int:
    return (offset + alignment - 1) & ~(alignment - 1)


# -- the persistent pool -------------------------------------------------------

_pool: "ProcessPoolExecutor | None" = None
_pool_workers = 0


def start_method() -> "str | None":
    """The multiprocessing start method the pool uses (prefer ``fork``)."""
    methods = mp.get_all_start_methods()
    if "fork" in methods:
        return "fork"
    return methods[0] if methods else None


def available() -> bool:
    """Whether a process pool can run on this platform at all."""
    return start_method() is not None


def default_workers() -> int:
    """Usable CPUs: scheduling affinity when the platform exposes it."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def get_pool(max_workers: "int | None" = None) -> ProcessPoolExecutor:
    """The shared pool, started lazily and kept warm across calls.

    A pool is reused while the requested worker count matches; asking for a
    different count (or a prior worker death) starts a fresh one.
    """
    global _pool, _pool_workers
    workers = max_workers or default_workers()
    if _pool is not None and _pool_workers == workers:
        get_registry().incr("parallel.backend.process.pool_reuses")
        return _pool
    shutdown_pool()
    method = start_method()
    if method is None:
        raise WorkerDiedError("no multiprocessing start method available")
    _pool = ProcessPoolExecutor(max_workers=workers, mp_context=mp.get_context(method))
    _pool_workers = workers
    get_registry().incr("parallel.backend.process.pool_starts")
    return _pool


def shutdown_pool() -> None:
    """Discard the shared pool (worker death, tests, worker-count change)."""
    global _pool, _pool_workers
    if _pool is not None:
        pool, _pool, _pool_workers = _pool, None, 0
        pool.shutdown(wait=True, cancel_futures=True)


def _dispatch(fn, job, tasks, max_workers: "int | None") -> list:
    """Submit all tasks to the pool and collect results deterministically.

    Shares :func:`repro.parallel.collect_futures`' error discipline — on
    failure every outstanding future is cancelled or drained and the error
    of the *lowest-index* task is raised — and maps a broken pool (worker
    killed mid-task) to the typed :class:`WorkerDiedError` after discarding
    the pool so the next call starts clean.
    """
    from repro.parallel import collect_futures

    registry = get_registry()
    try:
        pool = get_pool(max_workers)
        futures = []
        for task in tasks:
            futures.append(pool.submit(fn, job, task))
            _maybe_interrupt(len(futures))
        registry.incr("parallel.backend.process.tasks", len(futures))
        return collect_futures(futures)
    except BrokenProcessPool as exc:
        shutdown_pool()
        registry.incr("parallel.backend.process.worker_deaths")
        raise WorkerDiedError(
            "a process-pool worker died mid-task; pool discarded"
        ) from exc


# -- decompression -------------------------------------------------------------

def _decode_task(job, task):
    """Worker: decode one block from the input segment into its output slice.

    Returns ``(index, part)`` where ``part`` is ``None`` (success, rows are
    in the output segment), a :class:`CorruptBlockResult` (degraded), or the
    decoded values themselves for pickled-return (string) tasks.
    Typed decode errors propagate through the future unchanged, so error
    behaviour matches the thread backend exactly.
    """
    in_name, out_name, ctypes, vectorized, on_corrupt, limits = job
    index, col_idx, data_off, data_len, nulls_off, nulls_len, count, checksum, out_off = task
    seg_in = _attach_segment(in_name)
    try:
        _maybe_kill("fetch-handoff")
        data = bytes(seg_in.buf[data_off : data_off + data_len])
        nulls = bytes(seg_in.buf[nulls_off : nulls_off + nulls_len]) if nulls_len else None
    finally:
        _close_quiet(seg_in)
    block = CompressedBlock(count, data, nulls, checksum=checksum)
    ctype = ctypes[col_idx]
    ctx = make_context(vectorized, limits=limits)
    _maybe_kill("mid-decode")
    seg_out = None if out_off is None else _attach_segment(out_name)
    try:
        out = None
        if seg_out is not None:
            out = np.ndarray(
                (count,), dtype=_EMPTY_DTYPES[ctype], buffer=seg_out.buf, offset=out_off
            )
        part = decode_block(block, ctype, ctx, out=out, on_corrupt=on_corrupt)
        if out is not None and not isinstance(part, CorruptBlockResult):
            part = None  # the rows are in the output segment
        del out
    finally:
        if seg_out is not None:
            _close_quiet(seg_out)
    _maybe_kill("pre-assemble")
    return index, part


def decompress_relation_process(
    compressed: CompressedRelation,
    vectorized: bool = True,
    max_workers: "int | None" = None,
    on_corrupt: str = "raise",
    limits: "DecodeLimits | None" = None,
) -> Relation:
    """Decompress a relation on the process pool (see module docstring).

    Raises :class:`WorkerDiedError` when a worker is killed mid-call; the
    caller (:func:`repro.parallel.decompress_relation_parallel`) owns the
    raise-vs-fallback policy. Bit-identical output and identical
    ``decompress.*`` counters to the sequential and thread paths — per-column
    totals are recorded once by the parent-side assembly, exactly as there.
    """
    columns = compressed.columns
    prealloc = [column.ctype is not ColumnType.STRING for column in columns]
    in_total = 0
    for column in columns:
        for block in column.blocks:
            in_total = _align(in_total + len(block.data)) + (
                _align(len(block.nulls)) if block.nulls else 0
            )
    dtypes = [_EMPTY_DTYPES.get(column.ctype) for column in columns]
    out_offs: "list[int | None]" = []
    out_total = 0
    for column, use, dtype in zip(columns, prealloc, dtypes):
        if not use:
            out_offs.append(None)
            continue
        out_offs.append(out_total)
        rows = sum(block.count for block in column.blocks)
        out_total = _align(out_total + rows * np.dtype(dtype).itemsize)

    seg_in = _create_segment(in_total)
    seg_out = _create_segment(out_total)
    views: "list[np.ndarray | None]" = []

    # The body runs in a nested function so that every local referencing the
    # shared buffers (views, assembly temporaries) is gone by the time the
    # ``finally`` closes and unlinks the segments.
    def run() -> Relation:
        ctx = make_context(vectorized, limits=limits)
        tasks = []
        in_off = 0
        buf = seg_in.buf
        for col_idx, column in enumerate(columns):
            if prealloc[col_idx]:
                views.append(
                    preallocate_column(
                        column,
                        ctx.limits,
                        buffer=memoryview(seg_out.buf)[out_offs[col_idx] :],
                    )
                )
            else:
                views.append(None)
            itemsize = np.dtype(dtypes[col_idx]).itemsize if prealloc[col_idx] else 0
            row_off = 0
            for block in column.blocks:
                data_off = in_off
                buf[in_off : in_off + len(block.data)] = block.data
                in_off = _align(in_off + len(block.data))
                nulls_off = nulls_len = 0
                if block.nulls:
                    nulls_off, nulls_len = in_off, len(block.nulls)
                    buf[in_off : in_off + nulls_len] = block.nulls
                    in_off = _align(in_off + nulls_len)
                out_off = (
                    out_offs[col_idx] + row_off * itemsize if prealloc[col_idx] else None
                )
                tasks.append(
                    (
                        len(tasks),
                        col_idx,
                        data_off,
                        len(block.data),
                        nulls_off,
                        nulls_len,
                        block.count,
                        block.checksum,
                        out_off,
                    )
                )
                row_off += block.count
        job = (
            seg_in.name,
            seg_out.name,
            [column.ctype for column in columns],
            vectorized,
            on_corrupt,
            limits,
        )
        results = _dispatch(_decode_task, job, tasks, max_workers)
        grouped: "list[list]" = [[] for _ in columns]
        for (task, result) in zip(tasks, results):
            grouped[task[1]].append(result[1])
        out_columns = []
        for column, view, parts in zip(columns, views, grouped):
            assembled = assemble_column(column, parts, view)
            data = assembled.data
            if isinstance(data, np.ndarray) and not data.flags.owndata:
                # Still a view over the output segment — copy out before the
                # segment is unlinked (one memcpy per column).
                assembled = Column(
                    assembled.name, assembled.ctype, data.copy(), assembled.nulls
                )
            out_columns.append(assembled)
        return Relation(compressed.name, out_columns)

    try:
        return run()
    finally:
        views.clear()
        _release_segment(seg_in)
        _release_segment(seg_out)


# -- compression ---------------------------------------------------------------

def _compress_task(job, task):
    """Worker: rebuild one block chunk from shared memory and compress it.

    Runs under a fresh registry + trace and ships their contents back with
    the block, so the parent can merge them — counter and trace totals then
    match the thread backend, where workers record into the shared registry
    directly.
    """
    seg_name, config, descs = job
    index, col_idx, block_index, start, stop = task
    name, ctype, rows, data_off, aux_off, nulls_off, nulls_len = descs[col_idx]
    seg = _attach_segment(seg_name)
    try:
        _maybe_kill("fetch-handoff")
        if ctype is ColumnType.STRING:
            offsets_full = np.frombuffer(
                seg.buf, dtype=np.int64, count=rows + 1, offset=aux_off
            )
            base = int(offsets_full[start])
            sub_offsets = offsets_full[start : stop + 1] - base  # copies
            str_bytes = int(offsets_full[stop]) - base
            buffer = np.frombuffer(
                seg.buf, dtype=np.uint8, count=str_bytes, offset=data_off + base
            ).copy()
            del offsets_full
            values: "np.ndarray | StringArray" = StringArray(buffer, sub_offsets)
        else:
            dtype = _EMPTY_DTYPES[ctype]
            values = np.frombuffer(
                seg.buf,
                dtype=dtype,
                count=stop - start,
                offset=data_off + start * np.dtype(dtype).itemsize,
            ).copy()
        nulls = None
        if nulls_len:
            positions = RoaringBitmap.deserialize(
                bytes(seg.buf[nulls_off : nulls_off + nulls_len])
            ).to_array()
            inside = positions[(positions >= start) & (positions < stop)]
            if inside.size:
                nulls = RoaringBitmap.from_positions(inside - start)
    finally:
        _close_quiet(seg)
    chunk = Column(name, ctype, values, nulls)
    registry = MetricsRegistry()
    trace = SelectionTrace()
    with use_registry(registry), use_trace(trace):
        _maybe_kill("mid-decode")
        selector = SchemeSelector(config)
        block = compress_chunk_block(chunk, block_index, selector)
    _maybe_kill("pre-assemble")
    return index, block, registry.snapshot(), trace.decisions()


def compress_relation_process(
    relation: Relation,
    config: "BtrBlocksConfig | None" = None,
    max_workers: "int | None" = None,
) -> CompressedRelation:
    """Compress a relation on the process pool (see module docstring).

    Every block task builds a fresh, identically-seeded selector from the
    pickled config, exactly like the thread path — compressed bytes are a
    pure function of ``(column, block index, config, seed)``, so output is
    bit-identical across backends. Raises :class:`WorkerDiedError` on a
    killed worker; :func:`repro.parallel.compress_relation_parallel` falls
    back to the thread path (inputs are untouched, nothing is torn).
    """
    config = config or BtrBlocksConfig()
    total = 0
    layouts = []
    for column in relation.columns:
        nulls_bytes = column.nulls.serialize() if column.nulls is not None else b""
        if column.ctype is ColumnType.STRING:
            data_nbytes = int(column.data.buffer.nbytes)
            aux_nbytes = int(column.data.offsets.nbytes)
        else:
            data_nbytes = int(column.data.nbytes)
            aux_nbytes = 0
        data_off = total
        total = _align(total + data_nbytes)
        aux_off = total
        total = _align(total + aux_nbytes)
        nulls_off = total
        total = _align(total + len(nulls_bytes))
        layouts.append((data_off, aux_off, nulls_off, nulls_bytes))

    registry = get_registry()
    seg = _create_segment(total)
    try:
        descs = []
        for column, (data_off, aux_off, nulls_off, nulls_bytes) in zip(
            relation.columns, layouts
        ):
            if column.ctype is ColumnType.STRING:
                buffer, offsets = column.data.buffer, column.data.offsets
                np.frombuffer(
                    seg.buf, dtype=np.uint8, count=buffer.size, offset=data_off
                )[:] = buffer
                np.frombuffer(
                    seg.buf, dtype=np.int64, count=offsets.size, offset=aux_off
                )[:] = offsets
            else:
                np.frombuffer(
                    seg.buf, dtype=column.data.dtype, count=len(column), offset=data_off
                )[:] = column.data
            if nulls_bytes:
                seg.buf[nulls_off : nulls_off + len(nulls_bytes)] = nulls_bytes
            descs.append(
                (
                    column.name,
                    column.ctype,
                    len(column),
                    data_off,
                    aux_off,
                    nulls_off,
                    len(nulls_bytes),
                )
            )
        tasks = []
        for col_idx, column in enumerate(relation.columns):
            for block_index, start, stop in iter_block_ranges(
                len(column), config.block_size
            ):
                tasks.append((len(tasks), col_idx, block_index, start, stop))
        job = (seg.name, config, descs)
        results = _dispatch(_compress_task, job, tasks, max_workers)
    finally:
        _release_segment(seg)

    trace = get_trace()
    columns = [CompressedColumn(c.name, c.ctype) for c in relation.columns]
    for task, (_, block, snapshot, decisions) in zip(tasks, results):
        columns[task[1]].blocks.append(block)
        registry.merge_snapshot(snapshot)
        for decision in decisions:
            trace.record(decision)
    registry.incr("compress.columns", len(relation.columns))
    return CompressedRelation(relation.name, columns)


# -- streaming decode for pipelined scans --------------------------------------

class ProcessBlockDecoder:
    """Streams block decode tasks into the process pool for pipelined scans.

    :func:`~repro.cloud.pipeline.pipelined_fetch_column` parses blocks as
    their chunk GETs complete; with a decoder attached, each parsed block's
    bytes are copied straight into the input segment and its decode task
    submitted immediately — fetch, parse and multi-core decode all overlap.
    ``drain()`` collects results in block order (strict decode: typed errors
    propagate). The caller owns the final assembly over :meth:`buffer_view`
    and must :meth:`close` in a ``finally`` so the segments always unlink.
    """

    def __init__(
        self,
        input_bytes: int,
        rows: int,
        ctype: ColumnType,
        vectorized: bool = True,
        limits: "DecodeLimits | None" = None,
        max_workers: "int | None" = None,
    ) -> None:
        self._dtype = np.dtype(_EMPTY_DTYPES[ctype])
        self._rows = rows
        self._seg_in = _create_segment(input_bytes)
        self._seg_out = _create_segment(rows * self._dtype.itemsize)
        self._job = (
            self._seg_in.name,
            self._seg_out.name,
            [ctype],
            vectorized,
            "raise",
            limits,
        )
        self._max_workers = max_workers
        self._in_off = 0
        self._futures: list = []
        self._closed = False

    def view(self, row_offset: int, count: int) -> np.ndarray:
        """A parent-side array view of one block's output slice.

        Transient: callers must drop the reference before :meth:`close`.
        """
        return np.ndarray(
            (count,),
            dtype=self._dtype,
            buffer=self._seg_out.buf,
            offset=row_offset * self._dtype.itemsize,
        )

    def submit(self, block: CompressedBlock, row_offset: int) -> None:
        """Copy one block's bytes into shared memory and queue its decode."""
        need = _align(len(block.data)) + _align(len(block.nulls) if block.nulls else 0)
        if self._in_off + need > self._seg_in.size:
            # Should not happen (the segment is sized past the whole object)
            # but degrade exactly like a worker death: the caller redecodes
            # in-process from the intact block bytes.
            raise WorkerDiedError("process decoder input segment exhausted")
        data_off = self._in_off
        end = data_off + len(block.data)
        self._seg_in.buf[data_off:end] = block.data
        self._in_off = _align(end)
        nulls_off = nulls_len = 0
        if block.nulls:
            nulls_off, nulls_len = self._in_off, len(block.nulls)
            self._seg_in.buf[nulls_off : nulls_off + nulls_len] = block.nulls
            self._in_off = _align(nulls_off + nulls_len)
        task = (
            len(self._futures),
            0,
            data_off,
            len(block.data),
            nulls_off,
            nulls_len,
            block.count,
            block.checksum,
            row_offset * self._dtype.itemsize,
        )
        try:
            pool = get_pool(self._max_workers)
            self._futures.append(pool.submit(_decode_task, self._job, task))
        except BrokenProcessPool as exc:
            shutdown_pool()
            get_registry().incr("parallel.backend.process.worker_deaths")
            raise WorkerDiedError(
                "a process-pool worker died mid-task; pool discarded"
            ) from exc
        get_registry().incr("parallel.backend.process.tasks")

    def drain(self) -> None:
        """Wait for every submitted decode; deterministic error order."""
        from repro.parallel import collect_futures

        try:
            collect_futures(self._futures)
        except BrokenProcessPool as exc:
            shutdown_pool()
            get_registry().incr("parallel.backend.process.worker_deaths")
            raise WorkerDiedError(
                "a process-pool worker died mid-task; pool discarded"
            ) from exc
        finally:
            self._futures = []

    def buffer_view(self) -> np.ndarray:
        """The whole output column as a shared-memory-backed array view."""
        return np.ndarray((self._rows,), dtype=self._dtype, buffer=self._seg_out.buf)

    def close(self) -> None:
        """Unlink both segments (idempotent; call from ``finally``)."""
        if self._closed:
            return
        self._closed = True
        for future in self._futures:
            future.cancel()
        self._futures = []
        _release_segment(self._seg_in)
        _release_segment(self._seg_out)
