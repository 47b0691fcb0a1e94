"""Block, column and relation decompression.

Decompression mirrors the cascade in reverse: every node stores the scheme it
cascaded into, so decoding is a recursive dispatch over scheme ids (paper
Section 3.2). The ``vectorized`` flag selects between the NumPy kernels and
the pure-Python scalar fallbacks used for the Section 6.8 ablation.

Blocks read from checksummed (v2) column files are verified against their
stored CRC32 before decoding. A damaged block is handled per the
``on_corrupt`` policy (:class:`~repro.core.config.BtrBlocksConfig`):

* ``"raise"`` (default) — a typed :class:`~repro.exceptions.IntegrityError`;
* ``"skip"`` — the block's rows are dropped from the reassembled column;
* ``"null_block"`` — the block contributes its declared row count, every
  row NULL, so row alignment with sibling columns survives.

Both degrade modes also catch blocks whose payload fails to *parse* (the
only corruption signal v1 files can give) and record
``decompress.corrupt_blocks`` / ``decompress.corrupt_rows`` counters.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.bitmap import RoaringBitmap
from repro.core.blocks import CompressedBlock, CompressedColumn, CompressedRelation
from repro.core.config import DecodeLimits
from repro.core.file_format import verify_block
from repro.core.relation import Relation
from repro.encodings import strutil
from repro.encodings.base import (
    DecompressionContext,
    Values,
    get_scheme,
    take_values,
    write_out,
)
from repro.encodings.wire import unwrap
from repro.exceptions import (
    BtrBlocksError,
    CorruptBlockError,
    DecodeLimitError,
    FormatError,
    IntegrityError,
    TypeMismatchError,
)
from repro.observe import get_registry
from repro.types import Column, ColumnType, StringArray

ON_CORRUPT_MODES = ("raise", "skip", "null_block")


def _decompress_node(
    blob: bytes,
    ctype: ColumnType,
    ctx: DecompressionContext,
    sel: "np.ndarray | None" = None,
    out: "np.ndarray | None" = None,
) -> Values:
    """Decode one framed cascade node: the untrusted-input gate.

    ``sel`` and ``out`` follow :meth:`~repro.encodings.base.Scheme.decode`.
    The wire header's count is what schemes size their output allocations
    from, at every cascade level, so it and the payload size are bounded
    before any scheme code runs. ``sel`` is held to the declared count too:
    inner cascade levels *derive* child selections from decoded geometry
    (RLE run ends, frequency bitmaps), and corrupt geometry must surface as
    a typed error here, not as an out-of-bounds crash inside a kernel.
    ``out`` must hold exactly the requested rows, so a lying header cannot
    smuggle a different row count into reassembly. Schemes are then held to
    the length they were asked for. A scheme that is not ``selective`` (and
    every scheme on the scalar path) decodes fully, and the gate applies
    ``sel`` and ``out`` itself. On failure ``out`` may hold partial data;
    callers degrade or re-raise, never read it.
    """
    scheme_id, count, payload = unwrap(blob)
    if count > ctx.limits.max_rows_per_block:
        raise DecodeLimitError(
            f"block declares {count} values, limit is {ctx.limits.max_rows_per_block}"
        )
    if len(payload) > ctx.limits.max_bytes_per_block:
        raise DecodeLimitError(
            f"block payload of {len(payload)} bytes exceeds limit "
            f"{ctx.limits.max_bytes_per_block}"
        )
    wanted = count
    if sel is not None:
        sel = np.asarray(sel, dtype=np.int64)
        if sel.size and (int(sel[0]) < 0 or int(sel[-1]) >= count):
            raise CorruptBlockError(
                f"selection rows span [{int(sel[0])}, {int(sel[-1])}] "
                f"but the block declares {count} values"
            )
        wanted = sel.size
    if out is not None and len(out) != wanted:
        raise FormatError(f"block yields {wanted} values but its slot holds {len(out)}")
    scheme = get_scheme(scheme_id)
    if scheme.ctype is not ctype:
        raise TypeMismatchError(
            f"block encoded as {scheme.ctype.value} but read as {ctype.value}"
        )
    native = scheme.selective and ctx.vectorized
    try:
        if native:
            values = scheme.decode(payload, count, ctx, sel, out)
        else:
            values = scheme.decode(payload, count, ctx)
    except (BtrBlocksError, MemoryError):
        raise
    except Exception as exc:
        # Scheme decoders trust their payload's internal structure (zlib
        # streams, struct offsets, index arrays); malformed v1 files reach
        # them unchecksummed. Everything they throw at garbage becomes the
        # typed error the degrade policies and callers are written against.
        raise CorruptBlockError(
            f"{scheme.name} failed on malformed payload: {exc!r}"
        ) from exc
    if len(values) != (wanted if native else count):
        raise FormatError(
            f"block declared {count} values but {scheme.name} decoded {len(values)}"
        )
    if native:
        return values
    if sel is not None:
        values = take_values(values, sel)
    return write_out(values, out)


#: Contexts are immutable and stateless, so default-limit ones are shared.
_DEFAULT_CONTEXTS: dict[tuple[bool, bool], DecompressionContext] = {}


def make_context(
    vectorized: bool = True,
    fuse_rle_dict: bool = True,
    limits: "DecodeLimits | None" = None,
) -> DecompressionContext:
    """A decompression context that recursively dispatches on scheme ids."""
    if limits is None:
        ctx = _DEFAULT_CONTEXTS.get((vectorized, fuse_rle_dict))
        if ctx is None:
            ctx = DecompressionContext(
                _decompress_node,
                vectorized=vectorized,
                fuse_rle_dict=fuse_rle_dict,
            )
            _DEFAULT_CONTEXTS[(vectorized, fuse_rle_dict)] = ctx
        return ctx
    return DecompressionContext(
        _decompress_node,
        vectorized=vectorized,
        fuse_rle_dict=fuse_rle_dict,
        limits=limits,
    )


def decompress_block(blob: bytes, ctype: ColumnType, vectorized: bool = True) -> Values:
    """Decompress one block produced by ``compress_block``."""
    registry = get_registry()
    with registry.timer("decompress"):
        values = _decompress_node(blob, ctype, make_context(vectorized))
    registry.incr("decompress.blocks")
    registry.incr("decompress.rows", len(values))
    registry.incr("decompress.input_bytes", len(blob))
    return values


#: dtype of an empty reassembled column, per logical type (matches what
#: ``Column.ints`` / ``Column.doubles`` coerce data to on the way in).
_EMPTY_DTYPES = {
    ColumnType.INTEGER: np.int32,
    ColumnType.DOUBLE: np.float64,
}


@dataclass(frozen=True)
class CorruptBlockResult:
    """Sentinel a damaged block decodes to under a degrade policy.

    ``emitted`` is the number of rows the block will contribute to the
    reassembled column: 0 under ``"skip"``, the block's declared value
    count (or the selection's length) under ``"null_block"``, all of them
    NULL placeholders.
    """

    emitted: int
    reason: str = "checksum mismatch"

    def __len__(self) -> int:  # parts are length-inspected during assembly
        return self.emitted


def decode_block(
    block: CompressedBlock,
    ctype: ColumnType,
    ctx: DecompressionContext,
    sel: "np.ndarray | None" = None,
    out: "np.ndarray | None" = None,
    on_corrupt: str = "raise",
) -> "Values | CorruptBlockResult":
    """Decode one compressed block's values (the unit of parallel fan-out).

    ``sel`` (sorted unique block-local rows) materialises only those rows;
    ``out`` (one slot per returned value, typically a slice of a column
    preallocated by :func:`preallocate_column`) receives them and is
    returned. Verifies the block's stored CRC32 (when present) first;
    damage is raised as :class:`IntegrityError` or turned into a
    :class:`CorruptBlockResult` per ``on_corrupt``. A ``null_block`` result
    stands for as many NULL rows as the call asked for, and zero-fills
    ``out``. Records ``query.cdomain.filtered.*`` counters for selections
    (rows decoded vs the block's total); per-column ``decompress.*`` totals
    are accounted once by :func:`assemble_column`, so sequential and
    parallel runs produce identical counters.
    """
    if on_corrupt not in ON_CORRUPT_MODES:
        raise ValueError(f"on_corrupt must be one of {ON_CORRUPT_MODES}, got {on_corrupt!r}")
    if block.count > ctx.limits.max_rows_per_block:
        # An oversized declared count is an adversarial signal, not mere
        # damage: even the degrade policies must not allocate a null block
        # of that length, so this raises under every on_corrupt mode.
        raise DecodeLimitError(
            f"block declares {block.count} values, limit is "
            f"{ctx.limits.max_rows_per_block}"
        )
    wanted = block.count
    if sel is not None:
        sel = np.asarray(sel, dtype=np.int64)
        wanted = sel.size
        get_registry().incr_many(
            [
                ("query.cdomain.filtered.blocks", 1),
                ("query.cdomain.filtered.rows_selected", wanted),
                ("query.cdomain.filtered.rows_total", block.count),
            ]
        )
    if not verify_block(block):
        if on_corrupt == "raise":
            raise IntegrityError(
                f"block of {block.count} values: payload does not match stored CRC32"
            )
        return _degraded(on_corrupt, wanted, out, "checksum mismatch")
    try:
        return _decompress_node(block.data, ctype, ctx, sel, out)
    except BtrBlocksError:
        if on_corrupt == "raise":
            raise
        # Checksum-less (v1 / in-memory) blocks can only reveal damage by
        # failing to parse; degrade those the same way.
        return _degraded(on_corrupt, wanted, out, "decode failure")


def _degraded(
    on_corrupt: str, wanted: int, out: "np.ndarray | None", reason: str
) -> CorruptBlockResult:
    """The degrade-policy result for a damaged block."""
    if on_corrupt == "skip":
        return CorruptBlockResult(0, reason)
    if out is not None:
        out[:] = 0  # overwrite any partial decode with the NULL placeholder
    return CorruptBlockResult(wanted, reason)


def _null_block_placeholder(ctype: ColumnType, count: int) -> Values:
    """All-NULL filler values for a damaged block kept for row alignment."""
    if ctype is ColumnType.STRING:
        return StringArray.from_pylist([""] * count)
    return np.zeros(count, dtype=_EMPTY_DTYPES[ctype])


def preallocate_column(
    compressed: CompressedColumn,
    limits: "DecodeLimits | None" = None,
    buffer=None,
) -> np.ndarray:
    """Allocate the full column array the zero-copy path decodes into.

    Every block's declared count is held to ``max_rows_per_block`` *before*
    sizing the allocation, so a lying header cannot trigger an allocation
    bomb that the per-block gate would only catch afterwards.

    ``buffer`` retargets the column at caller-owned memory (a
    ``multiprocessing.shared_memory`` segment slice, for the process
    backend): the same validation runs, then the returned array is a view
    over exactly the column's rows at the start of ``buffer`` instead of a
    fresh allocation — workers in other processes decode into the same
    physical pages.
    """
    if limits is None:
        from repro.core.config import DEFAULT_DECODE_LIMITS

        limits = DEFAULT_DECODE_LIMITS
    total = 0
    for block in compressed.blocks:
        if block.count > limits.max_rows_per_block:
            raise DecodeLimitError(
                f"block declares {block.count} values, limit is "
                f"{limits.max_rows_per_block}"
            )
        total += block.count
    dtype = _EMPTY_DTYPES[compressed.ctype]
    if buffer is None:
        return np.empty(total, dtype=dtype)
    return np.frombuffer(buffer, dtype=dtype, count=total)


def assemble_column(
    compressed: CompressedColumn,
    parts: list,
    data: "np.ndarray | None" = None,
) -> Column:
    """Reassemble decoded block values (in block order) into a column.

    Rebases per-block NULL positions to column offsets, assembles the
    values and records the column's decompression counters.
    :class:`CorruptBlockResult` parts (degraded damaged blocks) contribute
    either nothing (``skip``) or an all-NULL run of their declared length
    (``null_block``); later blocks' NULL positions are rebased onto the
    actually-emitted row offsets.

    Without ``data`` the parts are the decoded values and are concatenated;
    an empty column keeps its logical dtype (int32 / float64) rather than
    decaying to NumPy's default float64. ``data`` is instead the
    preallocated array whose fixed per-block slices the blocks were decoded
    into; any part but a :class:`CorruptBlockResult` then only marks its
    slice as filled. Skipped blocks leave holes that are compacted by
    shifting later segments down (rare: only under ``on_corrupt="skip"``
    with actual damage), after which the array is trimmed to the emitted
    row count.
    """
    registry = get_registry()
    null_positions: list[np.ndarray] = []
    value_parts: list[Values] = []
    offset = 0  # rows emitted so far
    slot = 0  # start of the current block's slice of ``data``
    corrupt_blocks = 0
    corrupt_rows = 0
    checksummed = 0
    for block, part in zip(compressed.blocks, parts):
        if isinstance(part, CorruptBlockResult):
            corrupt_blocks += 1
            corrupt_rows += block.count
            emitted = part.emitted
            if emitted:
                null_positions.append(np.arange(offset, offset + emitted, dtype=np.int64))
                if data is None:
                    value_parts.append(_null_block_placeholder(compressed.ctype, emitted))
        else:
            emitted = block.count
            if block.checksum is not None:
                checksummed += 1
            if block.nulls is not None:
                positions = RoaringBitmap.deserialize(block.nulls).to_array()
                if positions.size:
                    null_positions.append(positions.astype(np.int64) + offset)
            if data is None:
                value_parts.append(part)
        if data is not None and emitted and offset != slot:
            data[offset : offset + emitted] = data[slot : slot + emitted]
        offset += emitted
        slot += block.count
    counters = [
        ("decompress.columns", 1),
        ("decompress.blocks", len(compressed.blocks)),
        ("decompress.rows", offset),
        ("decompress.input_bytes", compressed.nbytes),
    ]
    if checksummed:
        counters.append(("decompress.checksum_verified", checksummed))
    if corrupt_blocks:
        counters.append(("decompress.corrupt_blocks", corrupt_blocks))
        counters.append(("decompress.corrupt_rows", corrupt_rows))
    registry.incr_many(counters)
    nulls = None
    if null_positions:
        nulls = RoaringBitmap.from_positions(np.concatenate(null_positions))
    if data is not None:
        if offset != data.size:
            data = data[:offset].copy()
    elif compressed.ctype is ColumnType.STRING:
        data = strutil.concat([p for p in value_parts if isinstance(p, StringArray)])
    else:
        arrays = [np.asarray(p) for p in value_parts if len(p)]
        if arrays:
            data = np.concatenate(arrays)
        else:
            data = np.empty(0, dtype=_EMPTY_DTYPES[compressed.ctype])
    return Column(compressed.name, compressed.ctype, data, nulls)


def decompress_column(
    compressed: CompressedColumn,
    vectorized: bool = True,
    on_corrupt: str = "raise",
    limits: "DecodeLimits | None" = None,
    cache=None,
    cache_key=None,
) -> Column:
    """Reassemble a full column from its compressed blocks.

    Numeric columns take the zero-copy path: one allocation sized from the
    block headers, every block decoding straight into its slice. String
    columns keep per-block parts and one concatenation.

    With a :class:`~repro.core.cache.DecodeCache` and a ``cache_key``
    identifying this column's bytes (object key + version for remote
    columns), successfully decoded checksummed blocks are served from and
    inserted into the cache. A hit still verifies the block in hand
    against its stored CRC32 first, so a damaged download follows the
    same ``on_corrupt`` path as an uncached decode — cached rows can
    never mask fresh corruption.
    """
    ctx = make_context(vectorized, limits=limits)
    data = None
    if compressed.ctype is not ColumnType.STRING:
        data = preallocate_column(compressed, ctx.limits)
    use_cache = data is not None and cache is not None and cache_key is not None
    with get_registry().timer("decompress"):
        parts = []
        offset = 0
        for index, block in enumerate(compressed.blocks):
            out = None
            if data is not None:
                out = data[offset : offset + block.count]
                offset += block.count
            key = None
            if use_cache and block.checksum is not None:
                key = (cache_key, index, block.checksum)
                # Copy the cached rows first (cheap), then hold the block in
                # hand to its CRC: a hit may never mask fresh damage, and a
                # miss must not pay the checksum twice (decode verifies it).
                if cache.get_into(key, out) and verify_block(block):
                    parts.append(out)
                    continue
            part = decode_block(block, compressed.ctype, ctx, out=out, on_corrupt=on_corrupt)
            if key is not None and not isinstance(part, CorruptBlockResult):
                cache.put(key, out)
            parts.append(part)
    return assemble_column(compressed, parts, data)


def decompress_relation(
    compressed: CompressedRelation,
    vectorized: bool = True,
    on_corrupt: str = "raise",
    limits: "DecodeLimits | None" = None,
) -> Relation:
    """Reassemble a full relation."""
    columns = [
        decompress_column(c, vectorized, on_corrupt=on_corrupt, limits=limits)
        for c in compressed.columns
    ]
    return Relation(compressed.name, columns)


__all__ = [
    "CorruptBlockResult",
    "ON_CORRUPT_MODES",
    "assemble_column",
    "decode_block",
    "decompress_block",
    "decompress_column",
    "decompress_relation",
    "make_context",
    "preallocate_column",
]
