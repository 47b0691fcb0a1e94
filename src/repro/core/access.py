"""Random (point) access into compressed columns.

BtrBlocks optimises for scan throughput, not point access (the paper's
Section 7 contrasts this with HyPer Data Blocks, which keeps data
byte-addressable precisely to serve point queries). Still, block-based
storage gives a natural unit of selective decompression: to read a handful
of rows only the blocks containing them are decoded — and within each
block, only the *selected* rows materialise, through the same
selection-vector kernels the filtered scan path uses (RLE touches only the
runs holding requested rows, dictionaries gather only their codes,
bit-packing unpacks only their pages). One point read costs one partial
block decode, not a full one.
"""

from __future__ import annotations

import numpy as np

from repro.bitmap import RoaringBitmap
from repro.core.blocks import CompressedColumn
from repro.core.decompressor import decode_block, make_context
from repro.encodings import strutil
from repro.types import Column, ColumnType, StringArray


def _block_offsets(compressed: CompressedColumn) -> list[int]:
    """Starting row of each block (cumulative counts)."""
    offsets = [0]
    for block in compressed.blocks:
        offsets.append(offsets[-1] + block.count)
    return offsets


def read_rows(
    compressed: CompressedColumn,
    row_indices,
    vectorized: bool = True,
) -> Column:
    """Materialise the given rows (any order, duplicates allowed).

    Only blocks containing requested rows are touched, each at most once,
    and each decodes only its requested rows; results come back in the
    order requested. Each touched block is held to its stored CRC32 first,
    exactly as a full decode would be (a mismatch raises
    :class:`~repro.exceptions.IntegrityError`).
    """
    indices = np.asarray(row_indices, dtype=np.int64)
    offsets = np.asarray(_block_offsets(compressed), dtype=np.int64)
    total = int(offsets[-1])
    if indices.size and (indices.min() < 0 or indices.max() >= total):
        raise IndexError(f"row index out of range 0..{total - 1}")
    ctx = make_context(vectorized)
    block_ids = np.searchsorted(offsets, indices, side="right") - 1
    local = indices - offsets[block_ids]
    uniq_blocks = np.unique(block_ids)

    # Decode each touched block's requested rows once (sorted unique), then
    # concatenate the partial decodes into one pool addressed by
    # ``base[block] + rank`` so duplicates and arbitrary order cost one
    # gather, not one decode each.
    pools: list = []
    bases: dict[int, int] = {}
    selections: dict[int, np.ndarray] = {}
    null_cache: dict[int, RoaringBitmap | None] = {}
    base = 0
    for block_id in uniq_blocks:
        block = compressed.blocks[int(block_id)]
        sel = np.unique(local[block_ids == block_id])
        selections[int(block_id)] = sel
        bases[int(block_id)] = base
        base += int(sel.size)
        pools.append(decode_block(block, compressed.ctype, ctx, sel=sel))
        null_cache[int(block_id)] = (
            RoaringBitmap.deserialize(block.nulls) if block.nulls else None
        )

    rank = np.empty(indices.size, dtype=np.int64)
    for block_id in uniq_blocks:
        member = block_ids == block_id
        rank[member] = bases[int(block_id)] + np.searchsorted(
            selections[int(block_id)], local[member]
        )

    null_positions = [
        i
        for i, (block_id, row) in enumerate(zip(block_ids, local))
        if null_cache[int(block_id)] is not None and int(row) in null_cache[int(block_id)]
    ]
    nulls = RoaringBitmap.from_positions(null_positions) if null_positions else None

    if compressed.ctype is ColumnType.STRING:
        if not pools:
            return Column(compressed.name, compressed.ctype, StringArray.empty(0), nulls)
        combined = strutil.concat([p for p in pools if isinstance(p, StringArray)])
        return Column(
            compressed.name, compressed.ctype, strutil.gather(combined, rank), nulls
        )
    dtype = np.int32 if compressed.ctype is ColumnType.INTEGER else np.float64
    if not pools:
        return Column(compressed.name, compressed.ctype, np.empty(0, dtype=dtype), nulls)
    combined = np.concatenate([np.asarray(p) for p in pools])
    return Column(compressed.name, compressed.ctype, combined[rank], nulls)


def read_value(compressed: CompressedColumn, row: int):
    """One value (bytes for strings, Python scalar otherwise); None if NULL."""
    column = read_rows(compressed, [row])
    if column.nulls is not None and 0 in column.nulls:
        return None
    if compressed.ctype is ColumnType.STRING:
        return column.data[0]
    return column.data[0].item()
