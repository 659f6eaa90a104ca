"""Chunk-local record/column offsets and their scans (paper §3.2).

This is the paper-faithful formulation behind the chunked tagger
(:func:`~repro.core.tagging.tag_chunked`, a test oracle) and the ablation
benchmarks:

* every chunk builds its three *bitmap indexes* (record delimiters, field
  delimiters, control symbols);
* the chunk's **record count** is the popcount of its record-delimiter
  bitmap;
* the chunk's **column offset** is *absolute* when the chunk contains a
  record delimiter — computed by zeroing all field-delimiter bits preceding
  the last record-delimiter bit and popcounting the rest — and *relative*
  (its total field-delimiter popcount) otherwise;
* an exclusive prefix sum over record counts yields each chunk's record
  offset, and an exclusive scan under the rel/abs operator
  (:class:`~repro.scan.operators.ColumnOffsetMonoid`) yields each chunk's
  entering column offset.

Bitmap indexes are materialised both as boolean matrices (for the
vectorised path) and as Python integers (for the bit-twiddling formulation
with :func:`~repro.utils.bits.clear_bits_below` — exercised by the tests to
match the figures' worked examples).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.scan.numpy_scan import exclusive_sum, scan_column_offsets
from repro.scan.operators import ColumnOffset
from repro.utils.bits import clear_bits_below, last_set_bit_position, popcount64

__all__ = [
    "ChunkOffsets",
    "chunk_bitmap_ints",
    "column_offset_from_bitmaps",
    "compute_chunk_offsets",
]


@dataclass(frozen=True)
class ChunkOffsets:
    """Per-chunk offsets after the scans.

    Attributes
    ----------
    record_counts:
        ``(num_chunks,)`` record delimiters per chunk.
    record_offsets:
        ``(num_chunks,)`` record id entering each chunk (exclusive sum).
    column_kinds / column_values:
        The chunks' *own* rel/abs column offsets (pre-scan).
    entering_column_offsets:
        ``(num_chunks,)`` absolute column offset entering each chunk
        (post-scan; the first chunk enters at column 0).
    """

    record_counts: np.ndarray
    record_offsets: np.ndarray
    column_kinds: np.ndarray
    column_values: np.ndarray
    entering_column_offsets: np.ndarray


def chunk_bitmap_ints(record_delim_row: np.ndarray,
                      field_delim_row: np.ndarray) -> tuple[int, int]:
    """One chunk's bitmap indexes as integers (bit ``j`` = position ``j``).

    Provided for the paper-exact bit-twiddling formulation; requires the
    chunk to fit in 64 positions (the paper's chunks do: 4-64 bytes).
    """
    if record_delim_row.size > 64:
        raise ValueError("integer bitmaps support at most 64 positions")
    rd = 0
    fd = 0
    for j in range(record_delim_row.size):
        if record_delim_row[j]:
            rd |= 1 << j
        if field_delim_row[j]:
            fd |= 1 << j
    return rd, fd


def column_offset_from_bitmaps(record_bits: int,
                               field_bits: int) -> ColumnOffset:
    """A chunk's rel/abs column offset from its two bitmap indexes.

    Implements §3.2 verbatim: absolute iff the record bitmap is non-empty,
    in which case the field bits below (and at) the last record bit are
    zeroed before popcounting.

    >>> column_offset_from_bitmaps(0b000100, 0b110011).value
    2
    >>> column_offset_from_bitmaps(0, 0b110011).kind.name
    'RELATIVE'
    """
    if record_bits == 0:
        return ColumnOffset.relative(popcount64(field_bits))
    last = last_set_bit_position(record_bits)
    remaining = clear_bits_below(field_bits, last + 1)
    return ColumnOffset.absolute(popcount64(remaining))


def compute_chunk_offsets(record_delim: np.ndarray,
                          field_delim: np.ndarray) -> ChunkOffsets:
    """Vectorised §3.2 over all chunks at once.

    Parameters
    ----------
    record_delim / field_delim:
        ``(num_chunks, chunk_size)`` boolean matrices (the bitmap indexes
        in matrix form).  ``field_delim`` holds *field* delimiters only.
    """
    if record_delim.shape != field_delim.shape or record_delim.ndim != 2:
        raise ValueError("expected matching (num_chunks, chunk_size) masks")
    num_chunks, chunk_size = record_delim.shape

    record_counts = record_delim.sum(axis=1).astype(np.int64)
    record_offsets = exclusive_sum(record_counts)

    has_record = record_counts > 0
    # Position of the last record delimiter per chunk (-1 when none):
    # argmax on the reversed mask finds the last set position.
    reversed_ = record_delim[:, ::-1]
    last_from_end = np.argmax(reversed_, axis=1)
    last_positions = np.where(has_record,
                              chunk_size - 1 - last_from_end, -1)
    # Zero field bits at positions <= last record delimiter.
    positions = np.arange(chunk_size)
    after_last = positions[None, :] > last_positions[:, None]
    absolute_values = (field_delim & after_last).sum(axis=1)
    relative_values = field_delim.sum(axis=1)
    column_values = np.where(has_record, absolute_values,
                             relative_values).astype(np.int64)
    column_kinds = has_record.copy()

    entering_kinds, entering_values = scan_column_offsets(
        column_kinds, column_values, exclusive=True)
    # The sequential automaton starts at a record boundary, so the seed
    # relative(0) is effectively absolute 0; the scanned values are the
    # entering column offsets regardless of their kind flag.
    return ChunkOffsets(
        record_counts=record_counts,
        record_offsets=record_offsets,
        column_kinds=column_kinds,
        column_values=column_values,
        entering_column_offsets=entering_values,
    )
