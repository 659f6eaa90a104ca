"""Tagging-mode mechanics (paper §4.1, Figure 6).

The three CSS layouts trade robustness against memory traffic:

* **record-tagged** — partition only data symbols; every CSS symbol
  carries its 4-byte record tag; the CSS index comes from run-length
  encoding the tags.  Handles varying column counts.
* **inline-terminated** — partition data symbols *and* the delimiters
  terminating each field, then overwrite the delimiter bytes with a
  reserved terminator inside the CSS; the index is the terminator
  positions.  No per-symbol tags, but the terminator byte must not occur
  in data and the column count must be constant.
* **vector-delimited** — like inline, but field ends are marked in an
  auxiliary boolean vector instead of a reserved byte (1 bit/symbol).

This module owns the mode-specific steps the parser composes after the
partition: post-processing the CSS (terminator substitution) and
per-column index construction.  (The per-symbol keep mask of the radix
partition oracle lives with it, in :mod:`repro.core.partition`.)
"""

from __future__ import annotations

import numpy as np

from repro.core.css import ColumnIndex
from repro.core.options import ParseOptions, TaggingMode
from repro.core.partition import PartitionResult
from repro.errors import ParseError

__all__ = ["prepare_css", "column_indexes"]


def prepare_css(mode: TaggingMode, part: PartitionResult,
                options: ParseOptions) -> np.ndarray:
    # parlint: returns-borrowed -- part.css itself outside the inline mode
    """Mode-specific CSS post-processing after the partition.

    For the inline mode this performs the §4.1 substitution — field
    terminators become the reserved terminator byte — and verifies the
    terminator does not occur in field data (the documented
    precondition; use the vector-delimited mode otherwise).  The other
    modes use the partition's CSS as is.
    """
    css = part.css
    if mode is not TaggingMode.INLINE:
        return css
    terminator = options.inline_terminator
    ends = part.field_starts + part.field_lengths
    if np.count_nonzero(css == terminator) \
            != np.count_nonzero(css[ends] == terminator):
        raise ParseError(
            "inline terminator byte occurs in field data; use "
            "TaggingMode.DELIMITED or a different terminator")
    css = css.copy()
    css[ends] = terminator
    return css


def column_indexes(mode: TaggingMode,
                   part: PartitionResult) -> list[ColumnIndex]:
    """Per-column CSS field indexes for the configured mode.

    Read straight off the partition's field index.  Record-tagged
    fields keep their record; the inline/delimited modes index fields by
    ordinal, which under their consistent-column-count precondition
    equals the record ordinal among retained records — bit-identical to
    :func:`~repro.core.css.tagged_index`,
    :func:`~repro.core.css.inline_index` and
    :func:`~repro.core.css.delimited_index` over the column CSS.
    """
    indexes = []
    for column in range(part.num_columns):
        records, offsets, lengths = part.column_fields(column)
        if mode is not TaggingMode.TAGGED:
            records = np.arange(records.size, dtype=np.int64)
        indexes.append(ColumnIndex(records=records, offsets=offsets,
                                   lengths=lengths))
    return indexes
