"""Phase 2 — bitmap indexes and per-field record/column tags (§3.1-3.2).

With every chunk's start state known (phase 1), each thread re-simulates a
*single* DFA instance over its chunk, classifying every symbol via the
emission table: the bitmap indexes of §3.1 (record delimiters, field
delimiters, data symbols).  The §3.2 offset machinery then tags every
field with the record and column it belongs to.

The tags are kept at *field* granularity.  The delimiters cut the input
into ``m + 1`` fields: field ``j`` runs from just after delimiter
``j - 1`` up to delimiter ``j``, which terminates it, and the last field
runs to the end of the input.  Record and column ids are constant on a
field, so :class:`TagResult` stores one of each per field, derived in
``O(m)`` from the delimiter positions and their record flags — the
per-symbol id streams of the paper's GPU formulation are never built on
the production path.  :func:`expand_symbol_tags` materialises them on
demand, for the radix-sort partition oracle and for comparing against
the chunked tagger.

Two implementations produce bit-identical :class:`TagResult` values
(property tested):

* :func:`tag_global` — per-field tags from whole-input delimiter
  bookkeeping.  The production path (:class:`~repro.core.stages.TagStage`).
* :func:`tag_chunked` — the paper's formulation: per-chunk counts and
  rel/abs offsets, prefix scans across chunks (:mod:`repro.core.offsets`),
  then a per-chunk tagging sweep seeded with the scanned offsets
  (:func:`symbol_tags_chunked`).  Structurally identical to the GPU
  kernels; the test oracle the parity suites hold :func:`tag_global` to.
"""

from __future__ import annotations

# parlint: hot-path -- byte-bound pipeline phase; loops need waivers

from dataclasses import dataclass

import numpy as np

from repro.core.chunking import Chunking
from repro.core.offsets import compute_chunk_offsets
from repro.dfa.automaton import Dfa, Emission
from repro.errors import ParseError

__all__ = ["TagResult", "SymbolTags", "compute_emissions", "classify",
           "tag_fields", "tag_global", "tag_chunked", "symbol_tags_chunked",
           "expand_symbol_tags"]


@dataclass
class TagResult:
    """Per-field record/column tags plus the data bitmap of the input.

    Field ``j`` ends at ``delim_positions[j]`` (its terminator) for
    ``j < m``; field ``m`` ends at the input end, where an unterminated
    trailing record gets a virtual record delimiter.  Every array except
    ``data_mask`` is ``O(m)``.
    """

    #: ``(n,)`` bool — symbol is field data.
    data_mask: np.ndarray
    #: ``(m,)`` int64 ascending positions of all delimiters (record or
    #: field).
    delim_positions: np.ndarray
    #: ``(m,)`` bool — the delimiter ends a record (not just a field).
    delim_is_record: np.ndarray
    #: ``(m + 1,)`` int64 — record of each field (record delimiters
    #: strictly before it).  Field ``m`` of an input without a trailing
    #: record carries ``num_records``, one past the last record.
    field_records: np.ndarray
    #: ``(m + 1,)`` int64 — column of each field (its ordinal within the
    #: record).
    field_columns: np.ndarray
    #: DFA state after the last input symbol.
    final_state: int
    #: Whether the input ends mid-record (no trailing record delimiter).
    has_trailing_record: bool
    #: Total records, including a trailing unterminated one.
    num_records: int

    @property
    def num_fields(self) -> int:
        """Fields including the final one (``m + 1``)."""
        return int(self.field_records.size)

    def record_positions(self) -> np.ndarray:
        """Ascending positions of the record delimiters."""
        return self.delim_positions[self.delim_is_record]

    def record_of(self, position: int) -> int:
        """The record byte ``position`` belongs to (a delimiter belongs
        to the field it terminates)."""
        field = int(np.searchsorted(self.delim_positions, position))
        return int(self.field_records[field])


@dataclass
class SymbolTags:
    """The per-symbol view of the tags: the paper's bitmap indexes and
    per-symbol record/column id streams, over ``size`` positions."""

    #: ``(size,)`` bool — record-delimiter bitmap index.
    record_delim: np.ndarray
    #: ``(size,)`` bool — field-delimiter bitmap index (field delims only).
    field_delim: np.ndarray
    #: ``(size,)`` int64 — record each symbol belongs to.
    record_ids: np.ndarray
    #: ``(size,)`` int64 — column each symbol belongs to (delimiters
    #: carry the column of the field they terminate).
    column_ids: np.ndarray


def compute_emissions(groups: np.ndarray, start_states: np.ndarray,
                      dfa: Dfa, chunking: Chunking
                      ) -> tuple[np.ndarray, int, int | None]:
    """Re-simulate one DFA instance per chunk, emitting classifications.

    Parameters
    ----------
    groups:
        ``(num_chunks, chunk_size)`` symbol-group matrix (with padding).
    start_states:
        ``(num_chunks,)`` per-chunk start states from phase 1.
    dfa:
        The padded automaton (must include the padding group).
    chunking:
        Geometry, to strip the padding from the result.

    Returns
    -------
    (emissions, final_state, invalid_position)
        Flat ``(input_bytes,)`` uint8 emissions, the automaton's state
        after the last real symbol, and the first byte offset at which the
        automaton sat in the INV sink (``None`` if never) — the format
        validation of paper §4.3 as a by-product of tagging.
    """
    num_chunks, chunk_size = groups.shape
    states = start_states.astype(np.uint8).copy()
    emissions = np.empty((num_chunks, chunk_size), dtype=np.uint8)
    transitions = dfa.transitions
    emission_table = dfa.emissions
    invalid = dfa.invalid_state
    first_invalid = np.full(num_chunks, -1, dtype=np.int64)
    for j in range(chunk_size):  # parlint: disable=PPR401 -- per-thread serial depth of the tagging sweep; vectorised over num_chunks
        g = groups[:, j]
        emissions[:, j] = emission_table[states, g]
        if invalid is not None:
            newly = (states == invalid) & (first_invalid < 0)
            first_invalid[newly] = j
        states = transitions[g, states]
    final_state = int(states[-1])
    flat = emissions.reshape(-1)[:chunking.input_bytes]

    invalid_position: int | None = None
    if invalid is not None:
        hit = np.flatnonzero(first_invalid >= 0)
        if hit.size:
            chunk = int(hit[0])
            position = chunk * chunk_size + int(first_invalid[chunk])
            if position < chunking.input_bytes:
                invalid_position = position
    return flat, final_state, invalid_position


def classify(emissions: np.ndarray
             ) -> tuple[np.ndarray, np.ndarray, np.ndarray, bool]:
    """The §3.1 bitmap indexes of an emission stream, in field form.

    Returns ``(data_mask, delim_positions, delim_is_record,
    tail_content)``: the data bitmap, the ascending delimiter positions,
    each delimiter's record flag, and whether record content (DATA,
    FIELD_DELIMITER or CONTROL — a lone ``\"\"`` is a record with one empty
    field; COMMENT is not content) follows the last record delimiter.
    Only the slice after the last record delimiter is inspected for the
    latter.
    """
    data_mask = emissions == int(Emission.DATA)
    # FIELD_DELIMITER (1) and RECORD_DELIMITER (2) are the codes in
    # [1, 3); the uint8 subtraction wraps DATA (0) to 255.
    delim_positions = np.flatnonzero(
        (emissions - np.uint8(1)) < np.uint8(2))
    delim_is_record = emissions[delim_positions] \
        == int(Emission.RECORD_DELIMITER)
    return data_mask, delim_positions, delim_is_record, \
        _tail_content(emissions, delim_positions, delim_is_record)


def _tail_content(emissions: np.ndarray, delim_positions: np.ndarray,
                  delim_is_record: np.ndarray) -> bool:
    """Whether anything but COMMENT follows the last record delimiter."""
    records = np.flatnonzero(delim_is_record)
    tail = emissions if records.size == 0 \
        else emissions[int(delim_positions[records[-1]]) + 1:]
    return bool(np.any(tail != int(Emission.COMMENT)))


def tag_fields(data_mask: np.ndarray, delim_positions: np.ndarray,
               delim_is_record: np.ndarray, final_state: int,
               tail_content: bool) -> TagResult:
    """Per-field record/column ids from the delimiter positions.

    * ``field_records[j]`` = record delimiters among the first ``j``
      delimiters;
    * ``field_columns[j]`` = ``j`` minus the index of the first delimiter
      of field ``j``'s record — inside a record every delimiter is a
      field delimiter, so this is the running column index, resetting at
      record boundaries.

    ``O(m)`` work and memory; shared by :func:`tag_global` and the
    sharded executor, which concatenates shard-local delimiter arrays.
    """
    m = delim_positions.size
    field_records = np.empty(m + 1, dtype=np.int64)
    field_records[0] = 0
    np.cumsum(delim_is_record, dtype=np.int64, out=field_records[1:])
    num_record_delims = int(field_records[-1])
    # First delimiter index of each record: 0, then one past each
    # record delimiter.
    record_first = np.empty(num_record_delims + 1, dtype=np.int64)
    record_first[0] = 0
    record_first[1:] = np.flatnonzero(delim_is_record) + 1
    field_columns = np.arange(m + 1, dtype=np.int64)
    field_columns -= record_first[field_records]
    return TagResult(
        data_mask=data_mask,
        delim_positions=delim_positions,
        delim_is_record=delim_is_record,
        field_records=field_records,
        field_columns=field_columns,
        final_state=final_state,
        has_trailing_record=tail_content,
        num_records=num_record_delims + (1 if tail_content else 0),
    )


def tag_global(emissions: np.ndarray, final_state: int) -> TagResult:
    """Per-field tags via whole-input delimiter bookkeeping."""
    data_mask, delim_positions, delim_is_record, tail_content = \
        classify(emissions)
    return tag_fields(data_mask, delim_positions, delim_is_record,
                      final_state, tail_content)


def expand_symbol_tags(tags: TagResult, *,
                       virtual_delimiter: bool = False) -> SymbolTags:
    """Materialise the per-symbol bitmaps and id streams of ``tags``.

    Field ``j`` covers its bytes *and* its terminating delimiter, so each
    id stream is the per-field ids repeated by field span.  With
    ``virtual_delimiter`` the streams gain one position past the input —
    the virtual record delimiter terminating a trailing record — which
    belongs to the last field.  ``O(n)`` int64 arrays: used only by the
    radix-sort partition oracle and to compare against
    :func:`symbol_tags_chunked`.
    """
    n = tags.data_mask.size
    size = n + 1 if virtual_delimiter else n
    dp = tags.delim_positions
    bounds = np.empty(dp.size + 2, dtype=np.int64)
    bounds[0] = 0
    bounds[1:-1] = dp + 1
    bounds[-1] = size
    spans = np.diff(bounds)
    record_delim = np.zeros(size, dtype=bool)
    record_delim[dp[tags.delim_is_record]] = True
    field_delim = np.zeros(size, dtype=bool)
    field_delim[dp[~tags.delim_is_record]] = True
    if virtual_delimiter:
        record_delim[n] = True
    return SymbolTags(
        record_delim=record_delim,
        field_delim=field_delim,
        record_ids=np.repeat(tags.field_records, spans),
        column_ids=np.repeat(tags.field_columns, spans),
    )


def symbol_tags_chunked(emissions: np.ndarray,
                        chunking: Chunking) -> SymbolTags:
    """Per-symbol ids via the paper's per-chunk offsets + scans.

    Pads the emission stream back to the chunk grid, computes each chunk's
    record count and rel/abs column offset, scans both across chunks
    (:func:`~repro.core.offsets.compute_chunk_offsets`), then assigns tags
    in one data-parallel sweep over chunk-local positions with per-chunk
    running counters seeded from the scans.
    """
    n = emissions.size
    if n != chunking.input_bytes:
        raise ParseError("emission stream does not match the chunking")
    num_chunks, chunk_size = chunking.num_chunks, chunking.chunk_size
    padded = np.full(num_chunks * chunk_size, int(Emission.COMMENT),
                     dtype=np.uint8)
    padded[:n] = emissions
    grid = padded.reshape(num_chunks, chunk_size)

    record_delim = grid == int(Emission.RECORD_DELIMITER)
    field_delim = grid == int(Emission.FIELD_DELIMITER)
    offsets = compute_chunk_offsets(record_delim, field_delim)

    # Per-chunk tagging sweep: every thread walks its chunk with a record
    # counter and a column counter seeded by the scanned offsets.
    record_counter = offsets.record_offsets.copy()
    column_counter = offsets.entering_column_offsets.copy()
    record_ids = np.empty((num_chunks, chunk_size), dtype=np.int64)
    column_ids = np.empty((num_chunks, chunk_size), dtype=np.int64)
    for j in range(chunk_size):  # parlint: disable=PPR401 -- per-thread serial depth of the tagging sweep; vectorised over num_chunks
        record_ids[:, j] = record_counter
        column_ids[:, j] = column_counter
        is_record = record_delim[:, j]
        is_field = field_delim[:, j]
        record_counter = record_counter + is_record
        column_counter = np.where(is_record, 0,
                                  column_counter + is_field)
    return SymbolTags(
        record_delim=record_delim.reshape(-1)[:n],
        field_delim=field_delim.reshape(-1)[:n],
        record_ids=record_ids.reshape(-1)[:n],
        column_ids=column_ids.reshape(-1)[:n],
    )


def tag_chunked(emissions: np.ndarray, final_state: int,
                chunking: Chunking) -> TagResult:
    """Per-field tags read off the paper's per-symbol tagging sweep.

    Each delimiter carries the ids of the field it terminates, so fields
    ``0..m-1`` take the sweep's ids at the delimiter positions; the final
    field continues the last delimiter's record and column.
    """
    symbols = symbol_tags_chunked(emissions, chunking)
    delim_positions = np.flatnonzero(symbols.record_delim
                                     | symbols.field_delim)
    delim_is_record = symbols.record_delim[delim_positions]
    m = delim_positions.size
    field_records = np.empty(m + 1, dtype=np.int64)
    field_columns = np.empty(m + 1, dtype=np.int64)
    field_records[:m] = symbols.record_ids[delim_positions]
    field_columns[:m] = symbols.column_ids[delim_positions]
    if m:
        last_is_record = bool(delim_is_record[-1])
        field_records[m] = field_records[m - 1] + last_is_record
        field_columns[m] = 0 if last_is_record else field_columns[m - 1] + 1
    else:
        field_records[m] = field_columns[m] = 0
    tail_content = _tail_content(emissions, delim_positions,
                                 delim_is_record)
    return TagResult(
        data_mask=emissions == int(Emission.DATA),
        delim_positions=delim_positions,
        delim_is_record=delim_is_record,
        field_records=field_records,
        field_columns=field_columns,
        final_state=final_state,
        has_trailing_record=tail_content,
        num_records=int(field_records[m]) + (1 if tail_content else 0),
    )
