"""Phase 3b — generating typed field values (paper §3.3).

With each column's CSS and index in hand, conversion produces the columnar
output: a typed data buffer + validity bitmap per column.  The pipeline:

1. map each indexed field to its output row (dropped/rejected records map
   to no row);
2. pre-initialise the column with its default value (paper §4.3 — *Default
   values for empty strings*): fields without symbols simply never
   overwrite it, and become NULL when there is no default;
3. convert the non-empty fields — vectorised
   (:mod:`repro.core.vector_convert`), with scalar fallback
   (:mod:`repro.core.scalar_convert`) for literals the vector path
   declines;
4. scatter values into rows; conversion failures clear the row's validity
   and count as *rejects* (the per-thread reject flags of Figure 5).

**Collaboration levels** (paper §3.3): fields are classified by symbol
count into thread-exclusive, block-level (above ``block_threshold``) and
device-level (above ``device_threshold``) work.  In this reproduction all
three classes produce values through the same vectorised kernels — NumPy
already is the "device-wide collaboration" — but the classification is
tracked per column (:class:`CollaborationStats`) and drives the GPU cost
model and the skew experiments (Figure 11 right).
"""

from __future__ import annotations

# parlint: hot-path -- byte-bound pipeline phase; loops need waivers

from dataclasses import dataclass

import numpy as np

from repro.columnar.buffers import ValidityBitmap
from repro.columnar.guard import protect
from repro.columnar.schema import DataType, Field
from repro.columnar.table import Column
from repro.core.css import ColumnIndex
from repro.core.options import ParseOptions
from repro.core.scalar_convert import convert_scalar
from repro.core.vector_convert import (
    match_literals,
    pack_fields,
    parse_bool_vector,
    parse_date_vector,
    parse_decimal_vector,
    parse_float_vector,
    parse_int_vector,
    parse_timestamp_vector,
)
from repro.errors import ConversionError
from repro.scan.numpy_scan import exclusive_sum

__all__ = ["CollaborationStats", "ConvertStats", "convert_column"]


@dataclass
class CollaborationStats:
    """How many fields each collaboration level handled (paper §3.3)."""

    thread_fields: int = 0
    block_fields: int = 0
    device_fields: int = 0

    @property
    def total_fields(self) -> int:
        return self.thread_fields + self.block_fields + self.device_fields

    def __add__(self, other: "CollaborationStats") -> "CollaborationStats":
        return CollaborationStats(
            self.thread_fields + other.thread_fields,
            self.block_fields + other.block_fields,
            self.device_fields + other.device_fields)


@dataclass
class ConvertStats:
    """Byte-copy accounting across one convert stage.

    ``bytes_copied`` counts the value bytes materialised into output
    buffers by copy; ``zero_copy_columns`` counts string columns whose
    value buffer is a zero-copy slice of the column CSS (the fused
    partition→convert handoff).  Surfaced as the ``convert.bytes.copied``
    and ``convert.zero_copy_columns`` metrics.
    """

    bytes_copied: int = 0
    zero_copy_columns: int = 0


def _classify_collaboration(lengths: np.ndarray,
                            options: ParseOptions) -> CollaborationStats:
    device = int(np.count_nonzero(lengths > options.device_threshold))
    block = int(np.count_nonzero(lengths > options.block_threshold)) - device
    thread = int(lengths.size) - block - device
    return CollaborationStats(thread_fields=thread, block_fields=block,
                              device_fields=device)


_ZERO_DEFAULTS = {
    DataType.BOOL: False,
    DataType.STRING: "",
}


def _effective_default(field: Field):
    """The value empty fields resolve to; ``None`` means NULL."""
    if field.default is not None:
        return field.default
    if not field.nullable:
        return _ZERO_DEFAULTS.get(field.dtype, 0)
    return None


_VECTOR_PARSERS = {
    DataType.INT8: parse_int_vector,
    DataType.INT16: parse_int_vector,
    DataType.INT32: parse_int_vector,
    DataType.INT64: parse_int_vector,
    DataType.FLOAT32: parse_float_vector,
    DataType.FLOAT64: parse_float_vector,
    DataType.BOOL: parse_bool_vector,
    DataType.DATE: parse_date_vector,
    DataType.TIMESTAMP: parse_timestamp_vector,
}


def _vector_parse(field: Field, buf: np.ndarray, offsets: np.ndarray,
                  lengths: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # parlint: borrowed=buf -- may be a CSS slice on the fused path
    """Run the type-appropriate vector parser."""
    dtype = field.dtype
    if dtype is DataType.DECIMAL:
        return parse_decimal_vector(buf, offsets, lengths,
                                    field.decimal_scale)
    parser = _VECTOR_PARSERS[dtype]
    if dtype in (DataType.INT8, DataType.INT16, DataType.INT32,
                 DataType.INT64, DataType.FLOAT32, DataType.FLOAT64):
        return parser(buf, offsets, lengths, dtype)
    return parser(buf, offsets, lengths)


def _scalar_parse_into(field: Field, buf: np.ndarray, offsets: np.ndarray,
                       lengths: np.ndarray, which: np.ndarray,
                       values: np.ndarray, ok: np.ndarray) -> None:
    # parlint: borrowed=buf -- values/ok are the caller's owned outputs
    """Scalar-parse the fields selected by ``which`` into values/ok."""
    for i in np.flatnonzero(which):  # parlint: disable=PPR401 -- scalar fallback for fields the vector parsers decline; off the default path
        lo = int(offsets[i])
        text = buf[lo:lo + int(lengths[i])].tobytes()
        value, good = convert_scalar(field, text)
        ok[i] = good
        if good:
            values[i] = value


def _contiguous(starts: np.ndarray, lengths: np.ndarray) -> bool:
    """Whether the fields tile ``[starts[0], starts[-1] + lengths[-1])``."""
    return bool(np.array_equal(starts[1:], starts[:-1] + lengths[:-1]))


def convert_column(field: Field, css: np.ndarray, index: ColumnIndex,
                   row_of_record: np.ndarray, num_rows: int,
                   options: ParseOptions,
                   convert_stats: ConvertStats | None = None
                   ) -> tuple[Column, CollaborationStats]:
    # parlint: borrowed=css -- a view of the partition's shared CSS
    """Convert one column's CSS into a typed :class:`Column`.

    Parameters
    ----------
    field:
        Schema field (type, default, nullability, decimal scale).
    css:
        The column's concatenated symbol string (uint8).
    index:
        Field index into ``css``.
    row_of_record:
        Maps the index's record ids to output rows (-1 = dropped record).
    num_rows:
        Output row count.
    options:
        Parse options (NULL literals, thresholds, strictness).
    convert_stats:
        Optional accumulator for byte-copy accounting (the convert
        stage's ``convert.bytes.copied`` / ``convert.zero_copy_columns``
        metrics).
    """
    records = index.records
    in_range = (records >= 0) & (records < len(row_of_record))
    rows = np.where(in_range, row_of_record[np.clip(records, 0,
                    max(0, len(row_of_record) - 1))], np.int64(-1))
    keep = (rows >= 0) & (index.lengths > 0)
    starts = index.offsets[keep]
    lengths = index.lengths[keep]
    out_rows = rows[keep]
    stats = _classify_collaboration(lengths, options)

    # NULL literals: matching fields become NULL before conversion and
    # never count as rejects (paper §3.3, "identifying NULLs").
    null_rows = np.empty(0, dtype=np.int64)
    if options.null_literals and lengths.size:
        literal_bytes = tuple(lit.encode("utf-8")
                              for lit in options.null_literals)
        probe_buf, probe_offsets = pack_fields(css, starts, lengths)
        nulls = match_literals(probe_buf, probe_offsets, lengths,
                               literal_bytes)
        null_rows = out_rows[nulls]
        starts = starts[~nulls]
        lengths = lengths[~nulls]
        out_rows = out_rows[~nulls]

    default = _effective_default(field)

    # The fused paths need the output rows in order (so per-row cumsum
    # reproduces the per-field order) and the fields tiling the CSS (so a
    # CSS slice is the value buffer / a parse input).  Both hold on the
    # record-tagged partition handoff unless NULL literals punched holes.
    rows_ascending = bool(np.all(out_rows[1:] > out_rows[:-1]))
    fields_tile_css = lengths.size > 0 and _contiguous(starts, lengths)

    if field.dtype is DataType.STRING:
        column = None
        if rows_ascending and fields_tile_css:
            column = _fused_string_column(field, css, starts, lengths,
                                          out_rows, num_rows, default,
                                          null_rows)
        if column is not None:
            if convert_stats is not None:
                convert_stats.zero_copy_columns += 1
        else:
            column = _convert_string_column(field, css, starts, lengths,
                                            out_rows, num_rows, default,
                                            null_rows)
            if convert_stats is not None:
                convert_stats.bytes_copied += int(column.data.nbytes)
        return column, stats

    n_fields = len(lengths)
    # Fully-populated fixed-width column: every output row has exactly
    # one field, in order — the parsed value vector *is* the data buffer
    # and the parse-ok mask *is* the validity; no default pre-fill, no
    # scatter.  (NULL-literal holes break full coverage, so they imply
    # the scatter path.)
    fused_fixed = rows_ascending and n_fields == num_rows and num_rows > 0
    if not fused_fixed:
        data = np.zeros(num_rows, dtype=field.dtype.numpy_dtype)
        if default is None:
            validity = np.zeros(num_rows, dtype=bool)
        else:
            data[:] = default
            validity = np.ones(num_rows, dtype=bool)

    if fields_tile_css:
        # Fields already packed: parse straight off the CSS slice.
        base = int(starts[0])
        buf = css[base:int(starts[-1] + lengths[-1])]
        packed_offsets = starts - base
    else:
        buf, packed_offsets = pack_fields(css, starts, lengths)
    if n_fields:
        values, ok, fallback = _vector_parse(field, buf, packed_offsets,
                                             lengths)
        values = values.astype(field.dtype.numpy_dtype, copy=False)
        if np.any(fallback):
            values = values.copy()
            ok = ok.copy()
            _scalar_parse_into(field, buf, packed_offsets, lengths,
                               fallback, values, ok)
        rejects = int(np.count_nonzero(~ok))
        if rejects and options.strict:
            first = int(np.flatnonzero(~ok)[0])
            lo = int(packed_offsets[first])
            text = buf[lo:lo + int(lengths[first])].tobytes()
            raise ConversionError(
                f"cannot convert {text!r} to {field.dtype.value} "
                f"in column {field.name!r}",
                column=None, record=int(out_rows[first]),
                text=text.decode("utf-8", errors="replace"))
        if fused_fixed:
            # The parse result is adopted as the column's data buffer
            # zero-copy; under the guard it leaves this frame read-only.
            data = protect(values)
            validity = ok
        else:
            data[out_rows[ok]] = values[ok]
            validity[out_rows[ok]] = True
            validity[out_rows[~ok]] = False
            if convert_stats is not None:
                convert_stats.bytes_copied += int(data.nbytes)
    else:
        rejects = 0
        if convert_stats is not None and not fused_fixed:
            convert_stats.bytes_copied += int(data.nbytes)
    validity[null_rows] = False

    return Column(field, data, ValidityBitmap.from_mask(validity),
                  rejects=rejects), stats


def _fused_string_column(field: Field, css: np.ndarray,
                         starts: np.ndarray, lengths: np.ndarray,
                         out_rows: np.ndarray, num_rows: int,
                         default,
                         null_rows: np.ndarray) -> Column | None:
    # parlint: borrowed=css returns-borrowed -- the Column wraps a CSS slice
    """Zero-copy string column: the value buffer is a slice of the CSS.

    Preconditions checked by the caller: fields tile a contiguous CSS
    range and output rows are ascending — then the CSS slice *is* the
    Arrow value buffer byte-for-byte (same field order, no terminators in
    between), and only the per-row offsets need computing (rows without
    a field get zero length: NULL or empty-default).  Returns ``None``
    when a non-empty default would have to materialise bytes the CSS
    does not contain.
    """
    default_bytes = (default.encode("utf-8")
                     if isinstance(default, str) else None)
    if default_bytes:
        return None
    values = protect(css[int(starts[0]):int(starts[-1] + lengths[-1])])
    row_lengths = np.zeros(num_rows, dtype=np.int64)
    row_lengths[out_rows] = lengths
    offsets = np.zeros(num_rows + 1, dtype=np.int64)
    np.cumsum(row_lengths, out=offsets[1:])
    if default is None:
        validity = np.zeros(num_rows, dtype=bool)
        validity[out_rows] = True
    else:
        validity = np.ones(num_rows, dtype=bool)
    validity[null_rows] = False
    return Column(field, values, ValidityBitmap.from_mask(validity),
                  offsets=offsets)


def _convert_string_column(field: Field, css: np.ndarray,
                           starts: np.ndarray, lengths: np.ndarray,
                           out_rows: np.ndarray, num_rows: int,
                           default,
                           null_rows: np.ndarray | None = None) -> Column:
    # parlint: borrowed=css -- read-only source; data/offsets are fresh
    """Assemble a variable-width column: offsets buffer + data buffer."""
    if null_rows is None:
        null_rows = np.empty(0, dtype=np.int64)
    default_bytes = (default.encode("utf-8")
                     if isinstance(default, str) else None)
    row_lengths = np.zeros(num_rows, dtype=np.int64)
    if default_bytes:
        row_lengths[:] = len(default_bytes)
    row_lengths[out_rows] = lengths
    row_lengths[null_rows] = 0
    offsets = np.zeros(num_rows + 1, dtype=np.int64)
    np.cumsum(row_lengths, out=offsets[1:])

    data = np.zeros(int(offsets[-1]), dtype=np.uint8)
    if default_bytes:
        pattern = np.frombuffer(default_bytes, dtype=np.uint8)
        filled = np.ones(num_rows, dtype=bool)
        filled[out_rows] = False
        filled[null_rows] = False
        fill_rows = np.flatnonzero(filled)
        if fill_rows.size:
            # One scatter for all defaulted rows: each row's destination
            # window is its offset plus 0..len(pattern)-1.
            dst = offsets[fill_rows, None] + np.arange(
                len(default_bytes), dtype=np.int64)
            data[dst] = pattern
    if lengths.size:
        total = int(lengths.sum())
        src = (np.arange(total, dtype=np.int64)
               - np.repeat(exclusive_sum(lengths), lengths)
               + np.repeat(starts, lengths))
        dst = (np.arange(total, dtype=np.int64)
               - np.repeat(exclusive_sum(lengths), lengths)
               + np.repeat(offsets[out_rows], lengths))
        data[dst] = css[src]

    if default is None:
        validity = np.zeros(num_rows, dtype=bool)
        validity[out_rows] = True
    else:
        validity = np.ones(num_rows, dtype=bool)
    validity[null_rows] = False
    return Column(field, data, ValidityBitmap.from_mask(validity),
                  offsets=offsets)
