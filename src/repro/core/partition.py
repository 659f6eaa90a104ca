"""Phase 3a — partitioning fields by column (paper §3.3).

To convert fields without thread divergence and without load-balancing
hazards, ParPaRaw first brings all symbols of each column together: one
concatenated symbol string (CSS) per column, plus an index of the
column's fields within it.  Two strategies produce the same partition:

**Field partition** (:func:`partition_fields`) — the production path.
The tagging stage hands over one record and column tag per *field*
(:class:`~repro.core.tagging.TagResult`), so the partition never touches
per-symbol tags: a stable counting sort of the kept fields by column
(``num_fields ≪ n`` items), then one byte gather per column that copies
each field's data bytes — and, in the inline/delimited modes, its
terminator — into the column's CSS.  The sorted fields *are* the
per-column field index.  ``O(n)`` bytes plus ``O(num_fields)`` words.

**Stable LSD radix sort** (:func:`stable_radix_sort` /
:func:`partition_by_column`) — the paper's GPU formulation over
per-symbol tags, kept as the test oracle (:func:`partition_symbols`
drives it from a validated parse).  A single partitioning pass is the
GPU-classic three-step dance:

1. histogram of items per digit value,
2. exclusive prefix sum over the histogram (partition start offsets),
3. stable placement of every item at ``offset[digit] + rank-within-digit``.

No ``np.argsort`` anywhere; the rank-within-digit is materialised per
digit value with a vectorised ``np.flatnonzero`` (the positions of a
digit value, in input order, *are* its stable ranks), which stands in for
the prefix-sum-based ranking a GPU implementation performs.  Its field
index is re-derived from the sorted per-symbol record tags (or field
terminators).

Both produce bit-identical CSS, column offsets and field indexes, which
the parity suite in ``tests/core/test_partition.py`` and the
pipeline-level sweep in ``tests/core/test_partition_parity.py`` enforce.
"""

from __future__ import annotations

# parlint: hot-path -- byte-bound pipeline phase; loops need waivers

from dataclasses import dataclass

import numpy as np

from repro.columnar.guard import protect
from repro.core.options import TaggingMode
from repro.core.tagging import TagResult, expand_symbol_tags
from repro.errors import ParseError
from repro.scan.numpy_scan import exclusive_sum

__all__ = ["stable_radix_sort", "PartitionResult", "partition_by_column",
           "partition_fields", "build_keep_mask", "partition_symbols"]


def stable_radix_sort(keys: np.ndarray, radix_bits: int = 2,
                      max_key: int | None = None) -> np.ndarray:
    """Stable permutation sorting ``keys`` ascending, GPU-style.

    Parameters
    ----------
    keys:
        ``(n,)`` non-negative integer keys.
    radix_bits:
        Digit width per pass (the paper iterates over the bits of the
        column tags in fixed-size digits).  On this vectorised executor
        the per-pass ranking loop costs ``2**radix_bits`` array sweeps, so
        narrow digits win — the ablation benchmark measures the trade-off
        (a GPU prefers wide digits; launch overhead dominates there).
    max_key:
        Upper bound on the keys (exclusive); defaults to ``keys.max()+1``.

    Returns
    -------
    np.ndarray
        ``(n,)`` int64 permutation: ``keys[perm]`` is sorted and equal keys
        keep their input order.
    """
    keys = np.asarray(keys)
    if keys.ndim != 1:
        raise ParseError("radix sort expects a 1-D key array")
    n = keys.size
    perm = np.arange(n, dtype=np.int64)
    if n == 0:
        return perm
    if keys.min() < 0:
        raise ParseError("radix sort requires non-negative keys")
    if radix_bits <= 0 or radix_bits > 16:
        raise ParseError("radix_bits must be in 1..16")
    if max_key is None:
        max_key = int(keys.max()) + 1
    key_bits = max(1, int(max_key - 1).bit_length())
    radix = 1 << radix_bits
    # The keys travel with the permutation (permuted in place each pass)
    # so no pass re-gathers them from the source array.
    current_keys = keys.astype(np.int64)

    shift = 0
    while shift < key_bits:  # parlint: disable=PPR401 -- one pass per radix digit, <= key_bits/radix_bits iterations
        digits = (current_keys >> shift) & (radix - 1)
        # (1) histogram, (2) partition offsets via exclusive prefix sum.
        histogram = np.bincount(digits, minlength=radix)
        offsets = exclusive_sum(histogram)
        # (3) stable placement: a digit value's positions in input order
        # (np.flatnonzero) are exactly its items in stable rank order, so
        # writing them at the partition offset performs the
        # offset[d] + rank-within-d scatter without materialising the
        # per-digit prefix sum.
        gather = np.empty(n, dtype=np.int64)
        for value in range(radix):  # parlint: disable=PPR401 -- 2**radix_bits iterations with vectorised bodies (per-digit stable ranking)
            count = int(histogram[value])
            if count == 0:
                continue
            lo = int(offsets[value])
            gather[lo:lo + count] = np.flatnonzero(digits == value)
        perm = perm[gather]
        current_keys = current_keys[gather]
        shift += radix_bits
    return perm


def _stable_counting_sort(keys: np.ndarray, num_values: int
                          ) -> tuple[np.ndarray, np.ndarray]:
    """Stable permutation sorting small-int ``keys`` ascending.

    A counting sort: NumPy's stable sort of 16-bit keys is an LSD radix
    sort, ``O(R)`` for ``R`` keys, so narrowing the keys to ``uint16``
    buys the linear pass (wider key spaces fall back to the merge sort).
    The field partition calls this on the *fields* (``R = num_fields``,
    keys ``< num_columns``), never on symbols.

    Returns ``(perm, key_starts)``: the stable permutation and the
    ``(num_values,)`` exclusive prefix sum of the key histogram (first
    sorted position of each key value).
    """
    counts = np.bincount(keys, minlength=num_values)
    narrow = keys.astype(np.uint16) if num_values <= 1 << 16 else keys
    return np.argsort(narrow, kind="stable"), exclusive_sum(counts)


@dataclass
class PartitionResult:
    """The columnar layout after partitioning.

    Attributes
    ----------
    css:
        All retained symbols, column-partitioned: column ``c``'s CSS is
        ``css[column_offsets[c]:column_offsets[c + 1]]``.
    column_offsets:
        ``(num_columns + 1,)`` int64 CSS boundaries.
    num_columns:
        Number of columns partitioned.
    field_records / field_starts / field_lengths / field_bounds:
        The per-column field index.  Field ``j`` starts at CSS position
        ``field_starts[j]`` with ``field_lengths[j]`` data symbols and
        belongs to record ``field_records[j]``; column ``c``'s fields are
        the slice ``[field_bounds[c], field_bounds[c + 1])``, in record
        order.  The convert stage reads each column's index from here.
    terminated:
        Whether every field is followed by its terminator byte in the CSS
        (the inline/delimited tagging modes), at
        ``field_starts + field_lengths``.  Record-tagged fields tile the
        column CSS exactly instead, and hold only non-empty fields.
    order:
        Original input position of each CSS symbol — the radix oracle's
        applied stable permutation; ``None`` on the field partition,
        which never builds per-symbol arrays.
    """

    css: np.ndarray
    column_offsets: np.ndarray
    num_columns: int
    field_records: np.ndarray
    field_starts: np.ndarray
    field_lengths: np.ndarray
    field_bounds: np.ndarray
    terminated: bool = False
    order: np.ndarray | None = None

    @property
    def num_fields(self) -> int:
        return int(self.field_records.size)

    def column_css(self, column: int) -> np.ndarray:
        # parlint: returns-borrowed -- zero-copy slice of the shared CSS
        """Column ``c``'s concatenated symbol string."""
        lo = int(self.column_offsets[column])
        hi = int(self.column_offsets[column + 1])
        # Views of a read-only array are read-only, so protecting here
        # also covers column_view's values (it slices this result).
        return protect(self.css[lo:hi])

    def column_fields(self, column: int
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Column ``c``'s ``(records, offsets, lengths)`` field index.

        Offsets are relative to :meth:`column_css`.
        """
        lo = int(self.field_bounds[column])
        hi = int(self.field_bounds[column + 1])
        base = int(self.column_offsets[column])
        return (self.field_records[lo:hi],
                self.field_starts[lo:hi] - base,
                self.field_lengths[lo:hi])

    def column_view(self, column: int) -> tuple[np.ndarray, np.ndarray]:
        # parlint: returns-borrowed -- values aliases self.css by design
        """Column ``c``'s CSS as an Arrow-style ``(values, offsets)`` pair.

        ``values`` is a zero-copy view of :attr:`css`; ``offsets`` is the
        ``(num_fields + 1,)`` int64 field-boundary buffer.  In the
        record-tagged mode the fields tile the column CSS exactly, so the
        pair *is* a valid Arrow string column over the retained fields —
        no symbol is copied.
        """
        values = self.column_css(column)
        _, starts, lengths = self.column_fields(column)
        offsets = np.empty(starts.size + 1, dtype=np.int64)
        offsets[:-1] = starts
        offsets[-1] = (int(starts[-1] + lengths[-1]) if starts.size
                       else 0)
        return values, offsets


def _check_column_range(keys: np.ndarray, num_columns: int) -> None:
    if keys.size:
        if int(keys.min()) < 0:
            raise ParseError("partition requires non-negative column tags")
        if int(keys.max()) >= num_columns:
            raise ParseError(
                "a column tag exceeds the declared column count")


def partition_by_column(data: np.ndarray, keep_mask: np.ndarray,
                        column_ids: np.ndarray, record_ids: np.ndarray,
                        num_columns: int, radix_bits: int = 2,
                        terminators: np.ndarray | None = None
                        ) -> PartitionResult:
    """Partition the retained symbols into per-column CSSs (radix sort).

    Parameters
    ----------
    data:
        ``(n,)`` uint8 raw input (symbols).
    keep_mask:
        ``(n,)`` bool — which positions enter the partition (data symbols
        of selected columns/records; for the inline/delimited tagging modes
        also the terminating delimiters).
    column_ids / record_ids:
        Per-position tags from phase 2.
    num_columns:
        Column count (CSS boundaries are produced for all of them).
    radix_bits:
        Digit width for the radix sort.
    terminators:
        ``(n,)`` bool marking field terminators (the inline/delimited
        modes): a field ends at each kept terminator, and every column's
        CSS must end with one.  ``None`` (record-tagged) makes each run
        of equal record tags within a column one field.
    """
    if not (data.shape == keep_mask.shape == column_ids.shape
            == record_ids.shape) or (terminators is not None
                                     and terminators.shape != data.shape):
        raise ParseError("partition inputs must share one shape")
    kept = np.flatnonzero(keep_mask)
    keys = column_ids[kept]
    _check_column_range(keys, num_columns)
    perm = stable_radix_sort(keys, radix_bits=radix_bits,
                             max_key=num_columns)
    order = kept[perm]
    css = data[order]
    record_tags = record_ids[order]
    histogram = np.bincount(keys, minlength=num_columns)
    column_offsets = np.empty(num_columns + 1, dtype=np.int64)
    column_offsets[0] = 0
    np.cumsum(histogram, out=column_offsets[1:])

    # Field index: a field starts at each column start and wherever the
    # record tag changes (record-tagged) or a terminator precedes.
    total = css.size
    begins = np.zeros(total, dtype=bool)
    begins[column_offsets[:-1][histogram > 0]] = True
    if terminators is None:
        begins[1:] |= record_tags[1:] != record_tags[:-1]
    else:
        is_term = terminators[order]
        ends = column_offsets[1:][histogram > 0] - 1
        if not bool(np.all(is_term[ends])):
            raise ParseError("a terminated column CSS must end with a "
                             "field terminator")
        begins[1:] |= is_term[:-1]
    field_starts = np.flatnonzero(begins)
    field_lengths = np.empty(field_starts.size, dtype=np.int64)
    field_lengths[:-1] = np.diff(field_starts)
    if field_starts.size:
        field_lengths[-1] = total - field_starts[-1]
    if terminators is not None:
        field_lengths -= 1
    return PartitionResult(
        css=css, column_offsets=column_offsets, num_columns=num_columns,
        field_records=record_tags[field_starts],
        field_starts=field_starts,
        field_lengths=field_lengths,
        field_bounds=np.searchsorted(field_starts, column_offsets),
        terminated=terminators is not None, order=order)


def build_keep_mask(mode: TaggingMode, data_mask: np.ndarray,
                    delim_mask: np.ndarray, column_ok: np.ndarray,
                    record_ok: np.ndarray) -> np.ndarray:
    """Positions entering the radix partition under the given mode.

    Record-tagged keeps data symbols only; the inline/delimited modes also
    keep each field's terminating delimiter (it becomes the terminator /
    auxiliary mark).
    """
    if mode is TaggingMode.TAGGED:
        return data_mask & column_ok & record_ok
    return (data_mask | delim_mask) & column_ok & record_ok


def partition_symbols(data: np.ndarray, tags: TagResult,
                      valid_records: np.ndarray, column_mask: np.ndarray,
                      num_columns: int, mode: TaggingMode,
                      end_byte: int) -> PartitionResult:
    """The radix-sort oracle of a validated parse, per symbol (§3.3).

    Expands the field tags to per-symbol tags and a per-symbol keep mask
    (:func:`build_keep_mask`) and partitions them with
    :func:`partition_by_column` — the paper's GPU formulation, which the
    parity suites hold :func:`partition_fields` to.  The per-symbol
    streams cover the input extended by the virtual record delimiter
    (``end_byte``) of a trailing record, so the inline/delimited modes
    see that record's last field terminated like every other.
    """
    virtual = tags.has_trailing_record
    symbols = expand_symbol_tags(tags, virtual_delimiter=virtual)
    data_mask = tags.data_mask
    if virtual:
        data = np.concatenate([data, np.array([end_byte], dtype=np.uint8)])
        data_mask = np.concatenate([data_mask, [False]])
    delim_mask = symbols.record_delim | symbols.field_delim
    col_ids, rec_ids = symbols.column_ids, symbols.record_ids
    num_records = tags.num_records
    col_ok = (col_ids < num_columns) & (col_ids >= 0)
    col_ok &= column_mask[np.clip(col_ids, 0, max(0, num_columns - 1))] \
        if num_columns else False
    if num_records:
        # Positions in a trailing comment (no content after the last
        # record delimiter) carry a record id one past the end; they
        # are never content, so clipping is safe.
        rec_ok = valid_records[np.clip(rec_ids, 0, num_records - 1)]
    else:
        rec_ok = np.zeros(col_ids.shape, dtype=bool)
    keep = build_keep_mask(mode, data_mask, delim_mask, col_ok, rec_ok)
    return partition_by_column(
        data, keep, col_ids, rec_ids, num_columns,
        terminators=None if mode is TaggingMode.TAGGED else delim_mask)


def partition_fields(data: np.ndarray, data_mask: np.ndarray,
                     delim_positions: np.ndarray, field_columns: np.ndarray,
                     field_records: np.ndarray, keep: np.ndarray,
                     num_columns: int, *, terminated: bool = False,
                     end_byte: int = 0) -> PartitionResult:
    """Partition kept fields into per-column CSSs and field indexes.

    Bit-identical to :func:`partition_by_column` over the expanded
    per-symbol tags, in ``O(n + num_fields)`` with no per-symbol array
    but the CSS itself:

    1. locate every kept field's data bytes: field ``j`` spans the bytes
       between delimiters ``j - 1`` and ``j``, minus the control and
       comment symbols inside (quotes, escapes) — set aside by binary
       search over their positions, when there are any;
    2. stable-counting-sort the kept fields by column
       (:func:`_stable_counting_sort`; record-tagged mode drops empty
       fields first, the terminated modes keep them);
    3. gather each column's CSS with one ``np.repeat``-based segment
       gather over its sorted fields.

    Parameters
    ----------
    data / data_mask:
        ``(n,)`` uint8 input and its data bitmap.
    delim_positions:
        ``(m,)`` ascending delimiter positions; field ``m`` ends at ``n``.
    field_columns / field_records / keep:
        ``(m + 1,)`` per-field column, record and retention flag.
    terminated:
        Append each field's terminator byte to its CSS bytes (the
        inline/delimited modes).  Field ``m`` is terminated by a virtual
        ``end_byte`` at position ``n``.
    """
    n = data.size
    m = delim_positions.size
    if data_mask.shape != data.shape or not (
            field_columns.shape == field_records.shape == keep.shape
            == (m + 1,)):
        raise ParseError("partition inputs must share one field geometry")
    # Field j spans [starts[j], ends[j]); its terminator sits at ends[j],
    # which is n (virtual) for the last field.  ``lengths`` holds the
    # ends until the subtraction below.
    starts = np.empty(m + 1, dtype=np.int64)
    starts[0] = 0
    np.add(delim_positions, 1, out=starts[1:])
    lengths = np.empty(m + 1, dtype=np.int64)
    lengths[:m] = delim_positions
    lengths[m] = n

    # The byte stream fields are gathered from: data and delimiter
    # symbols in input order.  Control and comment symbols are set
    # aside; when there are none (no quoting) it is the input itself.
    stream = data
    if n - m - int(np.count_nonzero(data_mask)):
        in_stream = data_mask.copy()
        in_stream[delim_positions] = True
        aside = np.flatnonzero(~in_stream)
        stream = data[in_stream]
        del in_stream
        starts -= np.searchsorted(aside, starts)
        lengths -= np.searchsorted(aside, lengths)
        del aside
    lengths -= starts

    # Kept fields (record-tagged: non-empty ones only), stably sorted by
    # column; one gather per per-field array through the sorted ids.
    fields = np.flatnonzero(keep if terminated else keep & (lengths > 0))
    columns = field_columns[fields]
    _check_column_range(columns, num_columns)
    perm, column_heads = _stable_counting_sort(columns, num_columns)
    del columns
    fields = fields[perm]
    del perm
    starts = starts[fields]
    lengths = lengths[fields]
    records = field_records[fields]
    del fields
    virtual = terminated and bool(keep[m])
    virtual_column = int(field_columns[m]) if virtual else -1

    num_fields = lengths.size
    sizes = lengths + 1 if terminated else lengths
    out_starts = exclusive_sum(sizes)
    total = int(out_starts[-1] + sizes[-1]) if num_fields else 0
    field_bounds = np.empty(num_columns + 1, dtype=np.int64)
    field_bounds[:-1] = column_heads
    field_bounds[-1] = num_fields
    column_offsets = np.full(num_columns + 1, total, dtype=np.int64)
    present = column_heads < num_fields
    column_offsets[:-1][present] = out_starts[column_heads[present]]

    css = np.empty(total, dtype=np.uint8)
    if not stream.size:
        # Nothing but set-aside symbols (a lone quoted empty field): the
        # only CSS byte is the virtual terminator patched in below.
        stream = np.zeros(1, dtype=np.uint8)
    for column in range(num_columns):  # parlint: disable=PPR401 -- one segment gather per column, vectorised over its fields
        lo, hi = int(field_bounds[column]), int(field_bounds[column + 1])
        if lo == hi:
            continue
        out_lo = int(column_offsets[column])
        out_hi = int(column_offsets[column + 1])
        # Output position p of sorted field j reads
        # stream[starts[j] + (p - out_starts[j])].
        source = np.repeat(starts[lo:hi] - out_starts[lo:hi],
                           sizes[lo:hi])
        source += np.arange(out_lo, out_hi, dtype=np.int64)
        # The virtual terminator reads past the stream: clip, then patch.
        np.take(stream, source, out=css[out_lo:out_hi], mode="clip")
    if virtual:
        last = int(field_bounds[virtual_column + 1]) - 1
        css[int(out_starts[last] + lengths[last])] = end_byte
    return PartitionResult(
        css=css, column_offsets=column_offsets, num_columns=num_columns,
        field_records=records, field_starts=out_starts,
        field_lengths=lengths, field_bounds=field_bounds,
        terminated=terminated)
