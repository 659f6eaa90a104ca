"""Tests for the column partition (§3.3): the radix-sort oracle and the
field partition, which must match it bit for bit."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.partition import (PartitionResult, partition_by_column,
                                  partition_fields, stable_radix_sort)
from repro.core.tagging import expand_symbol_tags, tag_fields
from repro.errors import ParseError
from repro.utils.rle import run_length_encode


class TestStableRadixSort:
    @given(hnp.arrays(np.int64, st.integers(0, 300),
                      elements=st.integers(0, 40)),
           st.sampled_from([1, 2, 4, 8, 16]))
    def test_sorted_and_stable(self, keys, radix_bits):
        perm = stable_radix_sort(keys, radix_bits=radix_bits)
        sorted_keys = keys[perm]
        assert np.all(sorted_keys[:-1] <= sorted_keys[1:]) \
            if keys.size else True
        # Stability: among equal keys, original order preserved.
        for value in np.unique(keys):
            positions = perm[sorted_keys == value]
            assert np.all(positions[:-1] < positions[1:])

    @given(hnp.arrays(np.int64, st.integers(0, 200),
                      elements=st.integers(0, 100)))
    def test_matches_numpy_stable(self, keys):
        perm = stable_radix_sort(keys)
        expected = np.argsort(keys, kind="stable")
        assert perm.tolist() == expected.tolist()

    def test_is_permutation(self):
        keys = np.array([3, 1, 3, 0, 2, 1])
        perm = stable_radix_sort(keys, radix_bits=1)
        assert sorted(perm.tolist()) == list(range(6))

    def test_empty(self):
        assert stable_radix_sort(np.array([], dtype=np.int64)).size == 0

    def test_multi_pass(self):
        # Keys needing several 2-bit passes.
        keys = np.array([255, 0, 128, 64, 192, 1])
        perm = stable_radix_sort(keys, radix_bits=2)
        assert keys[perm].tolist() == sorted(keys.tolist())

    def test_rejects_negative_keys(self):
        with pytest.raises(ParseError):
            stable_radix_sort(np.array([-1, 2]))

    def test_rejects_bad_radix(self):
        with pytest.raises(ParseError):
            stable_radix_sort(np.array([1]), radix_bits=0)
        with pytest.raises(ParseError):
            stable_radix_sort(np.array([1]), radix_bits=17)

    def test_rejects_2d(self):
        with pytest.raises(ParseError):
            stable_radix_sort(np.zeros((2, 2), dtype=np.int64))


class TestPartitionByColumn:
    def test_figure5_layout(self):
        """Figure 5: symbols partitioned into per-column CSSs, record
        tags moved along, offsets from the histogram."""
        data = np.frombuffer(b"19411938x199.9919.99y", dtype=np.uint8)
        #                      col0 col0  ?  col1  col1  ?
        column_ids = np.array([0] * 4 + [0] * 4 + [9] + [1] * 6 + [1] * 5
                              + [9])
        record_ids = np.array([0] * 4 + [1] * 4 + [0] + [0] * 6 + [1] * 5
                              + [1])
        keep = column_ids != 9
        part = partition_by_column(data, keep, column_ids, record_ids,
                                   num_columns=2)
        assert part.column_css(0).tobytes() == b"19411938"
        assert part.column_css(1).tobytes() == b"199.9919.99"
        assert part.column_offsets.tolist() == [0, 8, 19]
        records, offsets, lengths = part.column_fields(0)
        assert records.tolist() == [0, 1]
        assert offsets.tolist() == [0, 4]
        assert lengths.tolist() == [4, 4]

    def test_order_gathers_payload(self):
        data = np.frombuffer(b"ba", dtype=np.uint8)
        column_ids = np.array([1, 0])
        record_ids = np.array([0, 0])
        keep = np.ones(2, dtype=bool)
        part = partition_by_column(data, keep, column_ids, record_ids, 2)
        assert part.css.tobytes() == b"ab"
        assert part.order.tolist() == [1, 0]

    def test_empty_columns_have_empty_css(self):
        data = np.frombuffer(b"xy", dtype=np.uint8)
        part = partition_by_column(data, np.ones(2, dtype=bool),
                                   np.array([2, 2]), np.array([0, 0]), 4)
        assert part.column_css(0).size == 0
        assert part.column_css(2).tobytes() == b"xy"
        assert part.column_css(3).size == 0

    def test_rejects_overflowing_tags(self):
        data = np.frombuffer(b"x", dtype=np.uint8)
        with pytest.raises(ParseError):
            partition_by_column(data, np.ones(1, dtype=bool),
                                np.array([5]), np.array([0]), 2)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ParseError):
            partition_by_column(np.zeros(2, dtype=np.uint8),
                                np.ones(3, dtype=bool),
                                np.zeros(2, dtype=np.int64),
                                np.zeros(2, dtype=np.int64), 1)

    @given(st.data())
    @settings(max_examples=60)
    def test_preserves_order_within_column(self, data):
        n = data.draw(st.integers(0, 150))
        payload = data.draw(hnp.arrays(np.uint8, n))
        columns = data.draw(hnp.arrays(np.int64, n,
                                       elements=st.integers(0, 5)))
        records = data.draw(hnp.arrays(np.int64, n,
                                       elements=st.integers(0, 8)))
        keep = data.draw(hnp.arrays(np.bool_, n))
        part = partition_by_column(payload, keep, columns, records, 6)
        for c in range(6):
            expected = payload[keep & (columns == c)]
            assert part.column_css(c).tolist() == expected.tolist()
            # Each run of one record's symbols is a field (Figure 5).
            run_records, run_lengths = run_length_encode(
                records[keep & (columns == c)])
            field_records, _, field_lengths = part.column_fields(c)
            assert field_records.tolist() == run_records.tolist()
            assert field_lengths.tolist() == run_lengths.tolist()


def draw_fields(data, max_bytes=150):
    """Draw an input in field form: bytes, data bitmap, delimiters with
    record flags, and a keep flag per field."""
    n = data.draw(st.integers(0, max_bytes))
    payload = data.draw(hnp.arrays(np.uint8, n))
    delims = np.array(sorted(data.draw(st.sets(
        st.integers(0, max(0, n - 1)), max_size=min(n, 30)))),
        dtype=np.int64)
    is_record = np.array([data.draw(st.booleans()) for _ in delims],
                         dtype=bool)
    # Delimiters are never data; other bytes are data or set aside
    # (quotes, escapes, comments).
    data_mask = data.draw(hnp.arrays(np.bool_, n)) if data.draw(
        st.booleans()) else np.ones(n, dtype=bool)
    data_mask[delims] = False
    keep = data.draw(hnp.arrays(np.bool_, delims.size + 1))
    return payload, data_mask, delims, is_record, keep


def radix_oracle(payload, data_mask, delims, is_record, keep, num_columns,
                 terminated, end_byte=10, radix_bits=2):
    """The partition through expanded per-symbol tags and the radix sort."""
    tags = tag_fields(data_mask, delims, is_record, 0, True)
    virtual = terminated and bool(keep[-1])
    symbols = expand_symbol_tags(tags, virtual_delimiter=virtual)
    if virtual:
        payload = np.append(payload, np.uint8(end_byte))
        data_mask = np.append(data_mask, False)
    delim = symbols.record_delim | symbols.field_delim
    field_of = np.searchsorted(delims, np.arange(payload.size))
    kept = keep[field_of] & (data_mask | (delim & terminated))
    return partition_by_column(payload, kept, symbols.column_ids,
                               symbols.record_ids, num_columns,
                               radix_bits=radix_bits,
                               terminators=delim if terminated else None)


def field_partition(payload, data_mask, delims, is_record, keep,
                    num_columns, terminated, end_byte=10):
    tags = tag_fields(data_mask, delims, is_record, 0, True)
    return partition_fields(payload, data_mask, delims, tags.field_columns,
                            tags.field_records, keep, num_columns,
                            terminated=terminated, end_byte=end_byte)


def assert_parts_identical(a, b):
    assert a.css.tolist() == b.css.tolist()
    assert a.column_offsets.tolist() == b.column_offsets.tolist()
    assert a.terminated == b.terminated
    for column in range(a.num_columns):
        for x, y in zip(a.column_fields(column), b.column_fields(column)):
            assert x.tolist() == y.tolist()


class TestStableCountingSort:
    @given(hnp.arrays(np.int64, st.integers(0, 250),
                      elements=st.integers(0, 30)))
    def test_matches_numpy_stable(self, keys):
        from repro.core.partition import _stable_counting_sort
        perm, key_starts = _stable_counting_sort(keys, 31)
        expected = np.argsort(keys, kind="stable")
        assert perm.tolist() == expected.tolist()
        counts = np.bincount(keys, minlength=31)
        assert key_starts.tolist() == \
            (np.cumsum(counts) - counts).tolist()


class TestPartitionFieldRuns:
    """The field partition (the field-run strategy) must match the radix
    oracle over the expanded per-symbol tags bit for bit: CSS, column
    offsets and per-column field index."""

    @given(st.data())
    @settings(max_examples=120)
    def test_parity_with_radix_arbitrary_tags(self, data):
        fields = draw_fields(data)
        tags = tag_fields(fields[1], fields[2], fields[3], 0, True)
        num_columns = int(tags.field_columns.max()) + 1 \
            + data.draw(st.integers(0, 2))
        terminated = data.draw(st.booleans())
        assert_parts_identical(
            radix_oracle(*fields, num_columns, terminated),
            field_partition(*fields, num_columns, terminated))

    @given(st.data(), st.sampled_from([1, 2, 4, 8]))
    @settings(max_examples=60)
    def test_parity_across_radix_bits(self, data, radix_bits):
        fields = draw_fields(data, max_bytes=120)
        tags = tag_fields(fields[1], fields[2], fields[3], 0, True)
        num_columns = int(tags.field_columns.max()) + 1
        terminated = data.draw(st.booleans())
        assert_parts_identical(
            radix_oracle(*fields, num_columns, terminated,
                         radix_bits=radix_bits),
            field_partition(*fields, num_columns, terminated))

    @given(st.data())
    @settings(max_examples=60)
    def test_set_aside_path_matches_clean_stream(self, data):
        """Set-aside (control) symbols inside fields change nothing but
        the positions: the partition equals the one over the input with
        them removed, where the stream is the input itself."""
        payload, _, delims, is_record, keep = draw_fields(data)
        n = payload.size
        aside = data.draw(hnp.arrays(np.bool_, n))
        aside[delims] = False
        clean_positions = np.flatnonzero(~aside)
        clean_delims = np.searchsorted(clean_positions, delims)
        terminated = data.draw(st.booleans())
        data_mask = ~aside
        data_mask[delims] = False
        tags = tag_fields(data_mask, delims, is_record, 0, True)
        num_columns = int(tags.field_columns.max()) + 1
        with_aside = field_partition(payload, data_mask, delims, is_record,
                                     keep, num_columns, terminated)
        clean_mask = np.ones(clean_positions.size, dtype=bool)
        clean_mask[clean_delims] = False
        clean = field_partition(payload[clean_positions], clean_mask,
                                clean_delims, is_record, keep, num_columns,
                                terminated)
        assert_parts_identical(with_aside, clean)

    def test_empty_input(self):
        part = partition_fields(
            np.zeros(0, dtype=np.uint8), np.zeros(0, dtype=bool),
            np.zeros(0, dtype=np.int64), np.zeros(1, dtype=np.int64),
            np.zeros(1, dtype=np.int64), np.zeros(1, dtype=bool), 3)
        assert part.css.size == 0
        assert part.num_fields == 0
        assert part.order is None
        assert part.column_offsets.tolist() == [0, 0, 0, 0]
        assert part.field_bounds.tolist() == [0, 0, 0, 0]

    def test_single_column(self):
        # Records "ab", "" (empty), "cd", "e" in one column; the second
        # "cd" byte is a set-aside quote.
        data = np.frombuffer(b'ab\n\nc"d\ne', dtype=np.uint8)
        data_mask = np.array([1, 1, 0, 0, 1, 0, 1, 0, 1], dtype=bool)
        delims = np.array([2, 3, 7])
        is_record = np.ones(3, dtype=bool)
        keep = np.ones(4, dtype=bool)
        part = field_partition(data, data_mask, delims, is_record, keep, 1,
                               terminated=False)
        assert part.css.tobytes() == b"abcde"
        records, offsets, lengths = part.column_fields(0)
        assert records.tolist() == [0, 2, 3]
        assert offsets.tolist() == [0, 2, 4]
        assert lengths.tolist() == [2, 2, 1]
        terminated = field_partition(data, data_mask, delims, is_record,
                                     keep, 1, terminated=True,
                                     end_byte=ord("\n"))
        assert terminated.css.tobytes() == b"ab\n\ncd\ne\n"
        assert terminated.column_fields(0)[2].tolist() == [2, 0, 2, 1]

    def test_all_one_record(self):
        data = np.frombuffer(b"1,2,3", dtype=np.uint8)
        data_mask = np.array([1, 0, 1, 0, 1], dtype=bool)
        delims = np.array([1, 3])
        is_record = np.zeros(2, dtype=bool)
        keep = np.ones(3, dtype=bool)
        for terminated in (False, True):
            a = radix_oracle(data, data_mask, delims, is_record, keep, 3,
                             terminated)
            b = field_partition(data, data_mask, delims, is_record, keep,
                                3, terminated)
            assert_parts_identical(a, b)
        assert b.css.tobytes() == b"1,2,3\n"
        assert field_partition(data, data_mask, delims, is_record, keep,
                               3, False).css.tobytes() == b"123"

    def test_rejects_negative_tags(self):
        with pytest.raises(ParseError):
            partition_fields(np.zeros(2, dtype=np.uint8),
                             np.ones(2, dtype=bool),
                             np.zeros(0, dtype=np.int64),
                             np.array([-1]), np.zeros(1, dtype=np.int64),
                             np.ones(1, dtype=bool), 2)

    def test_rejects_overflowing_tags(self):
        with pytest.raises(ParseError):
            partition_fields(np.zeros(3, dtype=np.uint8),
                             np.array([True, False, True]),
                             np.array([1]), np.array([0, 7]),
                             np.zeros(2, dtype=np.int64),
                             np.ones(2, dtype=bool), 2)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ParseError):
            partition_fields(np.zeros(2, dtype=np.uint8),
                             np.ones(3, dtype=bool),
                             np.zeros(0, dtype=np.int64),
                             np.zeros(1, dtype=np.int64),
                             np.zeros(1, dtype=np.int64),
                             np.ones(1, dtype=bool), 1)
        with pytest.raises(ParseError):
            partition_fields(np.zeros(2, dtype=np.uint8),
                             np.ones(2, dtype=bool),
                             np.array([1]),
                             np.zeros(1, dtype=np.int64),
                             np.zeros(2, dtype=np.int64),
                             np.ones(2, dtype=bool), 1)


class TestPartitionResultDefaults:
    def test_order_defaults_to_none(self):
        empty = np.zeros(0, dtype=np.int64)
        part = PartitionResult(
            css=np.zeros(0, dtype=np.uint8),
            column_offsets=np.zeros(1, dtype=np.int64),
            num_columns=0, field_records=empty, field_starts=empty,
            field_lengths=empty, field_bounds=np.zeros(1, dtype=np.int64))
        assert part.order is None
        assert not part.terminated
        assert part.num_fields == 0
