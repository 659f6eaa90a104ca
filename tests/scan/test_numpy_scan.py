"""Tests for the vectorised scans against their scalar references."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.scan.numpy_scan import (
    MAX_BLOCK_WIDTH,
    MIN_BLOCK_WIDTH,
    block_width,
    compose_vectors,
    exclusive_sum,
    inclusive_sum,
    reduce_transition_vectors,
    scan_column_offsets,
    scan_depth,
    scan_start_states,
    scan_transition_vectors,
)
from repro.scan.operators import (
    ColumnOffset,
    ColumnOffsetMonoid,
    OffsetKind,
    TransitionComposeMonoid,
)
from repro.scan.sequential import exclusive_scan, inclusive_scan
from tests.oracles import hillis_steele_transition_scan


class TestSums:
    def test_exclusive_example(self):
        assert exclusive_sum(np.array([3, 5, 1, 2])).tolist() == [0, 3, 8, 9]

    def test_empty(self):
        assert exclusive_sum(np.array([], dtype=np.int64)).size == 0

    @given(hnp.arrays(np.int32, st.integers(0, 100),
                      elements=st.integers(-1000, 1000)))
    def test_matches_python(self, values):
        expected = []
        acc = 0
        for v in values:
            expected.append(acc)
            acc += int(v)
        assert exclusive_sum(values).tolist() == expected

    def test_inclusive_int64_no_overflow(self):
        # Byte offsets must not wrap in int32.
        values = np.full(10, 2 ** 30, dtype=np.int64)
        assert int(inclusive_sum(values)[-1]) == 10 * 2 ** 30


class TestComposeVectors:
    def test_matches_monoid(self):
        m = TransitionComposeMonoid(4)
        a = np.array([1, 0, 3, 2], dtype=np.uint8)
        b = np.array([2, 2, 0, 1], dtype=np.uint8)
        assert compose_vectors(a, b).tolist() == list(m.combine(tuple(a),
                                                                tuple(b)))

    def test_batched(self):
        a = np.array([[1, 0], [0, 1]], dtype=np.uint8)
        b = np.array([[1, 1], [0, 0]], dtype=np.uint8)
        out = compose_vectors(a, b)
        assert out.tolist() == [[1, 1], [0, 0]]


#: Row counts that cross every shape the blocked scan takes: a single
#: block (n ≤ MIN_BLOCK_WIDTH), several blocks with a padded tail, and
#: n > MAX_BLOCK_WIDTH² (three levels of block composites).
ROW_COUNTS = st.one_of(
    st.integers(0, 40),
    st.integers(41, 600),
    st.integers(MAX_BLOCK_WIDTH ** 2 + 1, MAX_BLOCK_WIDTH ** 2 + 900),
)


@st.composite
def vector_arrays(draw, rows=ROW_COUNTS):
    """Random ``(n, S)`` uint8 STVs, ``S`` from 1 to 8."""
    n = draw(rows)
    num_states = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return rng.integers(0, num_states, size=(n, num_states),
                        dtype=np.uint8)


def as_rows(array: np.ndarray) -> list[tuple[int, ...]]:
    return [tuple(row) for row in array.tolist()]


def assert_scan_matches(vectors: np.ndarray, exclusive: bool) -> None:
    """The scan equals the scalar reference and the Hillis–Steele
    oracle, bit for bit."""
    monoid = TransitionComposeMonoid(vectors.shape[1])
    scalar = exclusive_scan if exclusive else inclusive_scan
    out = scan_transition_vectors(vectors, exclusive=exclusive)
    assert out.dtype == vectors.dtype
    assert as_rows(out) == scalar(as_rows(vectors), monoid)
    assert np.array_equal(out,
                          hillis_steele_transition_scan(vectors, exclusive))


class TestScanTransitionVectors:
    @given(vector_arrays())
    @settings(max_examples=60, deadline=None)
    def test_matches_scalar_exclusive(self, vectors):
        assert_scan_matches(vectors, exclusive=True)

    @given(vector_arrays())
    @settings(max_examples=60, deadline=None)
    def test_matches_scalar_inclusive(self, vectors):
        assert_scan_matches(vectors, exclusive=False)

    @given(vector_arrays(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_start_states_are_an_oracle_column(self, vectors, data):
        start = data.draw(st.integers(0, vectors.shape[1] - 1))
        expected = hillis_steele_transition_scan(vectors)[:, start]
        assert np.array_equal(scan_start_states(vectors, start), expected)

    @given(vector_arrays())
    @settings(max_examples=60, deadline=None)
    def test_reduce_is_the_last_inclusive_row(self, vectors):
        num_states = vectors.shape[1]
        expected = hillis_steele_transition_scan(vectors, exclusive=False)
        expected = expected[-1] if len(vectors) else np.arange(num_states)
        assert np.array_equal(reduce_transition_vectors(vectors), expected)

    def test_first_row_is_identity(self):
        vectors = np.array([[3, 2, 1, 0, 4, 5]] * 4, dtype=np.uint8)
        out = scan_transition_vectors(vectors)
        assert out[0].tolist() == [0, 1, 2, 3, 4, 5]

    def test_rejects_1d(self):
        for scan in (scan_transition_vectors, reduce_transition_vectors,
                     lambda vectors: scan_start_states(vectors, 0)):
            with pytest.raises(ValueError):
                scan(np.zeros(5, dtype=np.uint8))


class TestBlockHierarchy:
    @given(st.integers(1, 10 ** 7))
    def test_width_bounds(self, n):
        width = block_width(n)
        assert 1 <= width <= min(n, MAX_BLOCK_WIDTH)
        assert width == n or width >= MIN_BLOCK_WIDTH

    @given(st.integers(2, 10 ** 7))
    def test_depth_counts_levels(self, n):
        levels = [n]
        while levels[-1] > 1:
            levels.append(-(-levels[-1] // block_width(levels[-1])))
        assert scan_depth(n) == len(levels) - 1
        # Work-efficient: every level after the first is at most half
        # as large, so the hierarchy has at most log2(n) + 1 levels.
        assert all(2 * b <= a + 1 for a, b in zip(levels, levels[1:]))

    def test_small_input_depth(self):
        # An 8 KiB request at 31 B chunks: two levels, not log2 steps.
        assert scan_depth(265) == 2
        assert scan_depth(1) == scan_depth(0) == 0


class TestScanColumnOffsets:
    @given(hnp.arrays(np.bool_, st.integers(0, 50)),
           hnp.arrays(np.int64, st.integers(0, 50),
                      elements=st.integers(0, 20)))
    def test_matches_scalar(self, kinds, values):
        n = min(len(kinds), len(values))
        kinds, values = kinds[:n], values[:n]
        m = ColumnOffsetMonoid()
        items = [ColumnOffset(OffsetKind.ABSOLUTE if k
                              else OffsetKind.RELATIVE, int(v))
                 for k, v in zip(kinds, values)]
        expected = exclusive_scan(items, m)
        out_kinds, out_values = scan_column_offsets(kinds, values)
        assert out_values.tolist() == [o.value for o in expected]
        assert out_kinds.tolist() == [o.is_absolute for o in expected]

    def test_figure4(self):
        kinds = np.array([False, False, True, False, False, False])
        values = np.array([1, 1, 0, 1, 0, 0])
        _, entering = scan_column_offsets(kinds, values)
        assert entering.tolist() == [0, 1, 2, 0, 1, 1]

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            scan_column_offsets(np.array([True]), np.array([1, 2]))
