"""Tests for phase 2: emissions, bitmaps, record/column tags (§3.1-3.2).

The key invariant: the GLOBAL (per-field delimiter bookkeeping) and
CHUNKED (paper-faithful per-chunk offsets + scans) implementations
produce bit-identical field tags; expanded to per-symbol streams, the
global tags equal the chunked sweep's, and both match a scalar
reference walk.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.chunking import chunk_groups
from repro.core.context import determine_contexts
from repro.core.tagging import compute_emissions, expand_symbol_tags, \
    symbol_tags_chunked, tag_chunked, tag_global
from repro.dfa.automaton import Emission
from repro.dfa.csv import dialect_dfa
from repro.dfa.dialects import Dialect
from tests.conftest import TRICKY_INPUTS
from tests.kernels.test_parity import DIALECTS

csv_like = st.text(
    alphabet=st.sampled_from(list('ab",\n')), max_size=100
).map(lambda s: s.encode())


def run_tagging(data: bytes, chunk_size: int = 7, dialect=None):
    dfa = dialect_dfa(dialect or Dialect(strip_carriage_return=False))
    arr = np.frombuffer(data, dtype=np.uint8)
    groups, chunking, padded = chunk_groups(arr, dfa, chunk_size)
    _, starts = determine_contexts(groups, padded)
    emissions, final, invalid = compute_emissions(groups, starts, padded,
                                                  chunking)
    return emissions, final, invalid, chunking, dfa


def reference_tags(dfa, data: bytes):
    """Scalar reference: record/column id per byte."""
    state = dfa.start_state
    record, column = 0, 0
    records, columns = [], []
    for byte in data:
        records.append(record)
        columns.append(column)
        state, emission = dfa.step(state, byte)
        if emission is Emission.RECORD_DELIMITER:
            record += 1
            column = 0
        elif emission is Emission.FIELD_DELIMITER:
            column += 1
    return records, columns


def assert_same_fields(a, b):
    for name in ("data_mask", "delim_positions", "delim_is_record",
                 "field_records", "field_columns"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
    assert a.num_records == b.num_records
    assert a.has_trailing_record == b.has_trailing_record
    assert a.final_state == b.final_state


def assert_same_symbols(a, b):
    for name in ("record_delim", "field_delim", "record_ids", "column_ids"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))


class TestEmissions:
    def test_emissions_match_sequential(self, csv_dfa):
        data = b'a,"b\nc",d\ne,f\n'
        emissions, final, invalid, _, dfa = run_tagging(data, 3)
        _, expected = dfa.simulate(data)
        assert emissions.tolist() == [int(e) for e in expected]
        assert invalid is None

    def test_final_state(self):
        emissions, final, _, _, dfa = run_tagging(b'a,"unclosed', 4)
        assert dfa.state_names[final] == "ENC"

    def test_invalid_position_detected(self):
        # 'a"' drives FLD -> INV at the quote; the automaton *sits* in INV
        # from the next byte on.
        _, _, invalid, _, _ = run_tagging(b'ab"cd,e\n', 3)
        assert invalid == 3

    def test_invalid_none_for_clean_input(self):
        _, _, invalid, _, _ = run_tagging(b"a,b\n", 2)
        assert invalid is None


class TestGlobalTags:
    @given(csv_like, st.integers(1, 13))
    @settings(max_examples=120)
    def test_matches_reference(self, data, chunk_size):
        emissions, final, _, chunking, dfa = run_tagging(data, chunk_size)
        symbols = expand_symbol_tags(tag_global(emissions, final))
        exp_records, exp_columns = reference_tags(dfa, data)
        assert symbols.record_ids.tolist() == exp_records
        assert symbols.column_ids.tolist() == exp_columns

    def test_figure4_tags(self):
        """Bottom of Figure 4: column/record tags of the worked example."""
        data = b'1941,199.99,"Bookcase"\n1938,19.99,"Frame\n' \
               b'""Ribba"", black"\n'
        emissions, final, _, chunking, dfa = run_tagging(data, 10)
        tags = tag_global(emissions, final)
        # Six delimiters: two records of three fields, plus the empty
        # final field after the last record delimiter.
        assert tags.field_columns.tolist() == [0, 1, 2, 0, 1, 2, 0]
        assert tags.field_records.tolist() == [0, 0, 0, 1, 1, 1, 2]
        # First record: '1941' col 0, '199.99' col 1, 'Bookcase' col 2.
        symbols = expand_symbol_tags(tags)
        assert symbols.column_ids[:4].tolist() == [0] * 4
        assert symbols.column_ids[5:11].tolist() == [1] * 6
        assert symbols.record_ids[:23].tolist() == [0] * 23
        assert symbols.record_ids[23:30].tolist() == [1] * 7
        assert tags.num_records == 2

    def test_record_count_with_trailing(self):
        emissions, final, _, _, _ = run_tagging(b"a\nb", 2)
        tags = tag_global(emissions, final)
        assert tags.num_records == 2
        assert tags.has_trailing_record

    def test_no_trailing_after_clean_end(self):
        emissions, final, _, _, _ = run_tagging(b"a\nb\n", 2)
        tags = tag_global(emissions, final)
        assert tags.num_records == 2
        assert not tags.has_trailing_record

    def test_lone_quotes_are_a_record(self):
        # '""' is one record with one empty field (CONTROL content).
        emissions, final, _, _, _ = run_tagging(b'""', 1)
        tags = tag_global(emissions, final)
        assert tags.num_records == 1

    def test_comment_only_input_no_records(self):
        data = b"#just a comment"
        dfa_dialect = Dialect(comment=b"#", strip_carriage_return=False)
        emissions, final, _, chunking, dfa = run_tagging(data, 4,
                                                         dfa_dialect)
        tags = tag_global(emissions, final)
        assert tags.num_records == 0

    def test_empty_input(self):
        emissions, final, _, _, _ = run_tagging(b"", 4)
        tags = tag_global(emissions, final)
        assert tags.num_records == 0
        assert tags.num_fields == 1
        assert expand_symbol_tags(tags).record_ids.size == 0


class TestChunkedEqualsGlobal:
    @given(csv_like, st.integers(1, 13))
    @settings(max_examples=120)
    def test_identical_tags(self, data, chunk_size):
        emissions, final, _, chunking, _ = run_tagging(data, chunk_size)
        a = tag_global(emissions, final)
        b = tag_chunked(emissions, final, chunking)
        assert_same_fields(a, b)
        assert_same_symbols(expand_symbol_tags(a),
                            symbol_tags_chunked(emissions, chunking))

    @pytest.mark.parametrize("chunk_size", [1, 2, 3, 10, 31, 64, 1000])
    def test_paper_example_all_chunk_sizes(self, chunk_size, paper_example):
        emissions, final, _, chunking, _ = run_tagging(paper_example,
                                                       chunk_size)
        a = tag_global(emissions, final)
        b = tag_chunked(emissions, final, chunking)
        assert_same_fields(a, b)
        assert_same_symbols(expand_symbol_tags(a),
                            symbol_tags_chunked(emissions, chunking))

    @pytest.mark.parametrize(
        "dialect", DIALECTS,
        ids=[f"dialect{i}" for i in range(len(DIALECTS))])
    def test_tricky_inputs_all_dialects(self, dialect):
        for data in TRICKY_INPUTS:
            for chunk_size in (1, 5, 8):
                emissions, final, _, chunking, _ = run_tagging(
                    data, chunk_size, dialect)
                a = tag_global(emissions, final)
                assert_same_fields(a, tag_chunked(emissions, final,
                                                  chunking))
                assert_same_symbols(expand_symbol_tags(a),
                                    symbol_tags_chunked(emissions,
                                                        chunking))


class TestFieldGeometry:
    def test_record_of_maps_delimiters_to_their_field(self):
        emissions, final, _, _, _ = run_tagging(b"a,b\ncd\ne", 3)
        tags = tag_global(emissions, final)
        # Bytes 0-3 (incl. the first record delimiter) are record 0.
        assert [tags.record_of(p) for p in range(8)] \
            == [0, 0, 0, 0, 1, 1, 1, 2]
        assert tags.record_positions().tolist() == [3, 6]

    def test_virtual_delimiter_joins_the_last_field(self):
        emissions, final, _, _, _ = run_tagging(b"a,b\nc,d", 3)
        tags = tag_global(emissions, final)
        assert tags.has_trailing_record
        symbols = expand_symbol_tags(tags, virtual_delimiter=True)
        assert symbols.record_ids.tolist() == [0, 0, 0, 0, 1, 1, 1, 1]
        assert symbols.column_ids.tolist() == [0, 0, 1, 1, 0, 0, 1, 1]
        assert symbols.record_delim.tolist()[-1]

    def test_field_arrays_are_per_field(self):
        data = b"x,y,z\n" * 50
        emissions, final, _, _, _ = run_tagging(data, 16)
        tags = tag_global(emissions, final)
        assert tags.num_fields == 151
        assert tags.delim_positions.size == 150
        assert tags.data_mask.size == len(data)
