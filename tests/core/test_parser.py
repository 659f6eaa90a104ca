"""End-to-end parser tests: semantics, options, capabilities (§4.3)."""

import numpy as np
import pytest

from repro import (
    ColumnCountPolicy,
    DataType,
    Dialect,
    Field,
    ParPaRawParser,
    ParseError,
    ParseOptions,
    Schema,
    TaggingMode,
    parse_bytes,
)
from tests.oracles import PartitionStrategy, TaggingImpl, serial_executor


class TestBasics:
    def test_quickstart(self):
        result = parse_bytes(b'a,b\n"x,y",2\n')
        assert result.table.to_pylist() == [
            {"col0": "a", "col1": "b"}, {"col0": "x,y", "col1": "2"}]

    def test_paper_example_typed(self, paper_example):
        schema = Schema([Field("id", DataType.INT64),
                         Field("price", DataType.DECIMAL),
                         Field("name", DataType.STRING)])
        result = parse_bytes(paper_example, schema=schema)
        assert result.table.to_pylist() == [
            {"id": 1941, "price": 19999, "name": "Bookcase"},
            {"id": 1938, "price": 1999, "name": 'Frame\n"Ribba", black'}]

    def test_empty_input(self):
        result = parse_bytes(b"")
        assert result.num_records == 0
        assert result.table.num_rows == 0

    def test_trailing_record(self):
        result = parse_bytes(b"1,2\n3,4")
        assert result.table.to_pylist()[-1] == {"col0": "3", "col1": "4"}

    def test_step_timer_has_paper_steps(self):
        result = parse_bytes(b"a,b\n")
        assert {"parse", "scan", "tag", "partition", "convert"} \
            <= set(result.step_seconds())

    def test_option_kwargs(self):
        result = parse_bytes(b"a;b\n", dialect=Dialect(delimiter=b";"))
        assert result.table.row(0) == ("a", "b")

    def test_rejects_non_uint8_array(self):
        with pytest.raises(ParseError):
            ParPaRawParser().parse(np.zeros(4, dtype=np.int32))

    def test_accepts_uint8_array(self):
        data = np.frombuffer(b"a,b\n", dtype=np.uint8)
        assert ParPaRawParser().parse(data).num_rows == 1


class TestEmptyFieldSemantics:
    def test_empty_fields_null(self):
        result = parse_bytes(b"1,,3\n")
        assert result.table.row(0) == ("1", None, "3")

    def test_quoted_empty_is_null(self):
        # No data symbols -> default/NULL (documented semantics).
        result = parse_bytes(b'1,"",3\n')
        assert result.table.row(0) == ("1", None, "3")

    def test_blank_line_is_single_null_record(self):
        result = parse_bytes(b"a,b\n\nc,d\n")
        rows = result.table.to_pylist()
        assert len(rows) == 3
        assert rows[1] == {"col0": None, "col1": None}

    def test_missing_trailing_fields_null(self):
        schema = Schema.all_strings(3)
        result = parse_bytes(b"a,b\n", schema=schema)
        assert result.table.row(0) == ("a", "b", None)

    def test_extra_fields_dropped(self):
        schema = Schema.all_strings(2)
        result = parse_bytes(b"a,b,c,d\n", schema=schema)
        assert result.table.row(0) == ("a", "b")


class TestChunkAndImplEquivalence:
    @pytest.mark.parametrize("chunk_size", [1, 2, 3, 4, 7, 16, 31, 64, 999])
    def test_chunk_size_invariance(self, paper_example, chunk_size):
        baseline = parse_bytes(paper_example).table.to_pylist()
        result = parse_bytes(paper_example, chunk_size=chunk_size)
        assert result.table.to_pylist() == baseline

    @pytest.mark.parametrize("impl", list(TaggingImpl))
    def test_tagging_impls_agree(self, paper_example, impl):
        baseline = parse_bytes(paper_example).table.to_pylist()
        partition = PartitionStrategy.RADIX \
            if impl is TaggingImpl.CHUNKED else PartitionStrategy.FIELD_RUN
        result = parse_bytes(paper_example, chunk_size=5,
                             executor=serial_executor(impl, partition))
        assert result.table.to_pylist() == baseline

    @pytest.mark.parametrize("mode", list(TaggingMode))
    def test_tagging_modes_agree(self, mode):
        data = b"1,,3\n4,5,6\n7,8,9"
        baseline = parse_bytes(data).table.to_pylist()
        result = parse_bytes(data, tagging_mode=mode)
        assert result.table.to_pylist() == baseline


class TestTaggingModeConstraints:
    def test_inline_requires_consistent_columns(self):
        with pytest.raises(ParseError, match="constant number"):
            parse_bytes(b"1,2\n3\n", tagging_mode=TaggingMode.INLINE)

    def test_inline_rejects_terminator_in_data(self):
        data = b"a\x1eb,c\n"
        with pytest.raises(ParseError, match="terminator"):
            parse_bytes(data, tagging_mode=TaggingMode.INLINE)

    def test_delimited_handles_terminator_in_data(self):
        data = b"a\x1eb,c\n"
        result = parse_bytes(data, tagging_mode=TaggingMode.DELIMITED)
        assert result.table.row(0) == ("a\x1eb", "c")

    def test_reject_policy_enables_inline_on_dirty_input(self):
        data = b"1,2\n3\n4,5\n"
        result = parse_bytes(data, tagging_mode=TaggingMode.INLINE,
                             column_count_policy=ColumnCountPolicy.REJECT)
        assert result.table.to_pylist() == [
            {"col0": "1", "col1": "2"}, {"col0": "4", "col1": "5"}]
        assert result.rejected_records == 1


class TestColumnCountPolicies:
    DATA = b"1,2\n3\n4,5,6\n7,8\n"

    def test_lenient_keeps_all(self):
        result = parse_bytes(self.DATA, schema=Schema.all_strings(2))
        assert result.num_rows == 4
        assert result.table.row(1) == ("3", None)
        assert result.table.row(2) == ("4", "5")

    def test_reject_drops_deviants(self):
        result = parse_bytes(self.DATA, schema=Schema.all_strings(2),
                             column_count_policy=ColumnCountPolicy.REJECT)
        assert result.num_rows == 2
        assert result.rejected_records == 2

    def test_strict_raises(self):
        with pytest.raises(ParseError, match="fields"):
            parse_bytes(self.DATA, schema=Schema.all_strings(2),
                        column_count_policy=ColumnCountPolicy.STRICT)

    def test_validation_report(self):
        result = parse_bytes(self.DATA)
        assert result.validation.min_columns == 1
        assert result.validation.max_columns == 3
        assert result.validation.inferred_num_columns == 3


class TestFormatValidation:
    def test_invalid_tail_rejected_leniently(self):
        # A stray quote mid-field invalidates that record and the rest.
        result = parse_bytes(b'good,row\nbad"row\nnever,seen\n')
        assert result.table.to_pylist() == [{"col0": "good", "col1": "row"}]
        # The offending record is rejected; symbols after the invalid
        # transition sit in the sink and never form further records.
        assert result.rejected_records == 1
        assert result.num_records == 2
        assert result.validation.invalid_position is not None

    def test_strict_raises_on_invalid(self):
        with pytest.raises(ParseError, match="invalid state"):
            parse_bytes(b'bad"row\n', strict=True)

    def test_strict_raises_on_truncated(self):
        with pytest.raises(ParseError, match="non-accepting"):
            parse_bytes(b'a,"unclosed', strict=True)

    def test_lenient_keeps_truncated_trailing(self):
        result = parse_bytes(b'a,"unclosed')
        assert result.table.row(0) == ("a", "unclosed")
        assert not result.validation.end_accepted

    def test_reject_policy_drops_truncated_trailing(self):
        result = parse_bytes(
            b'a,b\nc,"unclosed',
            column_count_policy=ColumnCountPolicy.REJECT)
        assert result.table.to_pylist() == [{"col0": "a", "col1": "b"}]


class TestSelection:
    def test_select_columns(self):
        result = parse_bytes(b"a,b,c\nd,e,f\n", select_columns=(2, 0))
        assert result.table.schema.names == ("col0", "col2")
        assert result.table.to_pylist() == [
            {"col0": "a", "col2": "c"}, {"col0": "d", "col2": "f"}]

    def test_select_out_of_range(self):
        with pytest.raises(ParseError):
            parse_bytes(b"a,b\n", select_columns=(5,))

    def test_skip_records(self):
        result = parse_bytes(b"a\nb\nc\n", skip_records=frozenset({1}))
        assert [r["col0"] for r in result.table.to_pylist()] == ["a", "c"]

    def test_skip_rows_prunes_before_parsing(self):
        # Skipping the row with the opening quote changes how everything
        # after parses — which is why rows are pruned up front (§4.3).
        data = b'keep,1\n"drop,2\nkeep,3\n'
        result = parse_bytes(data, skip_rows=frozenset({1}))
        assert result.table.to_pylist() == [
            {"col0": "keep", "col1": "1"}, {"col0": "keep", "col1": "3"}]

    def test_skip_rows_vs_records_differ(self):
        # A record spanning two rows: skipping row 1 truncates the quoted
        # field; skipping record 1 drops a whole logical record.
        data = b'a,"x\ny",b\nc,d,e\n'
        by_row = parse_bytes(data, skip_rows=frozenset({0}))
        by_record = parse_bytes(data, skip_records=frozenset({0}))
        assert by_record.table.to_pylist() == [
            {"col0": "c", "col1": "d", "col2": "e"}]
        # Pruning row 0 removes the opening quote, leaving a stray close
        # quote that invalidates the remainder — rows are not records.
        assert by_row.validation.invalid_position is not None
        assert by_row.table.to_pylist() != by_record.table.to_pylist()


class TestTypeInference:
    def test_infer_numeric_and_temporal(self):
        data = (b"1,1.5,2020-01-02 03:04:05,x\n"
                b"200,2.25,1999-12-31 23:59:59,y\n")
        result = parse_bytes(data, infer_types=True)
        dtypes = [f.dtype for f in result.table.schema]
        assert dtypes == [DataType.INT16, DataType.FLOAT64,
                          DataType.TIMESTAMP, DataType.STRING]

    def test_no_inference_all_strings(self):
        result = parse_bytes(b"1,2\n")
        assert all(f.dtype is DataType.STRING
                   for f in result.table.schema)

    def test_schema_overrides_inference(self):
        schema = Schema([Field("a", DataType.STRING),
                         Field("b", DataType.STRING)])
        result = parse_bytes(b"1,2\n", schema=schema, infer_types=True)
        assert result.table.schema == schema


class TestComments:
    def test_comments_skipped(self):
        options = ParseOptions(dialect=Dialect.csv_with_comments())
        result = ParPaRawParser(options).parse(
            b'#header "with quote\n1,2\n# another, comment\n3,4\n')
        assert result.table.to_pylist() == [
            {"col0": "1", "col1": "2"}, {"col0": "3", "col1": "4"}]

    def test_comment_only_input(self):
        options = ParseOptions(dialect=Dialect.csv_with_comments())
        result = ParPaRawParser(options).parse(b"#nothing here\n#at all")
        assert result.num_records == 0


class TestRejectsTracking:
    def test_conversion_rejects_counted(self):
        schema = Schema([Field("n", DataType.INT64)])
        result = parse_bytes(b"1\nx\n3\n", schema=schema)
        assert result.table.column("n").to_list() == [1, None, 3]
        assert result.total_rejected_fields == 1

    def test_collaboration_stats_reported(self):
        result = parse_bytes(b'a,' + b'"' + b'y' * 2000 + b'"\n',
                             block_threshold=100, device_threshold=1000)
        assert result.collaboration.device_fields == 1
