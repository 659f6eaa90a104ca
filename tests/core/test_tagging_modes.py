"""Unit tests for the tagging-mode mechanics module (§4.1)."""

import numpy as np
import pytest

from repro import ParPaRawParser, SerialExecutor, ShardedExecutor
from repro.core.css import inline_index
from repro.core.options import ParseOptions, TaggingMode
from repro.core.partition import build_keep_mask, partition_by_column
from repro.core.stages import PipelineContext, RawInput
from repro.core.tagging_modes import column_indexes, prepare_css
from repro.dfa import dialect_dfa
from repro.errors import ParseError
from repro.utils.timing import StepTimer
from tests.conftest import TRICKY_INPUTS
from tests.kernels.test_parity import DIALECTS
from tests.oracles import serial_executor


def make_partition(data: bytes, keep, columns, records, num_columns,
                   terminators=None):
    return partition_by_column(
        np.frombuffer(data, dtype=np.uint8),
        np.asarray(keep, dtype=bool),
        np.asarray(columns, dtype=np.int64),
        np.asarray(records, dtype=np.int64), num_columns,
        terminators=None if terminators is None
        else np.asarray(terminators, dtype=bool))


class TestKeepMask:
    DATA = np.array([True, False, True, False], dtype=bool)
    DELIM = np.array([False, True, False, True], dtype=bool)
    OK = np.ones(4, dtype=bool)

    def test_tagged_keeps_data_only(self):
        keep = build_keep_mask(TaggingMode.TAGGED, self.DATA, self.DELIM,
                               self.OK, self.OK)
        assert keep.tolist() == [True, False, True, False]

    def test_inline_keeps_delimiters_too(self):
        keep = build_keep_mask(TaggingMode.INLINE, self.DATA, self.DELIM,
                               self.OK, self.OK)
        assert keep.tolist() == [True, True, True, True]

    def test_filters_apply(self):
        no = np.zeros(4, dtype=bool)
        keep = build_keep_mask(TaggingMode.DELIMITED, self.DATA,
                               self.DELIM, self.OK, no)
        assert not keep.any()


class TestPrepareCss:
    def test_inline_substitutes_terminator(self):
        # 'ab,c\n' with delimiters kept: positions 2 and 4 are delims.
        data = b"ab,c\n"
        keep = [True] * 5
        columns = [0, 0, 0, 1, 1]
        records = [0] * 5
        delim_mask = [False, False, True, False, True]
        part = make_partition(data, keep, columns, records, 2, delim_mask)
        options = ParseOptions(tagging_mode=TaggingMode.INLINE)
        css = prepare_css(TaggingMode.INLINE, part, options)
        assert css.tobytes() == b"ab\x1ec\x1e"
        assert (part.field_starts + part.field_lengths).tolist() == [2, 4]

    def test_inline_rejects_terminator_in_data(self):
        data = b"a\x1e,b\n"
        keep = [True] * 5
        columns = [0, 0, 0, 1, 1]
        records = [0] * 5
        delim_mask = [False, False, True, False, True]
        part = make_partition(data, keep, columns, records, 2, delim_mask)
        options = ParseOptions(tagging_mode=TaggingMode.INLINE)
        with pytest.raises(ParseError, match="terminator"):
            prepare_css(TaggingMode.INLINE, part, options)

    def test_delimited_leaves_bytes_alone(self):
        data = b"a,b\n"
        part = make_partition(data, [True] * 4, [0, 0, 1, 1], [0] * 4, 2,
                              [False, True, False, True])
        options = ParseOptions(tagging_mode=TaggingMode.DELIMITED)
        css = prepare_css(TaggingMode.DELIMITED, part, options)
        assert css.tobytes() == b"a,b\n"
        assert (part.field_starts + part.field_lengths).tolist() == [1, 3]


class TestColumnIndexes:
    def test_tagged_indexes_by_record_runs(self):
        data = b"aabb"
        part = make_partition(data, [True] * 4, [0, 0, 0, 0],
                              [0, 0, 1, 1], 1)
        indexes = column_indexes(TaggingMode.TAGGED, part)
        assert indexes[0].records.tolist() == [0, 1]
        assert indexes[0].lengths.tolist() == [2, 2]

    def test_inline_indexes_by_terminators(self):
        data = b"ab\x1ec\x1e"
        css = np.frombuffer(data, dtype=np.uint8)
        part = make_partition(data, [True] * 5, [0] * 5, [0] * 5, 1,
                              css == 0x1E)
        indexes = column_indexes(TaggingMode.INLINE, part)
        assert indexes[0].lengths.tolist() == [2, 1]
        # Bit-identical to the terminator scan over the CSS.
        oracle = inline_index(css, 0x1E)
        for name in ("records", "offsets", "lengths"):
            assert getattr(indexes[0], name).tolist() \
                == getattr(oracle, name).tolist()


def tag_and_partition(data: bytes, options: ParseOptions, executor=None):
    """Run the pipeline up to the partition stage."""
    ctx = PipelineContext(options=options,
                          dfa=dialect_dfa(options.dialect),
                          timer=StepTimer())
    raw = np.frombuffer(data, dtype=np.uint8)
    with executor or SerialExecutor() as ex:
        return ex.execute(ctx, RawInput(raw=raw, input_bytes=raw.size),
                          until="partition")


class TestModesAcrossDialects:
    """Every dialect x tagging mode x tricky input: the production path
    (global tagger, field partition) against the paper-faithful one
    (chunked tagger, radix partition over per-symbol tags), serial and
    sharded — identical CSS, column offsets, field indexes and tables."""

    @pytest.mark.parametrize(
        "dialect", DIALECTS,
        ids=[f"dialect{i}" for i in range(len(DIALECTS))])
    @pytest.mark.parametrize("mode", list(TaggingMode),
                             ids=lambda m: m.value)
    def test_global_field_path_matches_chunked_radix(self, dialect, mode):
        for data in TRICKY_INPUTS:
            production = ParseOptions(dialect=dialect, tagging_mode=mode,
                                      chunk_size=8)
            try:
                oracle = tag_and_partition(data, production,
                                           serial_executor())
            except ParseError:
                with pytest.raises(ParseError):
                    tag_and_partition(data, production)
                continue
            for executor in (None, ShardedExecutor(
                    workers=2, shard_bytes=8, use_processes=False)):
                got = tag_and_partition(data, production, executor)
                np.testing.assert_array_equal(got.css, oracle.css)
                np.testing.assert_array_equal(got.part.column_offsets,
                                              oracle.part.column_offsets)
                for column in range(oracle.num_columns):
                    for x, y in zip(got.part.column_fields(column),
                                    oracle.part.column_fields(column)):
                        np.testing.assert_array_equal(x, y)
            with serial_executor() as paper:
                expected = ParPaRawParser(production, executor=paper) \
                    .parse(data).table.to_pylist()
            assert ParPaRawParser(production).parse(data).table \
                .to_pylist() == expected
