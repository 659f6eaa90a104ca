"""Fused-convert parity: zero-copy output equals the sequential reference.

The convert stage emits string columns as zero-copy CSS slices and
adopts fully populated fixed-width value vectors when the data allows
(rows ascending, fields tiling the CSS), and copies otherwise — the
inline/delimited modes, whose terminators sit between fields, and NULL
literals, which punch holes.  Either way the ``Table`` must equal the
independent :class:`~repro.baselines.sequential.SequentialParser`'s for
every dialect, tagging mode, input and executor schedule.  String
columns on the fused path must additionally be zero-copy slices of the
partition's CSS buffer.
"""

import numpy as np
import pytest

from repro import (
    Dialect,
    ParPaRawParser,
    ParseOptions,
    SerialExecutor,
    ShardedExecutor,
)
from repro.baselines import SequentialParser
from repro.columnar import DataType
from repro.core.options import TaggingMode
from repro.core.stages import ConvertStage, PipelineContext, RawInput
from repro.dfa import dialect_dfa
from repro.errors import ParseError
from repro.utils.timing import StepTimer
from tests.conftest import TRICKY_INPUTS, as_uint8
from tests.kernels.test_parity import DIALECTS

MODES = [TaggingMode.TAGGED, TaggingMode.INLINE, TaggingMode.DELIMITED]


def parse_table(data: bytes, options: ParseOptions, executor=None):
    parser = ParPaRawParser(options, executor=executor)
    return parser.parse(data).table


def assert_matches_sequential(data: bytes, options: ParseOptions,
                              executor=None):
    """The pipeline's table equals the sequential reference's.

    Only the inline/delimited modes may refuse an input (ragged column
    counts, a terminator byte in the data); the reference has no such
    precondition.
    """
    expected = SequentialParser(options).parse(data)
    try:
        got = parse_table(data, options, executor)
    except ParseError:
        assert options.tagging_mode is not TaggingMode.TAGGED, data
        return
    assert got.to_pylist() == expected.to_pylist(), data
    assert got == expected, data


class TestFusedParity:
    @pytest.mark.parametrize(
        "dialect", DIALECTS,
        ids=[f"dialect{i}" for i in range(len(DIALECTS))])
    @pytest.mark.parametrize("mode", MODES, ids=lambda m: m.value)
    def test_dialects_and_modes(self, dialect, mode):
        for data in TRICKY_INPUTS:
            assert_matches_sequential(
                data, ParseOptions(dialect=dialect, tagging_mode=mode))

    @pytest.mark.parametrize("mode", MODES, ids=lambda m: m.value)
    def test_sharded_matches_serial_legacy(self, mode):
        options = ParseOptions(dialect=Dialect.csv(), tagging_mode=mode)
        for data in TRICKY_INPUTS:
            assert_matches_sequential(data, options, ShardedExecutor(
                workers=2, shard_bytes=64, use_processes=False))

    def test_null_literals_and_defaults_parity(self):
        data = (b"alpha,1,x\n"
                b"NA,2,y\n"
                b"gamma,NA,\n"
                b",4,NA\n")
        options = ParseOptions(dialect=Dialect.csv(),
                               null_literals=("NA",))
        assert_matches_sequential(data, options)


class TestZeroCopyStrings:
    def _converted(self, data: bytes, options: ParseOptions):
        """Partition and convert within ONE pipeline execution."""
        executor = SerialExecutor()
        ctx = PipelineContext(options=options,
                              dfa=dialect_dfa(options.dialect),
                              timer=StepTimer())
        raw = as_uint8(data)
        with executor:
            payload = executor.execute(
                ctx, RawInput(raw=raw, input_bytes=raw.size),
                until="partition")
        converted = ConvertStage().run(ctx, payload)
        return payload, converted

    def test_string_columns_share_css_memory(self):
        data = (b"alpha,bravo,charlie\n"
                b"delta,echo,foxtrot\n"
                b"golf,hotel,india\n")
        options = ParseOptions(dialect=Dialect.csv())
        payload, converted = self._converted(data, options)
        strings = [c for c in converted.table.columns
                   if c.field.dtype is DataType.STRING]
        assert strings, "expected string columns in the inferred schema"
        for column in strings:
            assert np.shares_memory(column.data, payload.css)
        assert converted.convert_stats.zero_copy_columns == len(strings)
        assert converted.convert_stats.bytes_copied == 0

    def test_copy_path_does_not_share_css_memory(self):
        """Delimited-mode fields have terminators between them in the
        CSS, so their string columns are copied out."""
        data = b"alpha,bravo\ncharlie,delta\n"
        options = ParseOptions(dialect=Dialect.csv(),
                               tagging_mode=TaggingMode.DELIMITED)
        payload, converted = self._converted(data, options)
        for column in converted.table.columns:
            assert not np.shares_memory(column.data, payload.css)
        assert converted.convert_stats.zero_copy_columns == 0
        assert converted.convert_stats.bytes_copied > 0

    def test_fused_and_copy_stats_cover_all_columns(self):
        data = b"alpha,1\nbravo,2\ncharlie,3\n"
        options = ParseOptions(dialect=Dialect.csv(), infer_types=True)
        _, converted = self._converted(data, options)
        stats = converted.convert_stats
        # One string column is zero-copy; the fused int column writes its
        # values straight into the output buffer, so nothing is re-copied.
        assert stats.zero_copy_columns == 1
        assert stats.bytes_copied == 0
