"""Partition parity: the field partition is bit-identical to radix.

For every dialect, tagging mode, input and executor schedule, the
production field partition (:func:`~repro.core.partition.partition_fields`)
produces exactly the partition the stable radix-sort oracle
(:func:`~repro.core.partition.partition_symbols`, substituted through
``tests.oracles``) produces over the expanded per-symbol tags — same
``css``, ``column_offsets`` and per-column ``(records, offsets,
lengths)`` field index — and the same final table.
"""

import numpy as np
import pytest

from repro import (
    ColumnCountPolicy,
    Dialect,
    ParPaRawParser,
    ParseOptions,
    SerialExecutor,
    ShardedExecutor,
)
from repro.core.options import TaggingMode
from repro.core.stages import PipelineContext, RawInput
from repro.dfa import dialect_dfa
from repro.errors import ParseError
from repro.utils.timing import StepTimer
from tests.conftest import TRICKY_INPUTS, as_uint8
from tests.exec.test_executors import assert_results_match
from tests.kernels.test_parity import DIALECTS
from tests.oracles import PartitionStrategy, TaggingImpl, serial_executor, \
    sharded_executor

MODES = [TaggingMode.TAGGED, TaggingMode.INLINE, TaggingMode.DELIMITED]


def radix_executor():
    """Serial schedule with the radix oracle and the production tagger."""
    return serial_executor(TaggingImpl.GLOBAL, PartitionStrategy.RADIX)


def partition_result(data: bytes, options: ParseOptions, executor=None):
    """Run the pipeline up to (and including) the partition stage."""
    executor = executor or SerialExecutor()
    ctx = PipelineContext(options=options,
                          dfa=dialect_dfa(options.dialect),
                          timer=StepTimer())
    raw = as_uint8(data)
    with executor:
        payload = executor.execute(
            ctx, RawInput(raw=raw, input_bytes=raw.size),
            until="partition")
    return payload.part


def assert_parts_identical(a, b):
    np.testing.assert_array_equal(a.css, b.css)
    np.testing.assert_array_equal(a.column_offsets, b.column_offsets)
    assert a.num_columns == b.num_columns
    assert a.terminated == b.terminated
    for column in range(a.num_columns):
        for x, y in zip(a.column_fields(column), b.column_fields(column)):
            np.testing.assert_array_equal(x, y)


def assert_tables_identical(data: bytes, options: ParseOptions, oracle,
                            executor=None):
    """The table of ``executor`` (default serial) equals ``oracle``'s."""
    with oracle:
        expected = ParPaRawParser(options, executor=oracle).parse(data)
    with executor or SerialExecutor() as ex:
        got = ParPaRawParser(options, executor=ex).parse(data)
    assert got.table.to_pylist() == expected.table.to_pylist()
    assert got.num_rows == expected.num_rows


class TestStrategyParity:
    @pytest.mark.parametrize(
        "dialect", DIALECTS,
        ids=[f"dialect{i}" for i in range(len(DIALECTS))])
    @pytest.mark.parametrize("mode", MODES, ids=lambda m: m.value)
    def test_dialects_and_modes(self, dialect, mode):
        for data in TRICKY_INPUTS:
            options = ParseOptions(dialect=dialect, tagging_mode=mode,
                                   chunk_size=8)
            # Inline/delimited modes reject ragged column counts — the
            # partitions must then agree on the *rejection* too.
            try:
                radix = partition_result(data, options, radix_executor())
            except ParseError:
                with pytest.raises(ParseError):
                    partition_result(data, options)
                continue
            assert_parts_identical(radix, partition_result(data, options))
            assert_tables_identical(data, options, radix_executor())

    @pytest.mark.parametrize(
        "dialect", DIALECTS,
        ids=[f"dialect{i}" for i in range(len(DIALECTS))])
    @pytest.mark.parametrize("mode", MODES, ids=lambda m: m.value)
    def test_dialects_and_modes_sharded(self, dialect, mode):
        """Sharded field partitions equal the serial radix oracle's."""
        def executor():
            return ShardedExecutor(workers=2, shard_bytes=16,
                                   use_processes=False)

        for data in TRICKY_INPUTS:
            options = ParseOptions(dialect=dialect, tagging_mode=mode,
                                   chunk_size=8)
            try:
                oracle = partition_result(data, options, radix_executor())
            except ParseError:
                with pytest.raises(ParseError):
                    partition_result(data, options, executor=executor())
                continue
            sharded = partition_result(data, options, executor=executor())
            assert_parts_identical(oracle, sharded)
            assert_tables_identical(data, options, radix_executor(),
                                    executor())

    @pytest.mark.parametrize("mode", MODES, ids=lambda m: m.value)
    def test_selection_and_record_policies(self, mode):
        """Column selection, skipped records and rejected records reach
        both partitions' keep decisions identically."""
        for data in TRICKY_INPUTS:
            options = ParseOptions(
                dialect=Dialect(strip_carriage_return=False),
                tagging_mode=mode, chunk_size=8, select_columns=(1, 2),
                skip_records=frozenset({1}),
                column_count_policy=ColumnCountPolicy.REJECT)
            try:
                radix = partition_result(data, options, radix_executor())
            except ParseError:
                with pytest.raises(ParseError):
                    partition_result(data, options)
                continue
            assert_parts_identical(radix, partition_result(data, options))

    def test_chunked_tagging_impl(self):
        """The paper's formulation end to end — the chunked tagger feeding
        the radix partition — gives the production partition."""
        options = ParseOptions(dialect=Dialect(strip_carriage_return=False),
                               chunk_size=8)
        for data in TRICKY_INPUTS:
            paper = partition_result(data, options, serial_executor())
            assert_parts_identical(paper, partition_result(data, options))

    @pytest.mark.parametrize("workers,shard_bytes", [(2, 64), (3, 48)])
    def test_sharded_schedule(self, workers, shard_bytes):
        """Each partition produces the same result on the sharded
        executor as on the serial schedule."""
        options = ParseOptions(dialect=Dialect(strip_carriage_return=False),
                               chunk_size=8)
        for data in TRICKY_INPUTS:
            for strategy in PartitionStrategy:
                serial = partition_result(
                    data, options,
                    serial_executor(TaggingImpl.GLOBAL, strategy))
                sharded = partition_result(
                    data, options,
                    executor=sharded_executor(strategy, workers=workers,
                                              shard_bytes=shard_bytes,
                                              use_processes=False))
                assert_parts_identical(serial, sharded)

    @pytest.mark.parametrize("strategy", list(PartitionStrategy))
    def test_end_to_end_tables_match_sharded(self, strategy):
        executor = sharded_executor(strategy, workers=2, shard_bytes=64,
                                    use_processes=False)
        with executor:
            for data in TRICKY_INPUTS:
                assert_results_match(
                    data,
                    ParseOptions(
                        dialect=Dialect(strip_carriage_return=False),
                        chunk_size=8),
                    executor)


class TestOneProductionPath:
    def test_pipeline_partitions_fields(self):
        """The production stage is the field partition: no per-symbol
        permutation, unlike the radix oracle."""
        data = b"a,b\nc,d\n"
        options = ParseOptions(dialect=Dialect(strip_carriage_return=False))
        assert partition_result(data, options).order is None
        assert partition_result(data, options, radix_executor()).order \
            is not None

    @pytest.mark.parametrize("option", ["tagging_impl", "partition_strategy",
                                        "fused_convert",
                                        "vectorized_conversion"])
    def test_retired_options_rejected(self, option):
        with pytest.raises(TypeError, match=option):
            ParseOptions(**{option: None})

    def test_metrics_record_partitioned_fields(self):
        from repro.core.parser import parse_bytes
        from repro.obs import MetricsRegistry
        metrics = MetricsRegistry()
        parse_bytes(b"a,b\nc,d\n", metrics=metrics,
                    options=ParseOptions(
                        dialect=Dialect(strip_carriage_return=False)))
        assert metrics.gauges["partition.fields"] == 4
        assert "stage.partition.strategy" not in metrics.gauges
