"""Strategy parity: the field partition is bit-identical to radix.

For every dialect, tagging mode, input and executor schedule, the field
partition (``partition_strategy="field-run"``, the default) produces
exactly the partition the stable radix-sort oracle produces over the
expanded per-symbol tags — same ``css``, ``column_offsets`` and
per-column ``(records, offsets, lengths)`` field index — and the same
final table.
"""

import numpy as np
import pytest

from repro import (
    Dialect,
    ParPaRawParser,
    ParseOptions,
    PartitionStrategy,
    SerialExecutor,
    ShardedExecutor,
)
from repro.core.options import TaggingImpl, TaggingMode
from repro.core.stages import PartitionStage, PipelineContext, RawInput
from repro.dfa import dialect_dfa
from repro.errors import ParseError
from repro.utils.timing import StepTimer
from tests.conftest import TRICKY_INPUTS, as_uint8
from tests.exec.test_executors import assert_results_match
from tests.kernels.test_parity import DIALECTS

MODES = [TaggingMode.TAGGED, TaggingMode.INLINE, TaggingMode.DELIMITED]


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


def assert_tables_identical(data: bytes, a: ParseOptions, b: ParseOptions,
                            executor=None):
    expected = ParPaRawParser(a).parse(data)
    with executor or SerialExecutor() as ex:
        got = ParPaRawParser(b, executor=ex).parse(data)
    assert got.table.to_pylist() == expected.table.to_pylist()
    assert got.num_rows == expected.num_rows


class TestStrategyParity:
    @pytest.mark.parametrize(
        "dialect", DIALECTS,
        ids=[f"dialect{i}" for i in range(len(DIALECTS))])
    @pytest.mark.parametrize("mode", MODES, ids=lambda m: m.value)
    def test_dialects_and_modes(self, dialect, mode):
        for data in TRICKY_INPUTS:
            base = dict(dialect=dialect, tagging_mode=mode, chunk_size=8)
            # Inline/delimited modes reject ragged column counts — the
            # strategies must then agree on the *rejection* too.
            try:
                radix = partition_result(
                    data, ParseOptions(
                        partition_strategy=PartitionStrategy.RADIX,
                        **base))
            except ParseError:
                for strategy in (PartitionStrategy.FIELD_RUN, None):
                    with pytest.raises(ParseError):
                        partition_result(data, ParseOptions(
                            partition_strategy=strategy, **base))
                continue
            field_run = partition_result(
                data, ParseOptions(
                    partition_strategy=PartitionStrategy.FIELD_RUN,
                    **base))
            auto = partition_result(
                data, ParseOptions(partition_strategy=None, **base))
            assert_parts_identical(radix, field_run)
            assert_parts_identical(radix, auto)
            assert_tables_identical(
                data,
                ParseOptions(partition_strategy=PartitionStrategy.RADIX,
                             **base),
                ParseOptions(**base))

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
            base = dict(dialect=dialect, tagging_mode=mode, chunk_size=8)
            radix = ParseOptions(partition_strategy=PartitionStrategy.RADIX,
                                 **base)
            try:
                oracle = partition_result(data, radix)
            except ParseError:
                with pytest.raises(ParseError):
                    partition_result(data, ParseOptions(**base),
                                     executor=executor())
                continue
            sharded = partition_result(data, ParseOptions(**base),
                                       executor=executor())
            assert_parts_identical(oracle, sharded)
            assert_tables_identical(data, radix, ParseOptions(**base),
                                    executor())

    def test_chunked_tagging_impl(self):
        """The paper-faithful chunked tagger pairs with the GPU-faithful
        radix partition: an explicit field-run request is rejected up
        front with an actionable error, and auto resolves to radix with
        bit-identical partitions."""
        base = dict(dialect=Dialect(strip_carriage_return=False),
                    tagging_impl=TaggingImpl.CHUNKED, chunk_size=8)
        with pytest.raises(ParseError, match="field-run"):
            ParseOptions(partition_strategy=PartitionStrategy.FIELD_RUN,
                         **base)
        for data in TRICKY_INPUTS:
            radix = partition_result(
                data, ParseOptions(
                    partition_strategy=PartitionStrategy.RADIX, **base))
            auto = partition_result(data, ParseOptions(**base))
            assert_parts_identical(radix, auto)

    @pytest.mark.parametrize("workers,shard_bytes", [(2, 64), (3, 48)])
    def test_sharded_schedule(self, workers, shard_bytes):
        """The sharded executor resolves the same strategy and produces
        the same partition as the serial schedule."""
        dialect = Dialect(strip_carriage_return=False)
        for data in TRICKY_INPUTS:
            for strategy in (PartitionStrategy.RADIX,
                             PartitionStrategy.FIELD_RUN, None):
                options = ParseOptions(dialect=dialect, chunk_size=8,
                                       partition_strategy=strategy)
                serial = partition_result(data, options)
                sharded = partition_result(
                    data, options,
                    executor=ShardedExecutor(workers=workers,
                                             shard_bytes=shard_bytes,
                                             use_processes=False))
                assert_parts_identical(serial, sharded)

    @pytest.mark.parametrize("strategy",
                             [PartitionStrategy.FIELD_RUN,
                              PartitionStrategy.RADIX])
    def test_end_to_end_tables_match_sharded(self, strategy):
        executor = ShardedExecutor(workers=2, shard_bytes=64,
                                   use_processes=False)
        with executor:
            for data in TRICKY_INPUTS:
                assert_results_match(
                    data,
                    ParseOptions(
                        dialect=Dialect(strip_carriage_return=False),
                        chunk_size=8, partition_strategy=strategy),
                    executor)


class TestStrategyResolution:
    def test_auto_prefers_field_run_with_positions(self):
        """The production tagger: auto resolves to the field partition."""
        strategy = PartitionStage.resolve_strategy(ParseOptions())
        assert strategy is PartitionStrategy.FIELD_RUN

    def test_auto_falls_back_to_radix_without_positions(self):
        """The paper-faithful chunked tagger: auto resolves to radix."""
        options = ParseOptions(tagging_impl=TaggingImpl.CHUNKED)
        assert PartitionStage.resolve_strategy(options) \
            is PartitionStrategy.RADIX

    def test_explicit_choice_wins(self):
        options = ParseOptions(partition_strategy=PartitionStrategy.RADIX)
        assert PartitionStage.resolve_strategy(options) \
            is PartitionStrategy.RADIX

    def test_options_coerce_strings(self):
        assert ParseOptions(partition_strategy="field-run") \
            .partition_strategy is PartitionStrategy.FIELD_RUN
        assert ParseOptions(partition_strategy="radix") \
            .partition_strategy is PartitionStrategy.RADIX

    def test_options_reject_unknown_strategy(self):
        with pytest.raises(ParseError):
            ParseOptions(partition_strategy="quicksort")

    def test_metrics_record_strategy(self):
        from repro.core.parser import parse_bytes
        from repro.obs import MetricsRegistry
        dialect = Dialect(strip_carriage_return=False)
        metrics = MetricsRegistry()
        parse_bytes(b"a,b\nc,d\n", metrics=metrics,
                    options=ParseOptions(
                        dialect=dialect,
                        partition_strategy=PartitionStrategy.FIELD_RUN))
        assert metrics.gauges["stage.partition.strategy"] == 1.0
        assert metrics.gauges["partition.fields"] > 0

        metrics = MetricsRegistry()
        parse_bytes(b"a,b\nc,d\n", metrics=metrics,
                    options=ParseOptions(
                        dialect=dialect,
                        partition_strategy=PartitionStrategy.RADIX))
        assert metrics.gauges["stage.partition.strategy"] == 0.0
        assert "partition.fields" not in metrics.gauges
