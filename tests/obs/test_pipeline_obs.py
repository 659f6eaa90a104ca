"""Observability wired through the parse pipeline and both executors."""

import os

import pytest

from repro.core import ParPaRawParser, ParseOptions
from repro.core.parser import parse_bytes
from repro.exec import SerialExecutor, ShardedExecutor
from repro.obs import (
    MetricsRegistry,
    Tracer,
    chrome_trace,
    validate_chrome_trace,
)
from repro.scan.numpy_scan import scan_depth

DATA = b"id,price,name\n1,2.5,ant\n2,99.125,bee\n3,0.25,cow\n" * 40


def parse_with_obs(executor=None, data=DATA, **options):
    tracer, metrics = Tracer(), MetricsRegistry()
    result = parse_bytes(data, executor=executor, tracer=tracer,
                         metrics=metrics, **options)
    return result, tracer, metrics


class TestSerialObservability:
    def test_stage_spans_nested_under_parse(self):
        _, tracer, _ = parse_with_obs()
        names = [s.name for s in tracer.spans]
        assert "parse" in names
        assert "executor:serial" in names
        for stage in ("chunk", "stv", "scan", "tag", "validate",
                      "partition", "convert"):
            assert f"stage:{stage}" in names
        parse_span = next(s for s in tracer.spans if s.name == "parse")
        for span in tracer.spans:
            assert parse_span.start <= span.start
            assert span.end <= parse_span.end

    def test_counters_describe_the_parse(self):
        result, _, metrics = parse_with_obs()
        assert metrics.counters["bytes.in"] == len(DATA)
        assert metrics.counters["records"] == result.num_records
        assert metrics.counters["rows"] == result.num_rows
        assert metrics.counters["records.rejected"] == \
            result.rejected_records
        assert metrics.counters["fields"] == \
            result.num_rows * result.table.num_columns
        assert metrics.gauges["columns"] == result.table.num_columns
        assert metrics.counters["bytes.out"] > 0

    def test_stage_durations_recorded(self):
        _, _, metrics = parse_with_obs()
        histograms = metrics.to_dict()["histograms"]
        for stage in ("chunk", "tag", "convert"):
            assert histograms[f"stage.{stage}.seconds"]["count"] == 1

    def test_stage_bytes_gauges(self):
        """Each stage gauges the new array bytes of its output payload:
        tag holds the data bitmap (one byte per input byte) plus
        per-field words; partition holds the CSS plus the field index."""
        result, _, metrics = parse_with_obs()
        for stage in ("chunk", "stv", "scan", "tag", "validate",
                      "partition", "convert"):
            assert f"stage.{stage}.bytes" in metrics.gauges
        assert metrics.gauges["stage.tag.bytes"] >= len(DATA)
        assert metrics.gauges["stage.partition.bytes"] \
            > metrics.gauges["stage.validate.bytes"]
        # Far below the 16 bytes per input byte of per-symbol int64 ids.
        assert metrics.gauges["stage.tag.bytes"] < 8 * len(DATA)

    def test_sharded_tag_bytes_gauge(self):
        _, _, metrics = parse_with_obs(ShardedExecutor(
            workers=2, shard_bytes=500, use_processes=False))
        assert metrics.gauges["stage.tag.bytes"] >= len(DATA)
        assert "stage.partition.bytes" in metrics.gauges

    def test_scan_depth_gauge(self):
        """``scan.depth`` counts the levels of the reduce-then-scan over
        the chunk STVs; the sharded executor reports the same gauge, its
        shards being one more level of blocks."""
        _, _, serial = parse_with_obs()
        num_chunks = -(-len(DATA) // ParseOptions().chunk_size)
        assert serial.gauges["scan.depth"] == scan_depth(num_chunks) == 2
        _, _, whole = parse_with_obs(ShardedExecutor(
            workers=1, use_processes=False))
        assert whole.gauges["scan.depth"] == serial.gauges["scan.depth"]
        # Four 500-byte shards of 17 chunks: two levels in each shard,
        # one for the combine over the shard composites.
        _, _, sharded = parse_with_obs(ShardedExecutor(
            workers=2, shard_bytes=500, use_processes=False))
        assert sharded.gauges["scan.depth"] == 3

    def test_disabled_by_default(self):
        parser = ParPaRawParser(ParseOptions())
        result = parser.parse(DATA)
        assert result.num_rows > 0
        assert parser.tracer.spans == []
        assert parser.tracer.enabled is False
        assert parser.metrics.enabled is False

    def test_trace_exports_valid(self):
        _, tracer, metrics = parse_with_obs()
        assert validate_chrome_trace(chrome_trace(tracer.spans,
                                                  metrics)) == []


class TestShardedObservability:
    @pytest.fixture()
    def sharded(self):
        executor = ShardedExecutor(workers=3, shard_bytes=200,
                                   use_processes=True)
        yield executor
        executor.close()

    def test_worker_spans_from_worker_pids(self, sharded):
        _, tracer, _ = parse_with_obs(executor=sharded)
        worker_spans = [s for s in tracer.spans
                        if s.name.startswith("worker:")]
        assert worker_spans
        worker_pids = {s.pid for s in worker_spans}
        assert os.getpid() not in worker_pids
        names = {s.name for s in tracer.spans}
        assert {"sharded:contexts", "sharded:combine",
                "sharded:tags"} <= names
        # Worker spans carry their shard index.
        shards = {s.attrs["shard"] for s in worker_spans}
        assert len(shards) > 1

    def test_worker_spans_share_the_parent_timeline(self, sharded):
        """perf_counter is system-wide on Linux: worker span intervals
        must fall inside the parent's enclosing phase spans."""
        _, tracer, _ = parse_with_obs(executor=sharded)
        by_name = {}
        for span in tracer.spans:
            by_name.setdefault(span.name, []).append(span)
        (contexts_phase,) = by_name["sharded:contexts"]
        for span in by_name["worker:contexts"]:
            assert contexts_phase.start <= span.start
            assert span.end <= contexts_phase.end + 1e-3

    def test_inline_shards_observe_too(self):
        executor = ShardedExecutor(workers=2, shard_bytes=300,
                                   use_processes=False)
        try:
            _, tracer, metrics = parse_with_obs(executor=executor)
        finally:
            executor.close()
        assert any(s.name == "worker:tags" for s in tracer.spans)
        assert metrics.counters["worker.bytes"] == 2 * len(DATA)


class TestSerialShardedMetricParity:
    """The issue's acceptance bar: merged sharded metrics must match the
    serial counters — both schedules account every record exactly once."""

    PARITY_COUNTERS = ("bytes.in", "records", "records.rejected", "rows",
                      "fields", "bytes.out")

    @pytest.mark.parametrize("shard_bytes", [64, 200, 1000])
    def test_counters_equal(self, shard_bytes):
        _, _, serial = parse_with_obs(executor=SerialExecutor())
        executor = ShardedExecutor(workers=3, shard_bytes=shard_bytes,
                                   use_processes=True)
        try:
            _, _, sharded = parse_with_obs(executor=executor)
        finally:
            executor.close()
        for name in self.PARITY_COUNTERS:
            assert serial.counters.get(name) == sharded.counters.get(name)

    def test_durations_merge_within_tolerance(self):
        """Summed sharded stage durations stay in the same order of
        magnitude as the whole parse (they are wall-clock, so only a
        sanity bound is meaningful)."""
        executor = ShardedExecutor(workers=2, shard_bytes=400,
                                   use_processes=False)
        try:
            _, tracer, metrics = parse_with_obs(executor=executor)
        finally:
            executor.close()
        parse_span = next(s for s in tracer.spans if s.name == "parse")
        histograms = metrics.to_dict()["histograms"]
        worker_total = sum(h["total"] for n, h in histograms.items()
                           if n.startswith("worker."))
        assert 0 < worker_total <= parse_span.duration * 1.5

    def test_messy_input_parity(self):
        data = (b"a,b\n1,2\nrow,with,extra\nonly-one\n"
                b"3,4\n\n5,6\n" * 20)
        _, _, serial = parse_with_obs(executor=SerialExecutor(),
                                      data=data)
        executor = ShardedExecutor(workers=3, shard_bytes=77,
                                   use_processes=False)
        try:
            _, _, sharded = parse_with_obs(executor=executor, data=data)
        finally:
            executor.close()
        for name in self.PARITY_COUNTERS:
            assert serial.counters.get(name) == sharded.counters.get(name)


class TestStreamingObservability:
    def test_partition_spans_and_counters(self):
        from repro.columnar.schema import Schema
        from repro.streaming import StreamingParser

        options = ParseOptions(schema=Schema.all_strings(3))
        tracer, metrics = Tracer(), MetricsRegistry()
        stream = StreamingParser(options, tracer=tracer, metrics=metrics)
        chunks = [DATA[i:i + 500] for i in range(0, len(DATA), 500)]
        for chunk in chunks:
            stream.feed(chunk)
        table = stream.finish()
        assert table.num_rows == DATA.count(b"\n")

        names = [s.name for s in tracer.spans]
        for i in range(len(chunks)):
            assert f"partition:{i}" in names
        assert "boundary" in names
        assert metrics.counters["stream.partitions"] == len(chunks)
        carry = metrics.to_dict()["histograms"]["stream.carry.bytes"]
        assert carry["count"] == len(chunks)

    def test_streaming_defaults_to_noop(self):
        from repro.columnar.schema import Schema
        from repro.streaming import StreamingParser

        stream = StreamingParser(ParseOptions(schema=Schema.all_strings(3)))
        stream.feed(DATA)
        stream.finish()
        assert stream.tracer.enabled is False
        assert stream.tracer.spans == []
