"""A working streaming parser: partitioned parsing with record carry-over.

The functional counterpart of the pipeline simulator: feed partitions of
raw bytes in order; each partition is parsed together with the previous
partition's incomplete trailing record (the *carry-over* of §4.4), and the
new incomplete tail is held back for the next partition.  The concatenated
result is bit-identical to parsing the whole input at once (tested for
arbitrary partition sizes).

The carry-over split point must be a *true* record boundary — locating it
requires the parsing context, so the implementation runs the stage
pipeline's phases 1+2 (``chunk``/``stv``/``scan``/``tag``) on the
partition through the configured executor (exactly what the GPU
implementation's tags provide at copy time).  Both the boundary search and
the per-partition parses therefore honour a sharded executor.
"""

from __future__ import annotations

import numpy as np

from repro.columnar.table import Table, concat_tables
from repro.core.options import ParseOptions
from repro.core.parser import ParPaRawParser
from repro.core.stages import PipelineContext, RawInput, TaggedInput
from repro.errors import StreamingError
from repro.obs.metrics import NULL_METRICS, MetricsRegistry
from repro.obs.trace import NULL_TRACER, Tracer
from repro.utils.timing import StepTimer

__all__ = ["StreamingParser", "DEFAULT_MAX_CARRY_BYTES"]

#: Default ceiling for the §4.4 carry-over.  An unterminated quoted field
#: makes every subsequent partition extend the carry instead of flushing
#: it — each ``feed`` then re-tags the whole carry from byte 0 (quadratic
#: work) and the buffer grows until memory runs out.  The default is
#: generous (far larger than any sane record); long-running services set
#: a tighter per-tenant bound.
DEFAULT_MAX_CARRY_BYTES = 256 * 1024 * 1024


class StreamingParser:
    """Incremental parser over a stream of byte partitions.

    Usage::

        stream = StreamingParser(options)
        for partition in partitions:
            stream.feed(partition)
        table = stream.finish()

    A schema is required (or a fixed column count via
    ``options.schema``/``Schema.all_strings``): the output schema must not
    depend on data that has not arrived yet.

    ``executor`` selects the execution backend for both the record-boundary
    search and the per-partition parses (default: serial);
    ``tracer``/``metrics`` attach :mod:`repro.obs` sinks — every partition
    adds one ``partition:<i>`` span enclosing its boundary search and
    parse, on the same timeline as the per-stage spans underneath.

    ``max_carry_bytes`` bounds the carry-over: when no record boundary has
    been seen for that many bytes (the signature of an unterminated quoted
    field) :meth:`feed` raises :class:`~repro.errors.StreamingError` with
    byte-offset diagnostics instead of growing — and re-tagging — the
    carry without limit.  ``None`` disables the bound.

    ``planner`` attaches a :class:`repro.plan.Planner`: with
    ``options.plan == "auto"`` every partition is re-planned against the
    calibration the previous partitions' measured stage timings built up
    (online adaptation); the boundary search itself always runs with the
    configured knobs, so partition splits are plan-independent.

    When the parser creates its own default executor (``executor=None``)
    it owns it: :meth:`close` releases it, and :meth:`parse_file` closes
    it on every path.  An explicitly passed executor stays caller-owned.
    """

    def __init__(self, options: ParseOptions | None = None,
                 executor=None, tracer: Tracer = NULL_TRACER,
                 metrics: MetricsRegistry = NULL_METRICS,
                 max_carry_bytes: int | None = DEFAULT_MAX_CARRY_BYTES,
                 planner=None):
        self.options = options if options is not None else ParseOptions()
        if self.options.schema is None:
            raise StreamingError(
                "streaming requires an explicit schema (column count and "
                "types cannot depend on unseen partitions)")
        if self.options.skip_rows or self.options.skip_records:
            raise StreamingError(
                "row/record skipping is defined on whole inputs; apply it "
                "before streaming")
        if max_carry_bytes is not None and max_carry_bytes <= 0:
            raise StreamingError("max_carry_bytes must be positive or None")
        self._parser = ParPaRawParser(self.options, executor=executor,
                                      tracer=tracer, metrics=metrics,
                                      planner=planner)
        self.planner = self._parser.planner
        self._executor = self._parser.executor
        self._owns_executor = executor is None
        self._dfa = self.options.resolved_dfa()
        self.tracer = tracer
        self.metrics = metrics
        self.max_carry_bytes = max_carry_bytes
        self._carry = b""
        self._tables: list[Table] = []
        self._finished = False
        #: Carry-over sizes per partition (exposed for tests/benchmarks).
        self.carry_sizes: list[int] = []
        #: Records parsed so far.
        self.records_parsed = 0
        #: Total bytes consumed by feed() so far (diagnostics).
        self.bytes_fed = 0
        self._partitions_fed = 0

    # -- streaming ---------------------------------------------------------

    def feed(self, partition: bytes) -> int:
        """Consume one partition; returns records completed by it."""
        if self._finished:
            raise StreamingError("cannot feed after finish()")
        index = self._partitions_fed
        self._partitions_fed += 1
        if not self.tracer.enabled:
            return self._feed(partition)
        with self.tracer.span(f"partition:{index}",
                              partition_bytes=len(partition)):
            return self._feed(partition)

    def _feed(self, partition: bytes) -> int:
        data = self._carry + bytes(partition)
        self.bytes_fed += len(partition)
        if not data:
            return 0
        split = self._last_record_boundary(data)
        complete, self._carry = data[:split], data[split:]
        self.carry_sizes.append(len(self._carry))
        if self.metrics.enabled:
            self.metrics.count("stream.partitions")
            self.metrics.observe("stream.carry.bytes", len(self._carry))
        self._check_carry_bound()
        if not complete:
            return 0
        result = self._parser.parse(complete)
        self._tables.append(result.table)
        self.records_parsed += result.num_rows
        return result.num_rows

    def _check_carry_bound(self) -> None:
        if self.max_carry_bytes is None \
                or len(self._carry) <= self.max_carry_bytes:
            return
        carry = len(self._carry)
        start = self.bytes_fed - carry
        raise StreamingError(
            f"carry-over grew to {carry} bytes without a record boundary "
            f"(max_carry_bytes={self.max_carry_bytes}); no record ends in "
            f"stream bytes [{start}, {self.bytes_fed}) — typically an "
            f"unterminated quoted field opened at or after byte {start}",
            byte_offset=start, carry_bytes=carry)

    @classmethod
    def parse_file(cls, path, options: ParseOptions,
                   partition_bytes: int = 8 * 1024 * 1024,
                   executor=None) -> Table:
        """Parse a file from disk partition by partition.

        Reads ``partition_bytes`` at a time — the whole file is never
        resident — and returns the combined table.  This is the host-side
        analogue of the paper's streaming ingestion (§4.4): each partition
        would be what gets DMA'd to the device.
        """
        if partition_bytes <= 0:
            raise StreamingError("partition_bytes must be positive")
        stream = cls(options, executor=executor)
        try:
            with open(path, "rb") as handle:
                while True:
                    partition = handle.read(partition_bytes)
                    if not partition:
                        break
                    stream.feed(partition)
            return stream.finish()
        finally:
            # The stream owns its executor only when none was passed in;
            # close() is a no-op for caller-owned executors.
            stream.close()

    def finish(self) -> Table:
        """Flush the final carry-over and return the combined table.

        The stream is marked finished only once the flush succeeds: a
        :class:`~repro.errors.ParseError` while parsing the final carry
        leaves the carry (and the stream) intact, so the caller can
        retry ``finish()`` — or feed more bytes — instead of losing the
        tail of the stream.
        """
        if self._finished:
            raise StreamingError("finish() called twice")
        if self._carry:
            result = self._parser.parse(self._carry)
            self._tables.append(result.table)
            self.records_parsed += result.num_rows
            self._carry = b""
        self._finished = True
        if not self._tables:
            empty = self._parser.parse(b"")
            return empty.table
        return concat_tables(self._tables)

    def close(self) -> None:
        """Release the executor if this stream created it; idempotent.

        Caller-provided executors are never touched — the stream only
        owns what it implicitly built (the ``executor=None`` default).
        """
        if self._owns_executor:
            self._executor.close()

    # -- internals ------------------------------------------------------------

    def _last_record_boundary(self, data: bytes) -> int:
        """Offset just past the last *true* record delimiter.

        Runs the pipeline up to and including the ``tag`` stage — the same
        machinery the device uses — so a record delimiter inside an
        enclosed field is never mistaken for a boundary.
        """
        raw = np.frombuffer(data, dtype=np.uint8)
        ctx = PipelineContext(options=self.options, dfa=self._dfa,
                              timer=StepTimer(), tracer=self.tracer,
                              metrics=self.metrics)
        payload = RawInput(raw=raw, input_bytes=int(raw.size))
        if self.tracer.enabled:
            with self.tracer.span("boundary", bytes=int(raw.size)):
                tagged: TaggedInput = self._executor.execute(ctx, payload,
                                                             until="tag")
        else:
            tagged = self._executor.execute(ctx, payload, until="tag")
        boundaries = tagged.tags.record_positions()
        if boundaries.size == 0:
            return 0
        return int(boundaries[-1]) + 1
