"""The parsing pipeline as explicit, individually runnable stages.

The monolithic ``ParPaRawParser.parse()`` is decomposed here into the
paper's processing steps, each a :class:`Stage` object with a declared
input/output payload dataclass:

====================  ==================  ==================  ===========
stage                 input               output              timer step
====================  ==================  ==================  ===========
``prune``    (§4.3)   :class:`RawInput`   :class:`RawInput`   ``prune``
``chunk``    (§3)     :class:`RawInput`   :class:`ChunkedInput`  ``chunk``
``stv``      (§3.1)   :class:`ChunkedInput`  :class:`ChunkVectors`  ``parse``
``scan``     (§3.1)   :class:`ChunkVectors`  :class:`ChunkContexts` ``scan``
``tag``      (§3.1-2) :class:`ChunkContexts` :class:`TaggedInput`   ``tag``
``validate`` (§4.3)   :class:`TaggedInput`   :class:`ValidatedInput` ``validate``
``partition``(§3.3)   :class:`ValidatedInput` :class:`PartitionedInput` ``partition``
``convert``  (§3.3)   :class:`PartitionedInput` :class:`ConvertedOutput` ``convert``
====================  ==================  ==================  ===========

The *timer step* column is the paper's step vocabulary (Figures 9/11)
plus ``chunk`` and ``validate``; :class:`StagePipeline` times every stage
under that name, so the step totals account for the whole pipeline.

Each stage has one production implementation.  The paper's GPU
formulations — the chunked tagger (:func:`~repro.core.tagging.tag_chunked`)
and the radix partition (:func:`~repro.core.partition.partition_symbols`)
— are test oracles; a test substitutes them by handing an executor a
:class:`StagePipeline` with its own stage subclasses.

Stages are pure with respect to the :class:`PipelineContext` (options,
automaton, timer): running the same stage twice on the same payload gives
the same result.  This is what makes execution *pluggable*: the
:mod:`repro.exec` executors run the very same stage objects — serially, or
sharded across a process pool with scan-based shard combination.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from repro.columnar.schema import DataType, Field, Schema
from repro.columnar.table import Table
from repro.core.chunking import Chunking, chunk_groups_canonical
from repro.core.context import chunk_start_states, compute_transition_vectors
from repro.core.conversion import CollaborationStats, ConvertStats, \
    convert_column
from repro.core.options import ColumnCountPolicy, ParseOptions, TaggingMode
from repro.core.partition import PartitionResult, partition_fields
from repro.core.selection import prune_rows, row_mapping, selected_column_mask
from repro.core.tagging import TagResult, compute_emissions, tag_global
from repro.core.tagging_modes import column_indexes, prepare_css
from repro.core.typeinfer import infer_column_type
from repro.core.validation import ValidationReport, apply_column_policy, \
    validate_input
from repro.dfa.automaton import Dfa
from repro.dfa.minimize import Minimization
from repro.errors import ParseError
from repro.kernels import (
    compute_emissions_plan,
    compute_transition_vectors_plan,
    get_plan,
    pack_plan,
    resolve_stride,
)
from repro.obs.metrics import NULL_METRICS, MetricsRegistry
from repro.obs.trace import NULL_TRACER, Tracer
from repro.scan.numpy_scan import scan_depth
from repro.utils.timing import StepTimer

__all__ = [
    "PipelineContext",
    "RawInput",
    "ChunkedInput",
    "ChunkVectors",
    "ChunkContexts",
    "TaggedInput",
    "ValidatedInput",
    "PartitionedInput",
    "ConvertedOutput",
    "Stage",
    "PruneStage",
    "ChunkStage",
    "StvStage",
    "ScanStage",
    "TagStage",
    "ValidateStage",
    "PartitionStage",
    "ConvertStage",
    "StagePipeline",
    "default_pipeline",
    "as_input_array",
    "new_array_bytes",
]


# -- context -----------------------------------------------------------------

@dataclass
class PipelineContext:
    """Everything a stage may read besides its payload."""

    #: The options the parse runs with.
    options: ParseOptions
    #: The resolved (unpadded) automaton.
    dfa: Dfa
    #: Accumulates the per-step wall-clock breakdown.
    timer: StepTimer
    #: Span tracer; the shared no-op unless observability is requested.
    tracer: Tracer = NULL_TRACER
    #: Metrics registry; the shared no-op unless requested.
    metrics: MetricsRegistry = NULL_METRICS


# -- stage payloads ----------------------------------------------------------

@dataclass
class RawInput:
    """The parse input as raw bytes (possibly already row-pruned)."""

    #: ``(n,)`` uint8 input bytes.
    raw: np.ndarray
    #: Size of the *original* input, before row pruning (for rates).
    input_bytes: int


@dataclass
class ChunkedInput(RawInput):
    """The input cut into the equal-size chunk grid of §3."""

    #: ``(num_chunks, chunk_size)`` symbol-group matrix (padded).
    groups: np.ndarray
    #: Grid geometry.
    chunking: Chunking
    #: The automaton extended with the padding group.  When
    #: ``minimize_dfa`` is on this is the *canonical minimised* automaton
    #: (plus padding group) and the chunk grid holds canonical group ids.
    padded_dfa: Dfa
    #: The minimisation that produced the canonical automaton — carries
    #: the maps back to the source state space; ``None`` when
    #: ``minimize_dfa`` is off.
    canon: Minimization | None = field(default=None, kw_only=True)


@dataclass
class ChunkVectors(ChunkedInput):
    """Chunked input plus each chunk's state-transition vector (§3.1)."""

    #: ``(num_chunks, num_states)`` uint8 STVs.
    vectors: np.ndarray
    #: Packed k-gram indexes keyed by stride (one matrix per distinct
    #: segment width of the kernel plan), cached by :class:`StvStage` so
    #: :class:`TagStage` reuses the packing pass of the strided kernels;
    #: ``None`` on the unit-stride path.
    packed_kgrams: dict[int, np.ndarray] | None = \
        field(default=None, kw_only=True)


@dataclass
class ChunkContexts(ChunkVectors):
    """Chunk vectors plus every chunk's true start state (post-scan)."""

    #: ``(num_chunks,)`` uint8 start states.
    start_states: np.ndarray


@dataclass
class TaggedInput(RawInput):
    """The input classified and tagged per field (§3.1-§3.2).

    Deliberately grid-free: a sharded executor produces this payload by
    merging per-shard tag results, without ever materialising a global
    chunk grid.
    """

    #: Data bitmap, delimiter positions and per-field record/column tags.
    tags: TagResult
    #: First byte offset at which the automaton sat in the INV sink.
    invalid_position: int | None


@dataclass
class ValidatedInput(TaggedInput):
    """Tagged input after validation, policies and selection (§4.3)."""

    #: Format/column-count findings.
    report: ValidationReport
    #: Output schema, or ``None`` when it is inferred during conversion.
    schema: Schema | None
    #: Column count (declared or inferred).
    num_columns: int
    #: ``(num_columns,)`` bool — columns to materialise.
    column_mask: np.ndarray
    #: ``(num_records,)`` bool — records producing an output row.
    valid_records: np.ndarray
    #: ``(num_records,)`` int64 — dense output row per record (-1 dropped).
    rows_of_record: np.ndarray
    #: Output row count.
    num_rows: int
    #: Records dropped by policy or the invalid tail.
    rejected_records: int
    #: ``(m + 1,)`` bool — fields entering the partition: fields of
    #: surviving records in selected columns.  The last field of a
    #: trailing record ends at a virtual record delimiter past the input.
    field_keep: np.ndarray


@dataclass
class PartitionedInput(ValidatedInput):
    """Validated input with fields partitioned into per-column CSSs."""

    #: The stable column partition and its per-column field index.
    part: PartitionResult
    #: CSS after mode-specific post-processing (§4.1).
    css: np.ndarray


@dataclass
class ConvertedOutput:
    """Final stage output: everything a ParseResult is assembled from."""

    table: Table
    collaboration: CollaborationStats
    report: ValidationReport
    num_records: int
    num_rows: int
    rejected_records: int
    input_bytes: int
    #: Byte-copy accounting of the convert stage (fused-path telemetry).
    convert_stats: ConvertStats = field(default_factory=ConvertStats)


def as_input_array(data: bytes | bytearray | np.ndarray) -> np.ndarray:
    # parlint: returns-borrowed -- frombuffer view of the caller's bytes
    """Coerce parser input to the uint8 array the pipeline operates on."""
    if isinstance(data, np.ndarray):
        if data.dtype != np.uint8:
            raise ParseError("input array must be uint8")
        return data
    return np.frombuffer(bytes(data), dtype=np.uint8)


# -- stages ------------------------------------------------------------------

class Stage:
    """One named phase of the parsing pipeline.

    Subclasses declare their payload contract (``input_type`` /
    ``output_type``) and the step name their wall-clock time is credited
    to (``timer_step``).
    """

    name: ClassVar[str]
    timer_step: ClassVar[str]
    input_type: ClassVar[type] = RawInput
    output_type: ClassVar[type] = RawInput

    def applies(self, ctx: PipelineContext, payload) -> bool:
        """Whether the stage does any work for this parse (default: yes).

        An inapplicable stage is skipped entirely — it neither runs nor
        records a timer entry (the monolith only timed ``prune`` when rows
        were actually pruned).
        """
        return True

    def run(self, ctx: PipelineContext, payload):
        raise NotImplementedError

    def record_metrics(self, metrics: MetricsRegistry, payload) -> None:
        """Credit this stage's output to the metrics registry.

        Called by :meth:`StagePipeline.run_stage` with the stage's output
        payload, only when metrics are enabled.  Default: nothing.
        """

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r}>"


class PruneStage(Stage):
    """Remove skipped physical rows in an initial pass (§4.3)."""

    name = "prune"
    timer_step = "prune"
    input_type = RawInput
    output_type = RawInput

    def applies(self, ctx, payload) -> bool:
        return bool(ctx.options.skip_rows)

    def run(self, ctx, payload: RawInput) -> RawInput:
        raw = prune_rows(payload.raw, ctx.options.skip_rows,
                         ctx.options.dialect.record_delimiter_byte)
        return RawInput(raw=raw, input_bytes=payload.input_bytes)


class ChunkStage(Stage):
    """Cut the input into the chunk grid, one chunk per logical thread.

    With ``ParseOptions.minimize_dfa`` (the default) the grid is built
    over the canonical minimised automaton, so every downstream sweep —
    unit-stride or strided — runs in the smallest equivalent state/group
    space; :class:`TagStage` maps the final state back to the source
    automaton before validation.
    """

    name = "chunk"
    timer_step = "chunk"
    input_type = RawInput
    output_type = ChunkedInput

    def run(self, ctx, payload: RawInput) -> ChunkedInput:
        groups, chunking, padded_dfa, canon = chunk_groups_canonical(
            payload.raw, ctx.dfa, ctx.options.chunk_size,
            minimize=ctx.options.minimize_dfa)
        return ChunkedInput(raw=payload.raw, input_bytes=payload.input_bytes,
                            groups=groups, chunking=chunking,
                            padded_dfa=padded_dfa, canon=canon)

    def record_metrics(self, metrics, payload: ChunkedInput) -> None:
        metrics.count("chunks", payload.chunking.num_chunks)
        metrics.gauge("chunk.size", payload.chunking.chunk_size)


class StvStage(Stage):
    """Phase 1a: per-chunk state-transition vectors (§3.1).

    Timed as ``parse`` — the paper's name for the STV simulation step.
    With a kernel stride > 1 (the default when the dialect's k-gram
    tables fit the budget) the sweep runs on the precomposed strided
    tables from :mod:`repro.kernels`, advancing k symbols per step.
    """

    name = "stv"
    timer_step = "parse"
    input_type = ChunkedInput
    output_type = ChunkVectors

    def run(self, ctx, payload: ChunkedInput) -> ChunkVectors:
        budget = ctx.options.kernel_table_budget
        stride = resolve_stride(ctx.options.kernel_stride,
                                payload.padded_dfa, budget)
        packed = None
        if stride > 1:
            plan = get_plan(payload.padded_dfa, stride,
                            payload.chunking.chunk_size, ctx.metrics)
            packed = pack_plan(payload.groups, plan)
            vectors = compute_transition_vectors_plan(payload.groups,
                                                      plan, packed)
        else:
            vectors = compute_transition_vectors(payload.groups,
                                                 payload.padded_dfa)
        if ctx.metrics.enabled:
            ctx.metrics.gauge("stage.stv.stride", stride)
            ctx.metrics.gauge("kernels.table_budget", budget)
        return ChunkVectors(**payload.__dict__, vectors=vectors,
                            packed_kgrams=packed)


class ScanStage(Stage):
    """Phase 1b: composition scan of the STVs -> chunk start states."""

    name = "scan"
    timer_step = "scan"
    input_type = ChunkVectors
    output_type = ChunkContexts

    def run(self, ctx, payload: ChunkVectors) -> ChunkContexts:
        start_states = chunk_start_states(payload.vectors,
                                          payload.padded_dfa)
        return ChunkContexts(**payload.__dict__, start_states=start_states)

    def record_metrics(self, metrics, payload: ChunkContexts) -> None:
        # Levels of the reduce-then-scan hierarchy over the chunk STVs.
        metrics.gauge("scan.depth", scan_depth(payload.chunking.num_chunks))


class TagStage(Stage):
    """Phase 2: emissions, bitmap indexes and record/column tags."""

    name = "tag"
    timer_step = "tag"
    input_type = ChunkContexts
    output_type = TaggedInput

    @staticmethod
    def tag(emissions: np.ndarray, final_state: int,
            chunking: Chunking) -> TagResult:
        """Per-field tags of the emission stream (:func:`tag_global`)."""
        return tag_global(emissions, final_state)

    def run(self, ctx, payload: ChunkContexts) -> TaggedInput:
        stride = resolve_stride(ctx.options.kernel_stride,
                                payload.padded_dfa,
                                ctx.options.kernel_table_budget)
        if stride > 1:
            plan = get_plan(payload.padded_dfa, stride,
                            payload.chunking.chunk_size, ctx.metrics)
            emissions, final_state, invalid_position = \
                compute_emissions_plan(payload.groups,
                                       payload.start_states, plan,
                                       payload.chunking,
                                       payload.packed_kgrams)
        else:
            emissions, final_state, invalid_position = compute_emissions(
                payload.groups, payload.start_states, payload.padded_dfa,
                payload.chunking)
        if payload.canon is not None:
            # The sweeps ran in canonical state space; report the final
            # state as its source-automaton representative so validation
            # (which speaks the source automaton) reads it directly.
            final_state = int(payload.canon.state_rep[final_state])
        if ctx.metrics.enabled:
            ctx.metrics.gauge("stage.tag.stride", stride)
        tags = self.tag(emissions, final_state, payload.chunking)
        return TaggedInput(raw=payload.raw, input_bytes=payload.input_bytes,
                           tags=tags, invalid_position=invalid_position)


class ValidateStage(Stage):
    """Validation, column-count resolution, policies and selection (§4.3).

    Everything between tagging and partitioning: the validation report,
    structural/policy record masks, the row mapping and the per-field
    partition keep flags — all per record or per field, never per symbol.
    """

    name = "validate"
    timer_step = "validate"
    input_type = TaggedInput
    output_type = ValidatedInput

    def run(self, ctx, payload: TaggedInput) -> ValidatedInput:
        options = ctx.options
        tags = payload.tags
        report = validate_input(tags, ctx.dfa, payload.invalid_position,
                                options.strict)

        # Records that exist structurally: everything except skipped
        # records and the invalid tail.  Column-count inference runs over
        # these (the §4.3 max-reduction), *before* the count policy.
        structural = self._structural_records(options, tags, report)
        schema, num_columns = self._resolve_column_count(options, report,
                                                         structural)
        column_mask = selected_column_mask(num_columns,
                                           options.select_columns)

        valid_records = structural & self._policy_records(
            options, tags, report, num_columns)
        rows_of_record, num_rows = row_mapping(valid_records)
        rejected = int(tags.num_records - num_rows)

        if options.tagging_mode is not TaggingMode.TAGGED:
            self._require_consistent_columns(report, valid_records,
                                             num_columns)
        field_keep = self._field_keep(tags, valid_records, column_mask,
                                      num_columns)

        return ValidatedInput(
            **payload.__dict__,
            report=report,
            schema=schema,
            num_columns=num_columns,
            column_mask=column_mask,
            valid_records=valid_records,
            rows_of_record=rows_of_record,
            num_rows=num_rows,
            rejected_records=rejected,
            field_keep=field_keep,
        )

    def record_metrics(self, metrics, payload: ValidatedInput) -> None:
        metrics.count("records", payload.tags.num_records)
        metrics.count("records.rejected", payload.rejected_records)
        metrics.gauge("columns", payload.num_columns)

    # -- helpers (the monolith's private methods, verbatim semantics) -------

    @staticmethod
    def _resolve_column_count(options: ParseOptions, report,
                              structural: np.ndarray
                              ) -> tuple[Schema | None, int]:
        """The output schema (None = infer later) and the column count.

        Without a schema the count is inferred as the maximum field count
        over structurally present records (paper §4.3) — rejected-by-policy
        records still participate; invalid-tail/skipped records do not.
        """
        if options.schema is not None:
            return options.schema, len(options.schema)
        counts = report.field_counts[structural]
        inferred = int(counts.max()) if counts.size else 0
        return None, inferred

    @staticmethod
    def _structural_records(options: ParseOptions, tags: TagResult,
                            report) -> np.ndarray:
        """Records that exist at all: not skipped, not in the invalid tail."""
        valid = np.ones(tags.num_records, dtype=bool)
        if options.skip_records:
            skip = np.array(sorted(r for r in options.skip_records
                                   if 0 <= r < tags.num_records),
                            dtype=np.int64)
            valid[skip] = False
        if report.invalid_position is not None and tags.num_records:
            first_bad = tags.record_of(report.invalid_position)
            valid[first_bad:] = False
        return valid

    @staticmethod
    def _policy_records(options: ParseOptions, tags: TagResult, report,
                        num_columns: int) -> np.ndarray:
        """Records surviving the column-count policy and tail checks."""
        valid = apply_column_policy(report, num_columns,
                                    options.column_count_policy,
                                    options.strict)
        if tags.has_trailing_record and not report.end_accepted \
                and tags.num_records:
            # Truncated trailing record (e.g. unclosed quote): reject it in
            # REJECT/STRICT modes, keep best-effort data in LENIENT mode.
            if options.column_count_policy is not ColumnCountPolicy.LENIENT:
                valid[tags.num_records - 1] = False
        return valid

    @staticmethod
    def _field_keep(tags: TagResult, valid_records: np.ndarray,
                    column_mask: np.ndarray, num_columns: int) -> np.ndarray:
        """One keep flag per field: surviving record, selected column.

        The last field of an input without a trailing record carries
        record ``num_records`` (one past the end) and is never kept.
        """
        record_ok = np.zeros(tags.num_records + 1, dtype=bool)
        record_ok[:tags.num_records] = valid_records
        column_ok = np.zeros(num_columns + 1, dtype=bool)
        column_ok[:num_columns] = column_mask
        keep = record_ok[tags.field_records]
        keep &= column_ok[np.minimum(tags.field_columns, num_columns)]
        return keep

    @staticmethod
    def _require_consistent_columns(report, valid_records: np.ndarray,
                                    num_columns: int) -> None:
        counts = report.field_counts[valid_records] \
            if report.field_counts.size else report.field_counts
        if counts.size and (int(counts.min()) != num_columns
                            or int(counts.max()) != num_columns):
            raise ParseError(
                "inline/delimited tagging modes require a constant number "
                f"of columns per record (expected {num_columns}, observed "
                f"{int(counts.min())}..{int(counts.max())}); use "
                "TaggingMode.TAGGED or ColumnCountPolicy.REJECT")


class PartitionStage(Stage):
    """Phase 3a: stable column partition + CSS post-processing (§3.3).

    The field partition (:func:`partition_fields`): a stable counting
    sort of the kept fields by column and one byte gather per column.
    """

    name = "partition"
    timer_step = "partition"
    input_type = ValidatedInput
    output_type = PartitionedInput

    def run(self, ctx, payload: ValidatedInput) -> PartitionedInput:
        options = ctx.options
        part = self.partition(options, payload)
        css = prepare_css(options.tagging_mode, part, options)
        return PartitionedInput(**payload.__dict__, part=part, css=css)

    @staticmethod
    def partition(options: ParseOptions,
                  payload: ValidatedInput) -> PartitionResult:
        """The column partition of the validated fields."""
        tags = payload.tags
        return partition_fields(
            payload.raw, tags.data_mask, tags.delim_positions,
            tags.field_columns, tags.field_records, payload.field_keep,
            payload.num_columns,
            terminated=options.tagging_mode is not TaggingMode.TAGGED,
            end_byte=options.dialect.record_delimiter_byte)

    def record_metrics(self, metrics, payload: PartitionedInput) -> None:
        metrics.gauge("partition.fields", payload.part.num_fields)


class ConvertStage(Stage):
    """Phase 3b: CSS indexes, schema inference and typed conversion."""

    name = "convert"
    timer_step = "convert"
    input_type = PartitionedInput
    output_type = ConvertedOutput

    def run(self, ctx, payload: PartitionedInput) -> ConvertedOutput:
        options = ctx.options
        mode = options.tagging_mode
        part, css = payload.part, payload.css
        num_columns, num_rows = payload.num_columns, payload.num_rows

        indexes = column_indexes(mode, part)
        schema = payload.schema
        if schema is None:
            schema = self._infer_schema(options, part, css, indexes,
                                        num_columns)
        columns = []
        out_fields = []
        collaboration = CollaborationStats()
        convert_stats = ConvertStats()
        for column in range(num_columns):
            if not payload.column_mask[column]:
                continue
            field = schema[column]
            lo = int(part.column_offsets[column])
            hi = int(part.column_offsets[column + 1])
            column_css = css[lo:hi]
            index = indexes[column]
            if mode is TaggingMode.TAGGED:
                row_of = payload.rows_of_record
            else:
                row_of = np.arange(num_rows, dtype=np.int64)
                if index.num_fields != num_rows:
                    raise ParseError(
                        f"column {column} materialised "
                        f"{index.num_fields} fields for {num_rows} "
                        f"records; inline/delimited tagging requires a "
                        f"consistent column count")
            converted, stats = convert_column(
                field, column_css, index, row_of, num_rows, options,
                convert_stats)
            columns.append(converted)
            out_fields.append(field)
            collaboration = collaboration + stats

        table = Table(Schema(out_fields), columns)
        return ConvertedOutput(
            table=table,
            collaboration=collaboration,
            report=payload.report,
            num_records=payload.tags.num_records,
            num_rows=num_rows,
            rejected_records=payload.rejected_records,
            input_bytes=payload.input_bytes,
            convert_stats=convert_stats,
        )

    def record_metrics(self, metrics, payload: ConvertedOutput) -> None:
        metrics.count("rows", payload.num_rows)
        metrics.count("fields",
                      payload.num_rows * payload.table.num_columns)
        metrics.count("bytes.out",
                      sum(col.data.nbytes
                          + (col.offsets.nbytes if col.offsets is not None
                             else 0)
                          for col in payload.table.columns))
        metrics.count("convert.bytes.copied",
                      payload.convert_stats.bytes_copied)
        metrics.count("convert.zero_copy_columns",
                      payload.convert_stats.zero_copy_columns)

    @staticmethod
    def _infer_schema(options: ParseOptions, part, css: np.ndarray,
                      indexes, num_columns: int) -> Schema:
        """Schema when none was given: inferred types or all strings."""
        fields = []
        for column in range(num_columns):
            if options.infer_types:
                lo = int(part.column_offsets[column])
                hi = int(part.column_offsets[column + 1])
                dtype = infer_column_type(css[lo:hi], indexes[column])
            else:
                dtype = DataType.STRING
            fields.append(Field(f"col{column}", dtype))
        return Schema(fields)


# -- payload accounting ------------------------------------------------------

def _array_buffers(payload) -> dict[int, int]:
    """Identity -> bytes of every buffer the payload's arrays live in.

    Walks the payload's dataclass fields, nested package objects
    (tag/partition results, tables, columns) and containers; views
    count towards the buffer they look into, once.
    """
    buffers: dict[int, int] = {}
    seen: set[int] = set()
    stack = [payload]
    while stack:
        item = stack.pop()
        if id(item) in seen:
            continue
        seen.add(id(item))
        if isinstance(item, np.ndarray):
            root = item
            while isinstance(root.base, np.ndarray):
                root = root.base
            owner = root if root.base is None else root.base
            buffers[id(owner)] = max(buffers.get(id(owner), 0), root.nbytes)
        elif isinstance(item, (list, tuple)):
            stack.extend(item)
        elif isinstance(item, dict):
            stack.extend(item.values())
        elif type(item).__module__.startswith("repro.") \
                and hasattr(item, "__dict__"):
            stack.extend(vars(item).values())
    return buffers


def new_array_bytes(before, after) -> int:
    """Bytes of the ndarray buffers ``after`` holds that ``before`` lacks
    — what a stage allocated into its output payload (the
    ``stage.<name>.bytes`` gauge)."""
    old = _array_buffers(before)
    return sum(nbytes for key, nbytes in _array_buffers(after).items()
               if key not in old)


# -- the pipeline ------------------------------------------------------------

class StagePipeline:
    """An ordered sequence of stages with timed, resumable execution.

    Executors drive this object: :class:`~repro.exec.SerialExecutor` runs
    every stage in order; :class:`~repro.exec.ShardedExecutor` replaces the
    ``stv``/``scan``/``tag`` segment with its process-pool equivalent and
    re-enters the pipeline at ``validate``.
    """

    def __init__(self, stages: tuple[Stage, ...] | list[Stage]):
        self.stages: tuple[Stage, ...] = tuple(stages)
        if not self.stages:
            raise ValueError("a pipeline needs at least one stage")
        names = [stage.name for stage in self.stages]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate stage names: {names}")
        self._index = {name: i for i, name in enumerate(names)}

    @property
    def stage_names(self) -> tuple[str, ...]:
        return tuple(stage.name for stage in self.stages)

    def stage(self, name: str) -> Stage:
        """Look a stage up by name."""
        return self.stages[self.index_of(name)]

    def index_of(self, name: str) -> int:
        if name not in self._index:
            raise KeyError(f"unknown stage {name!r}; "
                           f"have {self.stage_names}")
        return self._index[name]

    def run_stage(self, stage: Stage, ctx: PipelineContext, payload):
        """Run one stage, timing it under its paper step name.

        With observability off (the default ``NULL_TRACER``/``NULL_METRICS``
        context) this takes the exact pre-observability path after two
        attribute reads, so the disabled overhead is negligible.
        """
        if not stage.applies(ctx, payload):
            return payload
        tracer, metrics = ctx.tracer, ctx.metrics
        if not tracer.enabled and not metrics.enabled:
            with ctx.timer.step(stage.timer_step):
                return stage.run(ctx, payload)
        start = time.perf_counter()
        before = payload
        with tracer.span(f"stage:{stage.name}", step=stage.timer_step):
            with ctx.timer.step(stage.timer_step):
                payload = stage.run(ctx, payload)
        if metrics.enabled:
            metrics.observe(f"stage.{stage.name}.seconds",
                            time.perf_counter() - start)
            metrics.gauge(f"stage.{stage.name}.bytes",
                          new_array_bytes(before, payload))
            stage.record_metrics(metrics, payload)
        return payload

    def run(self, ctx: PipelineContext, payload, *,
            start: str | None = None, until: str | None = None):
        """Run stages ``start``..``until`` (inclusive, by name) in order."""
        lo = 0 if start is None else self.index_of(start)
        hi = len(self.stages) - 1 if until is None else self.index_of(until)
        if hi < lo:
            raise ValueError(f"until={until!r} precedes start={start!r}")
        for stage in self.stages[lo:hi + 1]:
            payload = self.run_stage(stage, ctx, payload)
        return payload


_DEFAULT_STAGES = (PruneStage, ChunkStage, StvStage, ScanStage, TagStage,
                   ValidateStage, PartitionStage, ConvertStage)
_default: StagePipeline | None = None


def default_pipeline() -> StagePipeline:
    """The canonical eight-stage ParPaRaw pipeline (shared instance)."""
    global _default
    if _default is None:
        _default = StagePipeline(tuple(cls() for cls in _DEFAULT_STAGES))
    return _default
