"""Test-only stages that run the paper's GPU formulations in the pipeline.

The production pipeline has one implementation per stage.  The parity
suites reach the paper's formulations by substituting these stage
subclasses through the executor's pipeline seam
(``SerialExecutor(pipeline=...)`` / ``ShardedExecutor(pipeline=...)``):

* :class:`ChunkedTagStage` — the §3.2 per-chunk offsets and scans
  (:func:`~repro.core.tagging.tag_chunked`) instead of
  :func:`~repro.core.tagging.tag_global`;
* :class:`RadixPartitionStage` — the §3.3 stable LSD radix sort over
  per-symbol tags (:func:`~repro.core.partition.partition_symbols`)
  instead of :func:`~repro.core.partition.partition_fields`.

:class:`TaggingImpl` and :class:`PartitionStrategy` name the
implementations a parametrised parity test runs.  The sharded executor
tags in its workers, so on it only the partition substitution applies.
"""

from __future__ import annotations

from enum import Enum

from repro.core.partition import partition_symbols
from repro.core.stages import (
    PartitionStage,
    StagePipeline,
    TagStage,
    default_pipeline,
)
from repro.core.tagging import tag_chunked
from repro.exec import SerialExecutor, ShardedExecutor

__all__ = ["TaggingImpl", "PartitionStrategy", "ChunkedTagStage",
           "RadixPartitionStage", "oracle_pipeline", "serial_executor",
           "sharded_executor"]


class TaggingImpl(Enum):
    """The tagger a test runs: production or the paper's chunked one."""

    GLOBAL = "global"
    CHUNKED = "chunked"


class PartitionStrategy(Enum):
    """The partition a test runs: production fields or the radix oracle."""

    RADIX = "radix"
    FIELD_RUN = "field-run"


class ChunkedTagStage(TagStage):
    """Tag stage running the paper's chunked tagger."""

    tag = staticmethod(tag_chunked)


class RadixPartitionStage(PartitionStage):
    """Partition stage running the radix-sort oracle."""

    @staticmethod
    def partition(options, payload):
        return partition_symbols(
            payload.raw, payload.tags, payload.valid_records,
            payload.column_mask, payload.num_columns, options.tagging_mode,
            options.dialect.record_delimiter_byte)


def oracle_pipeline(tagging: TaggingImpl = TaggingImpl.GLOBAL,
                    partition: PartitionStrategy =
                    PartitionStrategy.FIELD_RUN) -> StagePipeline:
    """The default pipeline with the selected stages substituted."""
    substitutes = {}
    if tagging is TaggingImpl.CHUNKED:
        substitutes["tag"] = ChunkedTagStage()
    if partition is PartitionStrategy.RADIX:
        substitutes["partition"] = RadixPartitionStage()
    return StagePipeline([substitutes.get(stage.name, stage)
                          for stage in default_pipeline().stages])


def serial_executor(tagging: TaggingImpl = TaggingImpl.CHUNKED,
                    partition: PartitionStrategy = PartitionStrategy.RADIX
                    ) -> SerialExecutor:
    """A serial executor over :func:`oracle_pipeline` (both oracles by
    default: the paper's formulation end to end)."""
    return SerialExecutor(pipeline=oracle_pipeline(tagging, partition))


def sharded_executor(partition: PartitionStrategy = PartitionStrategy.RADIX,
                     **kwargs) -> ShardedExecutor:
    """A sharded executor over :func:`oracle_pipeline` (radix by default);
    ``kwargs`` go to :class:`ShardedExecutor`."""
    return ShardedExecutor(pipeline=oracle_pipeline(partition=partition),
                           **kwargs)
