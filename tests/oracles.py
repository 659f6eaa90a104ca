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

:func:`hillis_steele_transition_scan` is the vectorised Hillis–Steele
doubling scan of chunk state-transition vectors that the blocked
:func:`~repro.scan.numpy_scan.scan_transition_vectors` replaced; the
scan suites hold the two bit-identical.

:class:`TaggingImpl` and :class:`PartitionStrategy` name the
implementations a parametrised parity test runs.  The sharded executor
tags in its workers, so on it only the partition substitution applies.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

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
           "sharded_executor", "hillis_steele_transition_scan"]


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


def hillis_steele_transition_scan(vectors: np.ndarray,
                                  exclusive: bool = True) -> np.ndarray:
    """Scan ``(n, S)`` state-transition vectors by Hillis–Steele doubling.

    ⌈log₂ n⌉ vectorised rounds over all ``n`` vectors: in round ``d``
    every row ``i >= 2^d`` composes row ``i - 2^d`` before itself.  Same
    contract as :func:`~repro.scan.numpy_scan.scan_transition_vectors`
    (``O(n log n·S)`` work instead of ``O(n·S)``).
    """
    vectors = np.asarray(vectors)
    if vectors.ndim != 2:
        raise ValueError("expected an (n_chunks, num_states) array")
    n, num_states = vectors.shape
    if n == 0:
        return vectors.copy()
    scanned = vectors.copy()
    offset = 1
    while offset < n:
        combined = np.take_along_axis(scanned[offset:], scanned[:-offset],
                                      axis=-1)
        scanned = scanned.copy()
        scanned[offset:] = combined
        offset *= 2
    if not exclusive:
        return scanned
    out = np.empty_like(scanned)
    out[0] = np.arange(num_states, dtype=scanned.dtype)
    out[1:] = scanned[:-1]
    return out
