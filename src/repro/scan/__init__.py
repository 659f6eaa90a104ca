"""Parallel prefix-scan substrate.

The prefix scan is the fundamental building block of ParPaRaw (paper §2): the
parsing-context step scans state-transition vectors under *composition*, the
record/column identification step scans counts and rel/abs offsets, and the
radix-sort partition scans histograms.

This subpackage provides:

* a small monoid protocol (:mod:`repro.scan.operators`) with the three
  operators the paper needs — addition, state-transition-vector composition,
  and the rel/abs column-offset operator — plus min/max for type inference;
* reference sequential scans (:mod:`repro.scan.sequential`);
* the classic data-parallel scan algorithms the paper's related work cites:
  Hillis–Steele (:mod:`repro.scan.hillis_steele`), Blelloch work-efficient
  (:mod:`repro.scan.blelloch`), and the Merrill–Garland single-pass scan with
  decoupled look-back (:mod:`repro.scan.decoupled_lookback`) that ParPaRaw
  builds on;
* a segmented scan (:mod:`repro.scan.segmented`);
* vectorised NumPy scans over arrays of state-transition vectors and offset
  pairs (:mod:`repro.scan.numpy_scan`); the production pipeline's chunk
  contexts come from its blocked reduce-then-scan.
"""

from repro.scan.operators import (
    Monoid,
    SumMonoid,
    MaxMonoid,
    MinMonoid,
    TransitionComposeMonoid,
    ColumnOffsetMonoid,
    OffsetKind,
    ColumnOffset,
)
from repro.scan.sequential import (
    inclusive_scan,
    exclusive_scan,
    reduce as scan_reduce,
)
from repro.scan.hillis_steele import hillis_steele_scan
from repro.scan.blelloch import blelloch_scan
from repro.scan.decoupled_lookback import single_pass_scan
from repro.scan.segmented import segmented_inclusive_scan
from repro.scan.hierarchical import (
    warp_scan,
    block_scan,
    hierarchical_device_scan,
)
from repro.scan.numpy_scan import (
    exclusive_sum,
    inclusive_sum,
    compose_vectors,
    scan_transition_vectors,
    scan_column_offsets,
)

__all__ = [
    "Monoid",
    "SumMonoid",
    "MaxMonoid",
    "MinMonoid",
    "TransitionComposeMonoid",
    "ColumnOffsetMonoid",
    "OffsetKind",
    "ColumnOffset",
    "inclusive_scan",
    "exclusive_scan",
    "scan_reduce",
    "hillis_steele_scan",
    "blelloch_scan",
    "single_pass_scan",
    "segmented_inclusive_scan",
    "warp_scan",
    "block_scan",
    "hierarchical_device_scan",
    "exclusive_sum",
    "inclusive_sum",
    "compose_vectors",
    "scan_transition_vectors",
    "scan_column_offsets",
]
