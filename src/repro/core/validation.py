"""Format validation and column-count handling (paper §4.3).

ParPaRaw's DFA simulation makes validation almost free: it is always aware
of the state a symbol is read in, so *invalid state transitions* (the input
drives the automaton into the INV sink) and a *non-accepting end state*
(truncated quoted field, dangling CR...) are detected as a by-product.

Column-count inference and validation follow §4.3: per-record field counts
are derived from the delimiter bitmaps; their maximum (a parallel reduction
in the paper) gives the inferred column count, and deviating records are
kept, rejected, or escalated per the configured policy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.options import ColumnCountPolicy
from repro.core.tagging import TagResult
from repro.dfa.automaton import Dfa
from repro.errors import ParseError

__all__ = ["ValidationReport", "record_field_counts", "validate_input",
           "apply_column_policy"]


@dataclass
class ValidationReport:
    """Everything the validation capabilities learned about the input."""

    #: DFA state after the last symbol.
    final_state: int
    final_state_name: str
    #: Whether the final state is accepting (False = truncated input).
    end_accepted: bool
    #: First byte offset at which the automaton was in the INV sink,
    #: or ``None`` if the input never went invalid.
    invalid_position: int | None
    #: Per-record field counts (length = number of records).
    field_counts: np.ndarray
    #: Minimum / maximum observed columns per record (0 when no records).
    min_columns: int
    max_columns: int

    @property
    def is_valid(self) -> bool:
        return self.end_accepted and self.invalid_position is None

    @property
    def inferred_num_columns(self) -> int:
        """The §4.3 inference: a max-reduction over per-record counts."""
        return self.max_columns


def record_field_counts(tags: TagResult) -> np.ndarray:
    """Fields per record: field delimiters within the record plus one.

    A ``bincount`` over the records of the fields that field delimiters
    terminate (delimiter ``j`` terminates field ``j``).

    Covers the trailing unterminated record; blank-line records count one
    (empty) field, matching the record semantics of the tagger.
    """
    field_delims = ~tags.delim_is_record
    counts = np.bincount(tags.field_records[:-1][field_delims],
                         minlength=tags.num_records).astype(np.int64)
    return counts + 1


def validate_input(tags: TagResult, dfa: Dfa,
                   invalid_position: int | None,
                   strict: bool) -> ValidationReport:
    """Build the validation report; raise in strict mode on violations."""
    final_state = tags.final_state
    end_accepted = dfa.is_accepting(final_state)
    counts = record_field_counts(tags)
    if counts.size:
        min_columns = int(counts.min())
        max_columns = int(counts.max())
    else:
        min_columns = max_columns = 0
    report = ValidationReport(
        final_state=final_state,
        final_state_name=dfa.state_names[final_state],
        end_accepted=end_accepted,
        invalid_position=invalid_position,
        field_counts=counts,
        min_columns=min_columns,
        max_columns=max_columns,
    )
    if strict and invalid_position is not None:
        raise ParseError(
            f"input drives the automaton into the invalid state at byte "
            f"{invalid_position}", byte_offset=invalid_position)
    if strict and not end_accepted:
        raise ParseError(
            f"input ends in non-accepting state "
            f"{report.final_state_name!r} (truncated field?)")
    return report


def apply_column_policy(report: ValidationReport, expected_columns: int,
                        policy: ColumnCountPolicy,
                        strict: bool) -> np.ndarray:
    """Which records survive the column-count policy.

    Returns a boolean mask over records.  ``LENIENT`` keeps everything;
    ``REJECT`` drops records whose field count differs from
    ``expected_columns``; ``STRICT`` raises on the first deviation.
    """
    counts = report.field_counts
    if policy is ColumnCountPolicy.LENIENT:
        return np.ones(counts.size, dtype=bool)
    deviating = counts != expected_columns
    if policy is ColumnCountPolicy.STRICT and bool(deviating.any()):
        first = int(np.flatnonzero(deviating)[0])
        raise ParseError(
            f"record {first} has {int(counts[first])} fields, expected "
            f"{expected_columns}", record=first)
    return ~deviating
