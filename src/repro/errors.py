"""Exception hierarchy for the ParPaRaw reproduction.

All library-raised exceptions derive from :class:`ReproError`, so callers can
catch everything from this package with a single ``except`` clause while still
being able to discriminate specific failure modes.
"""

from __future__ import annotations

__all__ = [
    "AdmissionError",
    "CapacityError",
    "ColumnarError",
    "ConversionError",
    "DfaError",
    "DialectError",
    "ExecutorError",
    "ParseError",
    "ProtocolError",
    "ReproError",
    "SchemaError",
    "ServeError",
    "SimulationError",
    "StreamingError",
]


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class DialectError(ReproError):
    """A :class:`~repro.dfa.dialects.Dialect` is internally inconsistent.

    Examples: the field delimiter equals the quote character, or a symbol is
    assigned to two different symbol groups.
    """


class DfaError(ReproError):
    """A DFA definition is malformed (unknown state, missing transition...)."""


class ParseError(ReproError):
    """The input violates the configured format.

    Raised only when :attr:`~repro.core.options.ParseOptions.strict` is
    enabled; otherwise offending records are rejected and reported in the
    :class:`~repro.core.result.ParseResult`.
    """

    def __init__(self, message: str, *, byte_offset: int | None = None,
                 record: int | None = None):
        super().__init__(message)
        #: Byte offset into the raw input where the violation was detected,
        #: if known.
        self.byte_offset = byte_offset
        #: Zero-based record number of the offending record, if known.
        self.record = record


class ConversionError(ReproError):
    """A field could not be converted to the declared column type.

    Raised only in strict mode; otherwise the field is rejected (its
    validity bit is cleared and the per-column reject counter incremented).
    """

    def __init__(self, message: str, *, column: int | None = None,
                 record: int | None = None, text: str | None = None):
        super().__init__(message)
        #: Zero-based column index of the offending field, if known.
        self.column = column
        #: Zero-based record number of the offending field, if known.
        self.record = record
        #: The raw field text that failed to convert, if available.
        self.text = text


class SchemaError(ReproError):
    """A schema is inconsistent with the input or with itself."""


class ColumnarError(SchemaError):
    """A columnar buffer operation or serialised stream is malformed.

    Subclasses :class:`SchemaError` so existing handlers around the
    serialisation round trip keep working; raised for framing problems
    (bad magic, truncation, trailing bytes, length-field overflow) and
    inconsistent buffer geometry.
    """


class CapacityError(ReproError):
    """A bounded container (e.g. MFIRA) was asked to exceed its capacity."""


class SimulationError(ReproError):
    """The GPU execution simulator was configured inconsistently."""


class StreamingError(ReproError):
    """The streaming pipeline was misconfigured or violated a dependency.

    Carries byte-offset diagnostics when the failure is positional — e.g.
    the carry-over growing past ``max_carry_bytes`` records where in the
    stream the runaway (typically an unterminated quoted field) began.
    """

    def __init__(self, message: str, *, byte_offset: int | None = None,
                 carry_bytes: int | None = None):
        super().__init__(message)
        #: Absolute stream offset where the offending region begins
        #: (the first byte of the unflushable carry), if known.
        self.byte_offset = byte_offset
        #: Size of the carry-over at the time of failure, if known.
        self.carry_bytes = carry_bytes


class ExecutorError(ReproError):
    """An execution backend was used after being closed, misconfigured,
    or lost a worker mid-parse."""

    def __init__(self, message: str, *, phase: str | None = None,
                 shard: int | None = None):
        super().__init__(message)
        #: The executor phase that failed (e.g. ``"contexts"``, ``"tags"``),
        #: if known.
        self.phase = phase
        #: Zero-based index of the first shard whose result was lost, if
        #: known.
        self.shard = shard


class ServeError(ReproError):
    """The ingest service was misconfigured, misused, or shut down."""


class AdmissionError(ServeError):
    """The ingest service refused to enqueue a request (backpressure).

    ``retry_after`` is the server's backoff hint in seconds when the
    rejection is transient (a full admission queue); ``None`` means the
    request can never be admitted as-is (e.g. an oversized body).
    """

    def __init__(self, message: str, *, reason: str = "rejected",
                 retry_after: float | None = None):
        super().__init__(message)
        #: Machine-readable rejection reason (``queue-full``,
        #: ``oversized``, ``closed``).
        self.reason = reason
        #: Suggested client backoff in seconds, if the reject is transient.
        self.retry_after = retry_after


class ProtocolError(ServeError):
    """A serve wire frame was malformed (bad magic, truncation, limits)."""
