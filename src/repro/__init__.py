"""ParPaRaw reproduction: massively parallel parsing of delimiter-separated
raw data.

Reproduces Stehle & Jacobsen, *ParPaRaw: Massively Parallel Parsing of
Delimiter-Separated Raw Data*, VLDB 2020 — a data-parallel DFA-based
parsing pipeline, here executed on a vectorised NumPy substrate with a
calibrated GPU cost model for the paper's performance experiments.

Quick start::

    from repro import parse_bytes

    result = parse_bytes(b'id,name\n1,"Billy, the bookcase"\n')
    print(result.table.to_pylist())

Main entry points:

* :func:`repro.parse_bytes` / :class:`repro.ParPaRawParser` — the parser;
* :class:`repro.ParseOptions` — dialects, schemas, tagging modes,
  capabilities;
* :class:`repro.StreamingParser` — incremental parsing with record
  carry-over;
* :class:`repro.Planner` / ``ParseOptions(plan="auto")`` — the
  self-tuning configuration planner (:mod:`repro.plan`);
* :mod:`repro.exec` — pluggable execution backends
  (:class:`repro.SerialExecutor`, :class:`repro.ShardedExecutor`);
* :mod:`repro.dfa` — custom parsing rules as DFAs;
* :mod:`repro.gpusim` — the GPU execution model and data structures
  (MFIRA, SWAR);
* :mod:`repro.baselines` — comparison parsers;
* :mod:`repro.workloads` — synthetic dataset generators.
"""

from repro.columnar import Column, DataType, Field, Schema, Table
from repro.core import (
    ParPaRawParser,
    ParseOptions,
    ParseResult,
    TaggingMode,
    parse_bytes,
)
from repro.core.options import ColumnCountPolicy
from repro.dfa import Dialect, DfaBuilder, dialect_dfa, rfc4180_dfa
from repro.exec import Executor, SerialExecutor, ShardedExecutor
from repro.errors import (
    ConversionError,
    DfaError,
    DialectError,
    ParseError,
    ReproError,
    SchemaError,
)
from repro.plan import InputStats, PlanDecision, Planner
from repro.streaming import StreamingParser

__version__ = "1.0.0"

__all__ = [
    "parse_bytes",
    "ParPaRawParser",
    "ParseOptions",
    "ParseResult",
    "TaggingMode",
    "ColumnCountPolicy",
    "StreamingParser",
    "Planner",
    "PlanDecision",
    "InputStats",
    "Executor",
    "SerialExecutor",
    "ShardedExecutor",
    "Dialect",
    "DfaBuilder",
    "dialect_dfa",
    "rfc4180_dfa",
    "Schema",
    "Field",
    "DataType",
    "Table",
    "Column",
    "ReproError",
    "ParseError",
    "DialectError",
    "DfaError",
    "SchemaError",
    "ConversionError",
    "__version__",
]
