"""The ParPaRaw core algorithm (paper §3-§4).

The pipeline mirrors the paper's processing steps, and the module layout
follows them:

1. :mod:`~repro.core.chunking` — split the input into equal-size chunks
   (one per logical thread), including variable-length symbol boundary
   handling (§4.2);
2. :mod:`~repro.core.context` — per-chunk state-transition vectors and the
   composition scan that yields every chunk's parsing context (§3.1);
3. :mod:`~repro.core.tagging` / :mod:`~repro.core.offsets` — delimiter
   bitmap indexes, record/column offsets via the rel/abs operator scan, and
   per-symbol record/column tags (§3.2);
4. :mod:`~repro.core.partition` / :mod:`~repro.core.css` — stable
   partition of the fields by column, concatenated symbol strings, and
   CSS index generation, in all three tagging modes (§3.3, §4.1);
5. :mod:`~repro.core.conversion` — typed field-value generation with
   thread/block/device collaboration levels (§3.3);
6. capabilities (§4.3): :mod:`~repro.core.validation`,
   :mod:`~repro.core.selection`, :mod:`~repro.core.typeinfer`.

:mod:`~repro.core.stages` expresses the steps as an explicit stage
pipeline (``prune -> chunk -> stv -> scan -> tag -> validate ->
partition -> convert``), scheduled by a pluggable executor from
:mod:`repro.exec`; :class:`~repro.core.parser.ParPaRawParser` is the
one-call facade over it and the library's main entry point.
"""

from repro.core.options import ParseOptions, TaggingMode
from repro.core.parser import ParPaRawParser, parse_bytes
from repro.core.result import ParseResult
from repro.core.stages import StagePipeline, default_pipeline

__all__ = [
    "ParseOptions",
    "TaggingMode",
    "ParPaRawParser",
    "parse_bytes",
    "ParseResult",
    "StagePipeline",
    "default_pipeline",
]
