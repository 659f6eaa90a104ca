"""Memory guard: the default path keeps O(n) bytes plus O(fields) words.

Tag, validate and partition work at field granularity, so a serial parse
of taxi-like data peaks at about 18 bytes of Python-heap allocation per
input byte (NumPy 2.4, CPython 3.11) and no payload from the tag stage
onwards holds an int64 array of input length.  Both facts are asserted
here so a per-symbol array cannot creep back in unnoticed.
"""

import tracemalloc

import numpy as np

from repro import Dialect, ParPaRawParser, ParseOptions
from repro.core.stages import (
    PartitionedInput,
    PipelineContext,
    RawInput,
    TaggedInput,
    ValidatedInput,
    as_input_array,
    default_pipeline,
)
from repro.utils.timing import StepTimer
from repro.workloads import TAXI_SCHEMA, generate_taxi_like

#: About 1.5x the measured 18.0 B/B of a serial 1 MiB taxi parse.
PEAK_BYTES_PER_INPUT_BYTE = 27.0

OPTIONS = ParseOptions(dialect=Dialect(strip_carriage_return=False),
                       schema=TAXI_SCHEMA)
DATA = generate_taxi_like(1 << 20, seed=3)


def reachable_arrays(payload):
    """Every ndarray reachable from a payload's fields and the package
    objects (tag and partition results, reports) nested in them."""
    seen: set[int] = set()
    stack = [payload]
    while stack:
        item = stack.pop()
        if id(item) in seen:
            continue
        seen.add(id(item))
        if isinstance(item, np.ndarray):
            yield item
        elif isinstance(item, (list, tuple)):
            stack.extend(item)
        elif isinstance(item, dict):
            stack.extend(item.values())
        elif type(item).__module__.startswith("repro.") \
                and hasattr(item, "__dict__"):
            stack.extend(vars(item).values())


def test_serial_taxi_peak_per_input_byte():
    parser = ParPaRawParser(OPTIONS)
    parser.parse(DATA)  # warm the kernel-table cache
    tracemalloc.start()
    try:
        result = parser.parse(DATA)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.num_rows > 10_000
    assert peak / len(DATA) <= PEAK_BYTES_PER_INPUT_BYTE, \
        f"peak {peak / len(DATA):.2f} B/B"


def test_no_int64_array_of_input_length_after_tag():
    ctx = PipelineContext(options=OPTIONS, dfa=OPTIONS.resolved_dfa(),
                          timer=StepTimer())
    n = len(DATA)
    payload = RawInput(raw=as_input_array(DATA), input_bytes=n)
    checked = []
    for stage in default_pipeline().stages:
        if not stage.applies(ctx, payload):
            continue
        payload = stage.run(ctx, payload)
        if isinstance(payload, (TaggedInput, ValidatedInput,
                                PartitionedInput)):
            wide = [a.shape for a in reachable_arrays(payload)
                    if a.dtype == np.int64 and a.size >= n]
            assert not wide, (type(payload).__name__, wide)
            checked.append(type(payload))
    assert checked == [TaggedInput, ValidatedInput, PartitionedInput]
