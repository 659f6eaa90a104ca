"""Ablations over the design choices DESIGN.md calls out.

* ``tag_global`` vs ``tag_chunked`` on the same emission stream
  (vectorised delimiter bookkeeping vs the paper's per-chunk offsets +
  scans, the test oracle);
* the vectorised convert stage vs the scalar converters (the oracle the
  sequential reference parser converts with) on the same partition;
* radix-sort digit width;
* scan algorithm choice (sequential / Hillis-Steele / Blelloch /
  decoupled look-back), and the vectorised STV scan: the production
  reduce-then-scan against the Hillis–Steele oracle.
"""

import numpy as np
import pytest

from conftest import run_benchmark

from repro import ParseOptions
from repro.core.partition import stable_radix_sort
from repro.core.scalar_convert import convert_scalar
from repro.core.stages import ConvertStage, PipelineContext, RawInput, \
    default_pipeline
from repro.core.tagging import compute_emissions, tag_chunked, tag_global
from repro.core.tagging_modes import column_indexes
from repro.scan.blelloch import blelloch_scan
from repro.scan.decoupled_lookback import single_pass_scan
from repro.scan.hillis_steele import hillis_steele_scan
from repro.scan.numpy_scan import scan_transition_vectors
from repro.scan.operators import SumMonoid, TransitionComposeMonoid
from repro.scan.sequential import exclusive_scan
from repro.utils.timing import StepTimer
from tests.oracles import hillis_steele_transition_scan


def run_until(options: ParseOptions, data: bytes, until: str):
    """``(ctx, payload)`` after running the pipeline through ``until``."""
    ctx = PipelineContext(options=options, dfa=options.resolved_dfa(),
                          timer=StepTimer())
    raw = np.frombuffer(data, dtype=np.uint8)
    return ctx, default_pipeline().run(
        ctx, RawInput(raw=raw, input_bytes=raw.size), until=until)


@pytest.mark.parametrize("impl", ["global", "chunked"])
def test_tagging_impl(benchmark, yelp_1mb, impl):
    _, contexts = run_until(ParseOptions(), yelp_1mb, "scan")
    emissions, final_state, _ = compute_emissions(
        contexts.groups, contexts.start_states, contexts.padded_dfa,
        contexts.chunking)
    taggers = {
        "global": lambda: tag_global(emissions, final_state),
        "chunked": lambda: tag_chunked(emissions, final_state,
                                       contexts.chunking),
    }
    tags = run_benchmark(benchmark, taggers[impl])
    assert tags.num_records > 0


def convert_scalar_columns(columns) -> int:
    """Scalar-convert every field; returns the reject count."""
    return sum(not convert_scalar(field, text)[1]
               for field, texts in columns for text in texts)


@pytest.mark.parametrize("vectorized", [True, False],
                         ids=["vectorised", "scalar"])
def test_conversion_path(benchmark, taxi_1mb, taxi_schema, vectorized):
    # Scalar conversion is slow; keep the input small, cut at a record
    # boundary so no truncated field skews the reject counter.
    data = taxi_1mb[:taxi_1mb.rfind(b"\n", 0, 128 * 1024) + 1]
    options = ParseOptions(schema=taxi_schema)
    ctx, partitioned = run_until(options, data, "partition")
    if vectorized:
        output = run_benchmark(benchmark, ConvertStage().run, ctx,
                               partitioned)
        rejects = sum(column.rejects for column in output.table.columns)
    else:
        part = partitioned.part
        columns = []
        for column, index in enumerate(
                column_indexes(options.tagging_mode, part)):
            css = part.column_css(column)
            columns.append((taxi_schema[column], [
                css[lo:lo + n].tobytes()
                for lo, n in zip(index.offsets.tolist(),
                                 index.lengths.tolist()) if n]))
        rejects = run_benchmark(benchmark, convert_scalar_columns, columns)
    assert rejects == 0


@pytest.mark.parametrize("radix_bits", [1, 2, 4, 8])
def test_radix_width(benchmark, radix_bits):
    rng = np.random.default_rng(0)
    keys = rng.integers(0, 17, size=500_000).astype(np.int64)
    perm = run_benchmark(benchmark, stable_radix_sort, keys, radix_bits)
    assert np.all(np.diff(keys[perm]) >= 0)


SCAN_INPUT = list(range(2000))


@pytest.mark.parametrize("algorithm,func", [
    ("sequential", lambda: exclusive_scan(SCAN_INPUT, SumMonoid())),
    ("hillis-steele", lambda: hillis_steele_scan(SCAN_INPUT, SumMonoid(),
                                                 exclusive=True)),
    ("blelloch", lambda: blelloch_scan(SCAN_INPUT, SumMonoid())),
    ("decoupled-lookback", lambda: single_pass_scan(SCAN_INPUT,
                                                    SumMonoid(),
                                                    tile_size=128)),
], ids=["sequential", "hillis-steele", "blelloch", "decoupled-lookback"])
def test_scan_algorithms(benchmark, algorithm, func):
    out = benchmark(func)
    assert out[:3] == [0, 0, 1]


STV_INPUT = np.random.default_rng(1).integers(
    0, 6, size=(100_000, 6)).astype(np.uint8)


@pytest.mark.parametrize("scan", [scan_transition_vectors,
                                  hillis_steele_transition_scan],
                         ids=["reduce-then-scan", "hillis-steele-oracle"])
def test_stv_scan_vectorised(benchmark, scan):
    """The production blocked reduce-then-scan and the Hillis–Steele
    oracle it replaced, on the same 100k chunk STVs: equal outputs."""
    out = benchmark(scan, STV_INPUT)
    assert np.array_equal(out, hillis_steele_transition_scan(STV_INPUT))


def test_stv_scan_scalar_reference(benchmark):
    """The scalar scan on the same operator (1k chunks — it is the
    reference, not the production path)."""
    rng = np.random.default_rng(1)
    rows = [tuple(int(x) for x in row)
            for row in rng.integers(0, 6, size=(1_000, 6))]
    monoid = TransitionComposeMonoid(6)
    out = benchmark(exclusive_scan, rows, monoid)
    assert len(out) == 1_000
