"""Partition sweep — field partition vs the stable radix-sort oracle (§3.3).

PR 4's strided kernels left the partition stage as the pipeline's top
serial-executor cost (BENCH_kernels.json: yelp 0.134 s, taxi 0.170 s at
1 MB).  This sweep measures the field partition that replaced it on the
fig13 workloads at the paper's default chunk size, against the paper's
radix sort (now the test oracle), two ways, both over one validate-stage
run so the two partition the exact same input:

* **stage sweep** — the partition stage's work on the validated payload:
  ``PartitionStage.partition`` (the field partition, ``field-run``)
  against ``partition_symbols`` (per-symbol tag expansion, keep mask and
  radix sort, ``radix``);
* **kernel sweep** — ``partition_by_column`` at radix_bits ∈ {1,2,4,8}
  over the per-symbol tags expanded from that run, against
  ``partition_fields`` over its per-field tags.

Two artefacts:

* ``BENCH_partition.json`` at the repo root — machine-readable rows plus
  the PR 4 baseline stage seconds, backing the acceptance criterion
  (field partition >= 3x faster than the baseline partition stage);
* ``benchmarks/results/partition_strategy.txt`` — the human-readable
  sweep table.

Timing discipline: best-of-N on ``perf_counter`` around the partition
call alone, so noise on the other stages cannot masquerade as a
partition win.
Runnable standalone for the check.sh smoke:

    python benchmarks/bench_partition.py --bytes 131072 --repeats 2
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time

from repro import Dialect, ParseOptions, SerialExecutor
from repro.core.partition import partition_by_column, partition_fields, \
    partition_symbols
from repro.core.stages import PartitionStage, PipelineContext, RawInput
from repro.core.tagging import expand_symbol_tags
from repro.dfa import dialect_dfa
from repro.utils.timing import StepTimer
from repro.workloads import generate_taxi_like, generate_yelp_like

MB = 1024 ** 2
REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_JSON = REPO_ROOT / "BENCH_partition.json"

NO_CR = Dialect(strip_carriage_return=False)
STRATEGIES: tuple[str, ...] = ("radix", "field-run")
RADIX_BITS: tuple[int, ...] = (1, 2, 4, 8)

#: PR 4 partition stage seconds at 1 MB (BENCH_kernels.json, auto
#: stride) — the baseline the acceptance criterion compares against.
PR4_BASELINE_SECONDS = {"yelp": 0.13362, "taxi": 0.169909}


def validated_payload(data: bytes):
    """One validate-stage run of ``data``: ``(options, payload)``."""
    import numpy as np

    options = ParseOptions(dialect=NO_CR)
    ctx = PipelineContext(options=options, dfa=dialect_dfa(NO_CR),
                          timer=StepTimer())
    raw = np.frombuffer(data, dtype=np.uint8)
    with SerialExecutor() as executor:
        payload = executor.execute(
            ctx, RawInput(raw=raw, input_bytes=raw.size),
            until="validate")
    return options, payload


def stage_sweep(options, payload, repeats: int) -> list[dict]:
    """Best-of-``repeats`` partition seconds of each strategy."""
    tags = payload.tags
    calls = {
        "radix": lambda: partition_symbols(
            payload.raw, tags, payload.valid_records, payload.column_mask,
            payload.num_columns, options.tagging_mode,
            options.dialect.record_delimiter_byte),
        "field-run": lambda: PartitionStage.partition(options, payload),
    }
    return [{"strategy": strategy,
             "partition_seconds": round(time_kernel(calls[strategy],
                                                    repeats), 6)}
            for strategy in STRATEGIES]


def kernel_inputs(payload) -> dict:
    """Both kernels' inputs from the validated payload: per-field tags
    and keep flags, and their per-symbol expansion (record-tagged mode,
    so no virtual delimiter is needed)."""
    import numpy as np

    tags, raw = payload.tags, payload.raw
    symbols = expand_symbol_tags(tags)
    spans = np.diff(np.concatenate([[0], tags.delim_positions + 1,
                                    [raw.size]]))
    keep = tags.data_mask & np.repeat(payload.field_keep, spans)
    return {
        "symbols": (raw, keep, symbols.column_ids, symbols.record_ids,
                    payload.num_columns),
        "fields": (raw, tags.data_mask, tags.delim_positions,
                   tags.field_columns, tags.field_records,
                   payload.field_keep, payload.num_columns),
    }


def time_kernel(func, repeats: int) -> float:
    func()                                          # warm-up
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        func()
        best = min(best, time.perf_counter() - start)
    return best


def kernel_sweep(payload, repeats: int) -> list[dict]:
    inp = kernel_inputs(payload)
    rows = []
    for bits in RADIX_BITS:
        seconds = time_kernel(
            lambda: partition_by_column(*inp["symbols"], radix_bits=bits),
            repeats)
        rows.append({"kernel": "radix", "radix_bits": bits,
                     "seconds": round(seconds, 6)})
    seconds = time_kernel(lambda: partition_fields(*inp["fields"]),
                          repeats)
    rows.append({"kernel": "field partition", "radix_bits": None,
                 "seconds": round(seconds, 6)})
    return rows


def sweep(workloads: dict[str, bytes], repeats: int) -> dict:
    stage_rows, kernel_rows = [], []
    for name, data in workloads.items():
        options, payload = validated_payload(data)
        for row in stage_sweep(options, payload, repeats):
            row["workload"] = name
            row["input_bytes"] = len(data)
            stage_rows.append(row)
        for row in kernel_sweep(payload, repeats):
            row["workload"] = name
            kernel_rows.append(row)
    return {"stage_rows": stage_rows, "kernel_rows": kernel_rows}


def report_lines(result: dict, full_scale: bool) -> list[str]:
    lines = [f"{'workload':>10} {'strategy':>10} {'partition (ms)':>15} "
             f"{'vs radix':>9} {'vs base':>7}"]
    stage_rows = result["stage_rows"]
    for workload in dict.fromkeys(r["workload"] for r in stage_rows):
        group = [r for r in stage_rows if r["workload"] == workload]
        radix = next(r for r in group if r["strategy"] == "radix")
        pr4 = PR4_BASELINE_SECONDS.get(workload) if full_scale else None
        for r in group:
            vs_radix = radix["partition_seconds"] / r["partition_seconds"]
            vs_pr4 = (f"{pr4 / r['partition_seconds']:6.2f}x"
                      if pr4 else "    n/a")
            lines.append(
                f"{workload:>10} {r['strategy']:>10} "
                f"{r['partition_seconds'] * 1e3:15.2f} "
                f"{vs_radix:8.2f}x {vs_pr4}")
    lines.append("")
    lines.append(f"{'workload':>10} {'kernel':>28} {'bits':>5} "
                 f"{'ms':>9}")
    for r in result["kernel_rows"]:
        bits = "-" if r["radix_bits"] is None else str(r["radix_bits"])
        lines.append(f"{r['workload']:>10} {r['kernel']:>28} {bits:>5} "
                     f"{r['seconds'] * 1e3:9.2f}")
    lines.append("")
    lines.append("vs base = baseline partition stage seconds "
                 "(strided-kernel sweep, auto stride) / this row's "
                 "partition seconds")
    return lines


def run(workloads: dict[str, bytes], repeats: int,
        json_path: pathlib.Path, full_scale: bool) -> dict:
    result = sweep(workloads, repeats)
    json_path.write_text(json.dumps({
        "benchmark": "partition_strategy_sweep",
        "chunk_size": ParseOptions().chunk_size,
        "pr4_baseline_seconds": PR4_BASELINE_SECONDS if full_scale
        else None,
        "stage_rows": result["stage_rows"],
        "kernel_rows": result["kernel_rows"],
    }, indent=2) + "\n")
    return result


# -- pytest entry points ------------------------------------------------------

def test_partition_sweep(results_dir):
    workloads = {"yelp": generate_yelp_like(1 * MB, seed=7),
                 "taxi": generate_taxi_like(1 * MB, seed=11)}
    result = run(workloads, repeats=5, json_path=BENCH_JSON,
                 full_scale=True)

    from conftest import write_report
    write_report(results_dir / "partition_strategy.txt",
                 "Partition: field partition vs radix oracle (1 MB)",
                 report_lines(result, full_scale=True))

    # The committed artefacts carry the measured >=3x vs the PR 4
    # baseline; here we assert conservative floors so machine noise
    # cannot flake the gate.
    for workload in workloads:
        group = {r["strategy"]: r for r in result["stage_rows"]
                 if r["workload"] == workload}
        assert group["field-run"]["partition_seconds"] \
            < group["radix"]["partition_seconds"] / 1.3
        assert group["field-run"]["partition_seconds"] \
            < PR4_BASELINE_SECONDS[workload] / 2.0


# -- standalone smoke (scripts/check.sh) --------------------------------------

def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--bytes", type=int, default=1 * MB)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--out", type=pathlib.Path, default=BENCH_JSON)
    args = parser.parse_args(argv)

    workloads = {"yelp": generate_yelp_like(args.bytes, seed=7),
                 "taxi": generate_taxi_like(args.bytes, seed=11)}
    full_scale = args.bytes >= 1 * MB
    result = run(workloads, args.repeats, args.out, full_scale)
    print("\n".join(report_lines(result, full_scale)))
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
