"""Partition-strategy sweep — field partition vs stable radix sort (§3.3).

PR 4's strided kernels left the partition stage as the pipeline's top
serial-executor cost (BENCH_kernels.json: yelp 0.134 s, taxi 0.170 s at
1 MB).  This sweep measures the field partition that replaced it on the
fig13 workloads at the paper's default chunk size, two ways:

* **stage sweep** — the full partition stage through the parser timer
  for each ``--partition-strategy`` (radix / field-run / auto), plus
  end-to-end MB/s;
* **kernel sweep** — ``partition_by_column`` at radix_bits ∈ {1,2,4,8}
  over the per-symbol tags expanded from one validate-stage run, against
  ``partition_fields`` over that run's per-field tags, so the strategies
  partition the exact same input.

Two artefacts:

* ``BENCH_partition.json`` at the repo root — machine-readable rows plus
  the PR 4 baseline stage seconds, backing the acceptance criterion
  (auto strategy >= 3x faster than the PR 4 partition stage);
* ``benchmarks/results/partition_strategy.txt`` — the human-readable
  sweep table.

Timing discipline: best-of-N on the *partition stage timer* (stage
sweep) and on ``perf_counter`` around the bare kernel (kernel sweep), so
noise on the fixed stages cannot masquerade as a partition win.
Runnable standalone for the check.sh smoke:

    python benchmarks/bench_partition.py --bytes 131072 --repeats 2
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time

from repro import Dialect, ParPaRawParser, ParseOptions, SerialExecutor
from repro.core.partition import partition_by_column, partition_fields
from repro.core.stages import PipelineContext, RawInput
from repro.core.tagging import expand_symbol_tags
from repro.dfa import dialect_dfa
from repro.utils.timing import StepTimer
from repro.workloads import generate_taxi_like, generate_yelp_like

MB = 1024 ** 2
REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_JSON = REPO_ROOT / "BENCH_partition.json"

NO_CR = Dialect(strip_carriage_return=False)
STRATEGIES: tuple[str, ...] = ("radix", "field-run", "auto")
RADIX_BITS: tuple[int, ...] = (1, 2, 4, 8)

#: PR 4 partition stage seconds at 1 MB (BENCH_kernels.json, auto
#: stride) — the baseline the acceptance criterion compares against.
PR4_BASELINE_SECONDS = {"yelp": 0.13362, "taxi": 0.169909}


def time_strategy(data: bytes, strategy: str, repeats: int) -> dict:
    """Best-of-``repeats`` stage seconds for one parser-level cell."""
    options = ParseOptions(
        dialect=NO_CR,
        partition_strategy=None if strategy == "auto" else strategy)
    parser = ParPaRawParser(options)
    parser.parse(data)                              # warm-up
    best: dict[str, float] | None = None
    for _ in range(repeats):
        totals = parser.parse(data).timer.totals()
        if best is None or totals["partition"] < best["partition"]:
            best = totals
    assert best is not None
    total = sum(best.values())
    return {
        "strategy": strategy,
        "partition_seconds": round(best["partition"], 6),
        "total_seconds": round(total, 6),
        "mb_per_s": round(len(data) / MB / total, 2),
    }


def validate_stage_inputs(data: bytes) -> dict:
    """Both strategies' inputs from one validate-stage run: per-field tags
    and keep flags, and their per-symbol expansion (record-tagged mode,
    so no virtual delimiter is needed)."""
    import numpy as np

    options = ParseOptions(dialect=NO_CR)
    ctx = PipelineContext(options=options, dfa=dialect_dfa(NO_CR),
                          timer=StepTimer())
    raw = np.frombuffer(data, dtype=np.uint8)
    with SerialExecutor() as executor:
        payload = executor.execute(
            ctx, RawInput(raw=raw, input_bytes=raw.size),
            until="validate")
    tags = payload.tags
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


def kernel_sweep(data: bytes, repeats: int) -> list[dict]:
    inp = validate_stage_inputs(data)
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
        for strategy in STRATEGIES:
            row = time_strategy(data, strategy, repeats)
            row["workload"] = name
            row["input_bytes"] = len(data)
            stage_rows.append(row)
        for row in kernel_sweep(data, repeats):
            row["workload"] = name
            kernel_rows.append(row)
    return {"stage_rows": stage_rows, "kernel_rows": kernel_rows}


def report_lines(result: dict, full_scale: bool) -> list[str]:
    lines = [f"{'workload':>10} {'strategy':>10} {'partition (ms)':>15} "
             f"{'total (ms)':>11} {'MB/s':>8} {'vs radix':>9} "
             f"{'vs PR4':>7}"]
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
                f"{r['total_seconds'] * 1e3:11.2f} "
                f"{r['mb_per_s']:8.1f} {vs_radix:8.2f}x {vs_pr4}")
    lines.append("")
    lines.append(f"{'workload':>10} {'kernel':>28} {'bits':>5} "
                 f"{'ms':>9}")
    for r in result["kernel_rows"]:
        bits = "-" if r["radix_bits"] is None else str(r["radix_bits"])
        lines.append(f"{r['workload']:>10} {r['kernel']:>28} {bits:>5} "
                     f"{r['seconds'] * 1e3:9.2f}")
    lines.append("")
    lines.append("vs PR4 = PR 4 partition stage seconds (strided-kernel "
                 "sweep, auto stride) / this row's partition stage")
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
                 "Partition strategies: stage time by strategy (1 MB)",
                 report_lines(result, full_scale=True))

    # The committed artefacts carry the measured >=3x vs the PR 4
    # baseline; here we assert conservative floors so machine noise
    # cannot flake the gate.
    for workload in workloads:
        group = {r["strategy"]: r for r in result["stage_rows"]
                 if r["workload"] == workload}
        assert group["auto"]["partition_seconds"] \
            < group["radix"]["partition_seconds"] / 1.3
        assert group["auto"]["partition_seconds"] \
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
