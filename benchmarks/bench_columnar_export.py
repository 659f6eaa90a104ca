"""Columnar export sweep — the fused zero-copy convert (§5).

Partition and convert are fused: string columns become zero-copy slices
of the per-column CSS and fixed-width columns adopt their parsed values
as the output buffers.  This sweep quantifies that on the fig13
workloads, three ways:

* **convert stage** — stage seconds through the parser timer against the
  copy-path convert stage baseline (``PR5_CONVERT_SECONDS``), plus the
  ``convert.bytes.copied`` / ``convert.zero_copy_columns`` counters
  against ``value_bytes``, the bytes of the output columns' value
  buffers (what the copy path copied in full);
* **end-to-end** — total parse seconds and MB/s, and the Feather-style
  export (``write_feather``) seconds on the table;
* **baselines** — stdlib ``csv`` row materialisation always, pandas and
  pyarrow CSV readers when importable (they are not dependencies).

Two artefacts:

* ``BENCH_columnar.json`` at the repo root — machine-readable rows plus
  the PR 5 convert-stage baseline, backing the acceptance criterion
  (fused convert stage faster than the copy-path baseline on yelp and
  taxi);
* ``benchmarks/results/columnar_export.txt`` — human-readable table.

Timing discipline: best-of-N on the parser's per-stage timer for stage
cells and on ``perf_counter`` for whole-call cells.  Runnable standalone
for the check.sh smoke:

    python benchmarks/bench_columnar_export.py --bytes 131072 --repeats 2
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time

from repro import Dialect, ParPaRawParser, ParseOptions
from repro.baselines import stdlib_csv_rows
from repro.columnar import write_feather
from repro.obs import MetricsRegistry
from repro.workloads import generate_taxi_like, generate_yelp_like

MB = 1024 ** 2
REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_JSON = REPO_ROOT / "BENCH_columnar.json"

NO_CR = Dialect(strip_carriage_return=False)

#: PR 5 convert stage seconds at 1 MB (measured via the copy path, which
#: is the PR 5 convert verbatim) — the baseline the fused path is gated
#: against.
PR5_CONVERT_SECONDS = {"yelp": 0.014, "taxi": 0.0157}


def time_call(func, repeats: int) -> float:
    func()                                          # warm-up
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        func()
        best = min(best, time.perf_counter() - start)
    return best


def time_fused(data: bytes, repeats: int) -> dict:
    """Best-of-``repeats`` cell for the production parser."""
    metrics = MetricsRegistry()
    parser = ParPaRawParser(ParseOptions(dialect=NO_CR), metrics=metrics)
    table = parser.parse(data).table                # warm-up
    best: dict[str, float] | None = None
    for _ in range(repeats):
        totals = parser.parse(data).timer.totals()
        if best is None or totals["convert"] < best["convert"]:
            best = totals
    assert best is not None
    total = sum(best.values())
    counters = metrics.counters
    per_parse = 1 + repeats                          # warm-up + timed runs
    return {
        "path": "fused",
        "convert_seconds": round(best["convert"], 6),
        "total_seconds": round(total, 6),
        "mb_per_s": round(len(data) / MB / total, 2),
        "bytes_copied": counters.get("convert.bytes.copied", 0)
        // per_parse,
        "zero_copy_columns": counters.get("convert.zero_copy_columns", 0)
        // per_parse,
        "value_bytes": sum(int(column.data.nbytes)
                           for column in table.columns),
    }


def baseline_rows(data: bytes, repeats: int) -> list[dict]:
    import io

    rows = [{
        "baseline": "stdlib-csv",
        "seconds": round(time_call(
            lambda: stdlib_csv_rows(data), repeats), 6),
    }]
    try:
        import pandas
        rows.append({"baseline": "pandas", "seconds": round(time_call(
            lambda: pandas.read_csv(io.BytesIO(data), header=None),
            repeats), 6)})
    except ImportError:
        rows.append({"baseline": "pandas", "seconds": None})
    try:
        import pyarrow.csv as pacsv
        rows.append({"baseline": "pyarrow", "seconds": round(time_call(
            lambda: pacsv.read_csv(io.BytesIO(data)), repeats), 6)})
    except ImportError:
        rows.append({"baseline": "pyarrow", "seconds": None})
    return rows


def sweep(workloads: dict[str, bytes], repeats: int) -> dict:
    path_rows, baseline_list = [], []
    for name, data in workloads.items():
        row = time_fused(data, repeats)
        row["workload"] = name
        row["input_bytes"] = len(data)
        path_rows.append(row)
        table = ParPaRawParser(
            ParseOptions(dialect=NO_CR)).parse(data).table
        path_rows.append({
            "workload": name, "path": "write_feather",
            "convert_seconds": None,
            "total_seconds": round(time_call(
                lambda t=table: write_feather(t), repeats), 6),
            "mb_per_s": None, "bytes_copied": None,
            "zero_copy_columns": None, "value_bytes": None,
            "input_bytes": len(data),
        })
        for row in baseline_rows(data, repeats):
            row["workload"] = name
            baseline_list.append(row)
    return {"path_rows": path_rows, "baseline_rows": baseline_list}


def report_lines(result: dict, full_scale: bool) -> list[str]:
    lines = [f"{'workload':>10} {'path':>14} {'convert (ms)':>13} "
             f"{'total (ms)':>11} {'MB/s':>8} {'copied (B)':>11} "
             f"{'values (B)':>11} {'0copy cols':>11} {'vs base':>8}"]
    for r in result["path_rows"]:
        base = PR5_CONVERT_SECONDS.get(r["workload"]) if full_scale \
            else None
        convert = ("-" if r["convert_seconds"] is None
                   else f"{r['convert_seconds'] * 1e3:.2f}")
        vs_base = ("     -" if r["convert_seconds"] is None or base is None
                   else f"{base / r['convert_seconds']:7.2f}x")
        mb = "-" if r["mb_per_s"] is None else f"{r['mb_per_s']:.1f}"
        copied, values, zc = ("-" if r[key] is None else str(r[key])
                              for key in ("bytes_copied", "value_bytes",
                                          "zero_copy_columns"))
        lines.append(
            f"{r['workload']:>10} {r['path']:>14} {convert:>13} "
            f"{r['total_seconds'] * 1e3:11.2f} {mb:>8} {copied:>11} "
            f"{values:>11} {zc:>11} {vs_base:>8}")
    lines.append("")
    lines.append(f"{'workload':>10} {'baseline':>12} {'ms':>9}")
    for r in result["baseline_rows"]:
        ms = ("   (absent)" if r["seconds"] is None
              else f"{r['seconds'] * 1e3:9.2f}")
        lines.append(f"{r['workload']:>10} {r['baseline']:>12} {ms}")
    if full_scale:
        lines.append("")
        lines.append("vs base = copy-path convert stage baseline seconds "
                     f"{PR5_CONVERT_SECONDS} / this row's convert stage")
    return lines


def run(workloads: dict[str, bytes], repeats: int,
        json_path: pathlib.Path, full_scale: bool) -> dict:
    result = sweep(workloads, repeats)
    json_path.write_text(json.dumps({
        "benchmark": "columnar_export_sweep",
        "chunk_size": ParseOptions().chunk_size,
        "pr5_convert_seconds": PR5_CONVERT_SECONDS if full_scale
        else None,
        "path_rows": result["path_rows"],
        "baseline_rows": result["baseline_rows"],
    }, indent=2) + "\n")
    return result


# -- pytest entry points ------------------------------------------------------

def test_columnar_export_sweep(results_dir):
    workloads = {"yelp": generate_yelp_like(1 * MB, seed=7),
                 "taxi": generate_taxi_like(1 * MB, seed=11)}
    result = run(workloads, repeats=5, json_path=BENCH_JSON,
                 full_scale=True)

    from conftest import write_report
    write_report(results_dir / "columnar_export.txt",
                 "Columnar export: fused zero-copy convert (1 MB)",
                 report_lines(result, full_scale=True))

    # Acceptance: the fused convert stage beats the copy-path baseline on
    # yelp and taxi, string columns really are zero-copy, and it copies
    # fewer bytes than the copy path's full value buffers.
    for workload in workloads:
        group = {r["path"]: r for r in result["path_rows"]
                 if r["workload"] == workload}
        assert group["fused"]["convert_seconds"] \
            < PR5_CONVERT_SECONDS[workload]
        assert group["fused"]["zero_copy_columns"] > 0
        assert group["fused"]["bytes_copied"] \
            < group["fused"]["value_bytes"]


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
