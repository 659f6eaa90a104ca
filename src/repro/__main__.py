"""Command-line interface: ``python -m repro``.

Subcommands:

* ``parse FILE`` — parse a delimiter-separated file and print rows (or a
  summary / serialised columnar output);
* ``infer FILE`` — report inferred column types (paper §4.3);
* ``sniff FILE`` — guess the dialect (delimiter, quoting, comments);
* ``simulate`` — print the simulated Titan X step breakdown and
  end-to-end streaming time for a given workload shape;
* ``lint [PATHS...]`` — run the parlint static-analysis checkers
  (stage contracts, scan-operator laws, multiprocess safety, hot-path
  vectorisation, API hygiene; see ``docs/PARLINT.md``);
* ``serve`` — run the multi-tenant ingest service: a socket front end
  multiplexing concurrent parse requests onto one shared warm executor
  (see ``docs/SERVICE.md``);
* ``batches`` / ``checkhealth`` — query a running ``serve`` instance
  for its recent request history / health flags.

``--workers N`` (parse/infer) runs the stage pipeline on the sharded
multiprocess executor; ``--timings`` (parse) prints the per-stage
wall-clock breakdown under the paper's step names.  ``--trace OUT.json``
(parse/simulate) writes a Chrome ``trace_event`` timeline — open it in
Perfetto (https://ui.perfetto.dev) or ``chrome://tracing`` — and
``--metrics`` prints the :mod:`repro.obs` counter/gauge/histogram report
(see ``docs/OBSERVABILITY.md``).

Examples::

    python -m repro parse data.csv --limit 5
    python -m repro parse data.csv --delimiter ';' --comment '#' --summary
    python -m repro parse data.csv --workers 4 --timings --summary
    python -m repro parse data.csv --workers 4 --trace out.json --metrics
    python -m repro parse data.csv --plan auto --summary
    python -m repro infer data.csv
    python -m repro simulate --dataset yelp --size-mb 512 --chunk 31
    python -m repro simulate --trace schedule.json
    python -m repro lint src --format json
    python -m repro serve --port 7654 --workers 4
    python -m repro batches --port 7654
    python -m repro checkhealth --port 7654 --full
"""

from __future__ import annotations

import argparse
import sys

from repro import (
    ColumnCountPolicy,
    Dialect,
    ParPaRawParser,
    ParseOptions,
    TaggingMode,
)
from repro.columnar.serialize import serialize_table, write_feather
from repro.exec import SerialExecutor, ShardedExecutor
from repro.gpusim.cost_model import PipelineCostModel, WorkloadStats
from repro.kernels.strided import DEFAULT_TABLE_BUDGET
from repro.obs import (
    NULL_METRICS,
    NULL_TRACER,
    MetricsRegistry,
    Tracer,
    render_text_report,
    write_chrome_trace,
)
from repro.streaming import StreamingPipeline

MB = 1024 ** 2


def _dialect_from_args(args: argparse.Namespace) -> Dialect:
    return Dialect(
        delimiter=args.delimiter.encode(),
        quote=args.quote.encode() if args.quote else None,
        comment=args.comment.encode() if args.comment else None,
        strip_carriage_return=not args.no_crlf,
    )


def _options_from_args(args: argparse.Namespace) -> ParseOptions:
    return ParseOptions(
        dialect=_dialect_from_args(args),
        chunk_size=args.chunk,
        kernel_stride=args.stride,
        kernel_table_budget=getattr(args, "table_budget",
                                    DEFAULT_TABLE_BUDGET),
        minimize_dfa=not getattr(args, "no_minimize", False),
        tagging_mode=TaggingMode(args.tagging_mode),
        infer_types=getattr(args, "infer_types", False),
        column_count_policy=ColumnCountPolicy(args.column_policy),
        plan=None if getattr(args, "plan", "off") == "off" else args.plan,
    )


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def _executor_from_args(args: argparse.Namespace):
    workers = getattr(args, "workers", 1)
    if workers > 1:
        return ShardedExecutor(workers=workers)
    return SerialExecutor()


def _print_timings(result) -> None:
    print("step timings:")
    for step, seconds in sorted(result.step_seconds().items()):
        print(f"  {step:<10} {seconds * 1e3:8.2f} ms")
    rate = result.parsing_rate()
    print(f"  {'total':<10} {result.timer.total() * 1e3:8.2f} ms"
          + (f"  ({rate / 1e6:.1f} MB/s)" if rate else ""))


def _obs_from_args(args: argparse.Namespace):
    """(tracer, metrics) — real sinks only when the flags ask for them."""
    observe = bool(getattr(args, "trace", None)) \
        or bool(getattr(args, "metrics", False))
    if not observe:
        return NULL_TRACER, NULL_METRICS
    return Tracer(), MetricsRegistry()


def _emit_obs(args: argparse.Namespace, tracer, metrics) -> None:
    """Write ``--trace`` / print ``--metrics`` output, if requested."""
    if getattr(args, "trace", None):
        write_chrome_trace(args.trace, tracer.spans, metrics)
        print(f"wrote {len(tracer.spans)} trace spans to {args.trace} "
              f"(open in https://ui.perfetto.dev)")
    if getattr(args, "metrics", False):
        print(render_text_report(tracer, metrics))


def cmd_parse(args: argparse.Namespace) -> int:
    with open(args.file, "rb") as handle:
        data = handle.read()
    tracer, metrics = _obs_from_args(args)
    options = _options_from_args(args)
    planner = None
    if options.plan == "auto":
        from repro.plan import Planner
        planner = Planner(tracer=tracer, metrics=metrics)
        decision = planner.plan(data, options)
        w = decision.winner
        print(f"plan: chunk={w.chunk_size} stride={w.stride} "
              f"workers={decision.workers} "
              f"({decision.modelled_seconds * 1e3:.2f} ms modelled, "
              f"fingerprint {decision.fingerprint})")
        # An explicit --workers wins; otherwise follow the planner.
        if args.workers == 1 and decision.workers > 1:
            args.workers = decision.workers
        # Parse with the decision directly (plan=None) so the parser
        # does not probe and plan a second time; keeping the planner
        # attached still feeds the measurement back into its store.
        options = decision.chosen
    executor = _executor_from_args(args)
    try:
        result = ParPaRawParser(options, executor=executor,
                                tracer=tracer, metrics=metrics,
                                planner=planner).parse(data)
    finally:
        executor.close()
    table = result.table

    _emit_obs(args, tracer, metrics)
    if args.timings:
        _print_timings(result)
    if args.output:
        fmt = getattr(args, "output_format", "auto") or "auto"
        if fmt == "auto":
            fmt = "feather" if args.output.endswith(".feather") else "rprw"
        if fmt == "feather":
            write_feather(table, args.output)
        else:
            with open(args.output, "wb") as handle:
                handle.write(serialize_table(table))
        print(f"wrote {table.num_rows} rows x {table.num_columns} columns "
              f"to {args.output} ({fmt})")
        return 0
    if args.summary:
        print(f"records:  {result.num_records}")
        print(f"rows:     {result.num_rows}")
        print(f"rejected: {result.rejected_records} records, "
              f"{result.total_rejected_fields} fields")
        print(f"columns:  {', '.join(table.schema.names)}")
        print(f"end state: {result.validation.final_state_name} "
              f"({'ok' if result.validation.is_valid else 'INVALID'})")
        for step, seconds in sorted(result.step_seconds().items()):
            print(f"  {step:<10} {seconds * 1e3:8.2f} ms")
        return 0
    print("\t".join(table.schema.names))
    for i, row in enumerate(table.rows()):
        if args.limit is not None and i >= args.limit:
            print(f"... ({table.num_rows - args.limit} more rows)")
            break
        print("\t".join("NULL" if v is None else str(v) for v in row))
    return 0


def cmd_infer(args: argparse.Namespace) -> int:
    with open(args.file, "rb") as handle:
        data = handle.read()
    options = _options_from_args(args).with_(infer_types=True)
    executor = _executor_from_args(args)
    try:
        result = ParPaRawParser(options, executor=executor).parse(data)
    finally:
        executor.close()
    print(f"{result.num_rows} records, inferred schema:")
    for field in result.table.schema:
        print(f"  {field.name:<10} {field.dtype.value}")
    return 0


def cmd_sniff(args: argparse.Namespace) -> int:
    from repro.dfa.sniffer import sniff_dialect
    with open(args.file, "rb") as handle:
        sample = handle.read(64 * 1024)
    result = sniff_dialect(sample)
    dialect = result.dialect
    print(f"delimiter: {dialect.delimiter!r}")
    print(f"quote:     {dialect.quote!r}")
    print(f"comment:   {dialect.comment!r}")
    print(f"columns:   {result.num_columns} "
          f"(consistency {result.consistency:.0%}, "
          f"{result.records_sampled} records sampled)")
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    factory = WorkloadStats.yelp_like if args.dataset == "yelp" \
        else WorkloadStats.taxi_like
    stats = factory(args.size_mb * MB, chunk_size=args.chunk)
    model = PipelineCostModel()
    costs = model.step_costs(stats)
    print(f"simulated Titan X (Pascal), {args.dataset}-shaped workload, "
          f"{args.size_mb} MB, {args.chunk} B chunks:")
    for step, seconds in costs.as_dict().items():
        print(f"  {step:<10} {seconds * 1e3:8.2f} ms")
    print(f"  {'total':<10} {costs.total * 1e3:8.2f} ms  "
          f"({stats.input_bytes / costs.total / 1e9:.2f} GB/s)")

    pipeline = StreamingPipeline()
    schedule = pipeline.simulate(stats.input_bytes,
                                 args.partition_mb * MB, factory)
    print(f"streamed end-to-end ({args.partition_mb} MB partitions): "
          f"{schedule.makespan:.3f} s")

    if args.trace or args.metrics:
        from repro.streaming.pipeline import RESOURCES
        metrics = MetricsRegistry()
        metrics.gauge("sim.makespan_seconds", schedule.makespan)
        metrics.gauge("sim.overlap_efficiency",
                      schedule.overlap_efficiency())
        metrics.gauge("sim.fill_drain_seconds",
                      schedule.fill_drain_seconds())
        for resource in RESOURCES:
            metrics.gauge(f"sim.busy.{resource}",
                          schedule.resource_busy_time(resource))
        print(f"bottleneck resource: {schedule.bottleneck()}")
        if args.trace:
            write_chrome_trace(args.trace, schedule.spans(), metrics)
            print(f"wrote {len(schedule.records)} schedule spans to "
                  f"{args.trace} (open in https://ui.perfetto.dev)")
        if args.metrics:
            print(render_text_report(metrics=metrics))
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    import signal

    from repro.serve import IngestServer, IngestService, ServiceConfig

    config = ServiceConfig(
        workers=args.workers,
        dispatchers=args.dispatchers,
        queue_capacity=args.queue_capacity,
        max_request_bytes=args.max_request_mb * MB,
        default_timeout=args.request_timeout,
        default_options=_options_from_args(args),
    )
    service = IngestService(config)
    server = IngestServer(service, host=args.host, port=args.port,
                          own_service=True)
    print(f"repro serve listening on {server.host}:{server.port} "
          f"(workers={config.workers}, "
          f"dispatchers={config.dispatchers}, "
          f"queue={config.queue_capacity})", flush=True)

    def _terminate(signum, frame):
        raise KeyboardInterrupt

    signal.signal(signal.SIGTERM, _terminate)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        print("repro serve draining...", flush=True)
        server.close()
        print("repro serve drained cleanly", flush=True)
    return 0


def _remote_status(args: argparse.Namespace) -> dict | None:
    from repro.serve import RemoteClient
    try:
        return RemoteClient(args.host, args.port).status()
    except OSError as error:
        print(f"cannot reach a serve instance at "
              f"{args.host}:{args.port}: {error}", file=sys.stderr)
        return None


def cmd_batches(args: argparse.Namespace) -> int:
    from repro.serve.status import render_batches, render_status
    status = _remote_status(args)
    if status is None:
        return 1
    if args.full:
        print(render_status(status))
        print()
    print(render_batches(status, limit=args.limit))
    return 0


def cmd_checkhealth(args: argparse.Namespace) -> int:
    from repro.serve.status import health_flags, render_checkhealth, \
        render_status
    status = _remote_status(args)
    if status is None:
        return 1
    if args.full:
        print(render_status(status))
        print()
    print(render_checkhealth(status))
    return 1 if any(severity == "error"
                    for severity, _ in health_flags(status)) else 0


def cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis import main as lint_main
    return lint_main(args.paths, output_format=args.format,
                     list_codes=args.list_codes, select=args.select,
                     ignore=args.ignore)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="ParPaRaw: massively parallel parsing of "
                    "delimiter-separated raw data (reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--delimiter", default=",")
        p.add_argument("--quote", default='"')
        p.add_argument("--comment", default=None)
        p.add_argument("--no-crlf", action="store_true",
                       help="disable CRLF normalisation")
        p.add_argument("--chunk", type=int, default=31,
                       help="chunk size in bytes (paper default: 31)")
        p.add_argument("--stride", type=_positive_int, default=None,
                       metavar="K",
                       help="symbols per kernel step for the byte-bound "
                            "sweeps: 8/4/2 use precomposed SWAR k-gram "
                            "tables, 1 forces the unit-stride reference "
                            "path (default: auto — widest stride whose "
                            "tables fit the table budget)")
        p.add_argument("--table-budget", type=_positive_int,
                       default=DEFAULT_TABLE_BUDGET, metavar="BYTES",
                       help="byte ceiling for the auto stride picker's "
                            "precomposed k-gram tables (default: 4 MiB)")
        p.add_argument("--no-minimize", action="store_true",
                       help="run sweeps on the raw dialect DFA instead of "
                            "the canonical minimised automaton")
        p.add_argument("--tagging-mode", default="tagged",
                       choices=[m.value for m in TaggingMode])
        p.add_argument("--column-policy", default="lenient",
                       choices=[p.value for p in ColumnCountPolicy])
        p.add_argument("--workers", type=_positive_int, default=1,
                       metavar="N",
                       help="worker processes for the sharded executor "
                            "(1 = serial, the default)")
        p.add_argument("--plan", default="off", choices=("off", "auto"),
                       help="auto = let the self-tuning planner probe "
                            "the input and pick chunk size and stride "
                            "with its calibrated cost model (see "
                            "docs/PLANNER.md)")

    p_parse = sub.add_parser("parse", help="parse a file")
    p_parse.add_argument("file")
    add_common(p_parse)
    p_parse.add_argument("--limit", type=int, default=20,
                         help="max rows to print")
    p_parse.add_argument("--summary", action="store_true",
                         help="print statistics instead of rows")
    p_parse.add_argument("--infer-types", action="store_true")
    p_parse.add_argument("--output", metavar="OUT",
                         help="write serialised columnar output to OUT")
    p_parse.add_argument("--output-format",
                         choices=("auto", "rprw", "feather"),
                         default="auto",
                         help="serialisation format for --output: the "
                              "compact RPRW stream or the Feather-style "
                              "framed file (auto = by .feather extension)")
    p_parse.add_argument("--timings", action="store_true",
                         help="print the per-stage StepTimer breakdown")
    p_parse.add_argument("--trace", metavar="OUT.json",
                         help="write a Chrome trace_event timeline "
                              "(Perfetto / chrome://tracing)")
    p_parse.add_argument("--metrics", action="store_true",
                         help="print the counter/gauge/histogram report")
    p_parse.set_defaults(func=cmd_parse)

    p_infer = sub.add_parser("infer", help="infer column types")
    p_infer.add_argument("file")
    add_common(p_infer)
    p_infer.set_defaults(func=cmd_infer)

    p_sniff = sub.add_parser("sniff", help="guess the dialect")
    p_sniff.add_argument("file")
    p_sniff.set_defaults(func=cmd_sniff)

    p_sim = sub.add_parser("simulate",
                           help="simulated GPU timings (cost model)")
    p_sim.add_argument("--dataset", choices=("yelp", "taxi"),
                       default="yelp")
    p_sim.add_argument("--size-mb", type=int, default=512)
    p_sim.add_argument("--chunk", type=int, default=31)
    p_sim.add_argument("--partition-mb", type=int, default=128)
    p_sim.add_argument("--trace", metavar="OUT.json",
                       help="write the simulated schedule as a Chrome "
                            "trace_event timeline (one track per "
                            "resource)")
    p_sim.add_argument("--metrics", action="store_true",
                       help="print schedule busy-time/overlap gauges")
    p_sim.set_defaults(func=cmd_simulate)

    p_serve = sub.add_parser(
        "serve", help="run the multi-tenant ingest service")
    add_common(p_serve)
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=7654,
                         help="listen port (0 = pick an ephemeral port, "
                              "printed at startup)")
    p_serve.add_argument("--dispatchers", type=_positive_int, default=2,
                         metavar="N",
                         help="dispatcher threads pulling from the "
                              "admission queue")
    p_serve.add_argument("--queue-capacity", type=_positive_int,
                         default=64, metavar="N",
                         help="admission queue bound; a full queue "
                              "rejects with a retry-after hint")
    p_serve.add_argument("--max-request-mb", type=_positive_int,
                         default=64, metavar="MB",
                         help="largest request body accepted")
    p_serve.add_argument("--request-timeout", type=float, default=None,
                         metavar="SECONDS",
                         help="default per-request deadline "
                              "(default: none)")
    p_serve.set_defaults(func=cmd_serve)

    def add_remote(p: argparse.ArgumentParser) -> None:
        p.add_argument("--host", default="127.0.0.1")
        p.add_argument("--port", type=int, default=7654)
        p.add_argument("--full", action="store_true",
                       help="also print the full service status report")

    p_batches = sub.add_parser(
        "batches", help="recent request history of a serve instance")
    add_remote(p_batches)
    p_batches.add_argument("--limit", type=_positive_int, default=20,
                           help="batches to show (newest first)")
    p_batches.set_defaults(func=cmd_batches)

    p_health = sub.add_parser(
        "checkhealth", help="health flags of a serve instance")
    add_remote(p_health)
    p_health.set_defaults(func=cmd_checkhealth)

    p_lint = sub.add_parser(
        "lint", help="run the parlint static-analysis checkers")
    p_lint.add_argument("paths", nargs="*", default=["src"],
                        help="files or directories to lint (default: src)")
    p_lint.add_argument("--select", action="append", default=None,
                        metavar="CODES",
                        help="only report codes matching these comma-"
                             "separated prefixes (e.g. PPR6,PPR401)")
    p_lint.add_argument("--ignore", action="append", default=None,
                        metavar="CODES",
                        help="drop codes matching these comma-separated "
                             "prefixes")
    p_lint.add_argument("--format", choices=("text", "json", "github"),
                        default="text")
    p_lint.add_argument("--list-codes", action="store_true",
                        help="list all checkers and diagnostic codes")
    p_lint.set_defaults(func=cmd_lint)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # Output piped into a pager/head that closed early; not an error.
        return 0


if __name__ == "__main__":
    sys.exit(main())
