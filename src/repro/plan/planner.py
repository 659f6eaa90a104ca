"""The self-tuning planner: probe, enumerate, score, adapt.

Static half: :meth:`Planner.plan` probes the input
(:func:`~repro.plan.stats.probe_input`), enumerates candidates over the
knob space — ``chunk_size`` × ``kernel_stride`` (plus a ``workers``
recommendation) — filters strides by table-budget feasibility
(:func:`~repro.kernels.strided.plan_nbytes` against
``kernel_table_budget``, the same arithmetic as
:func:`~repro.kernels.strided.pick_stride`), scores the survivors with
the calibrated :class:`~repro.gpusim.cost_model.PipelineCostModel`, and
materialises the winner as concrete :class:`ParseOptions`.  The
:class:`PlanDecision` keeps every candidate with its score and the
reason it lost.

Online half: :meth:`Planner.observe` folds a finished parse's measured
step seconds into the :class:`~repro.plan.calibration.CalibrationStore`,
so the next :meth:`plan` — the next partition of a stream, the next
request of a service — scores candidates against observed rather than
modelled costs.  :meth:`Planner.refine` closes the loop actively by
running the most promising unexplored candidates once each.

Every decision emits ``plan.*`` spans and metrics (see
``docs/PLANNER.md`` for the full name list).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from repro.core.options import ParseOptions
from repro.gpusim.cost_model import PipelineCostModel, StepCosts
from repro.kernels.strided import SUPPORTED_STRIDES, plan_nbytes, \
    resolve_stride
from repro.obs.metrics import NULL_METRICS, MetricsRegistry
from repro.obs.trace import NULL_TRACER, Tracer
from repro.plan.calibration import CalibrationStore, STEPS, chunk_bucket, \
    config_key
from repro.plan.stats import InputStats, probe_input, workload_fingerprint

__all__ = ["Planner", "PlanDecision", "PlanCandidate",
           "CHUNK_CANDIDATES", "WORKERS_INPUT_THRESHOLD"]

MiB = 1024 ** 2

#: Chunk sizes every enumeration considers (plus the configured size and
#: the cost model's own suggestion).  Spans the paper's 4-64 B range and
#: the larger sizes the vectorised substrate rewards; calibration decides
#: between them once measurements exist.
CHUNK_CANDIDATES = (16, 31, 64, 128)

#: Modelled stv+tag speedup of a k-stride sweep over unit stride is
#: ``k**EXPONENT`` — sublinear, matching the measured BENCH_kernels
#: speedups (table gathers amortise dispatch but not bandwidth).
STRIDE_SPEEDUP_EXPONENT = 0.5

#: Modelled partition-cost factor of the ``O(n + fields)`` field
#: partition relative to the radix sort the GPU cost model prices.
FIELD_RUN_PARTITION_FACTOR = 0.35

#: Inputs below this run serial: a process pool's spawn/ship overhead
#: needs tens of megabytes of byte-bound work to amortise.
WORKERS_INPUT_THRESHOLD = 64 * MiB

#: Worker-count ceiling the planner will recommend.
MAX_PLAN_WORKERS = 4


def _sweep_automaton(options: ParseOptions):
    """The padded automaton the strided sweeps will actually run with."""
    return options._sweep_dfa()


@dataclass(frozen=True)
class PlanCandidate:
    """One point of the knob space, scored (or ruled out)."""

    chunk_size: int
    stride: int
    feasible: bool
    #: Calibrated modelled seconds; ``None`` for infeasible candidates.
    modelled_seconds: float | None
    #: ``True`` when the score used per-configuration observed evidence.
    calibrated: bool
    chosen: bool
    #: Why the candidate lost (or ``"chosen"``).
    reason: str

    def as_dict(self) -> dict:
        return {
            "chunk_size": self.chunk_size,
            "kernel_stride": self.stride,
            "feasible": self.feasible,
            "modelled_seconds": self.modelled_seconds,
            "calibrated": self.calibrated,
            "chosen": self.chosen,
            "reason": self.reason,
        }


@dataclass(frozen=True)
class PlanDecision:
    """A planning verdict: the winner, and why everyone else lost."""

    chosen: ParseOptions
    workers: int
    fingerprint: str
    stats: InputStats
    candidates: tuple[PlanCandidate, ...]
    modelled_seconds: float
    calibrated: bool
    #: Largest input the simulated device could parse at this shape
    #: (:meth:`PipelineCostModel.max_input_for_device`).
    device_ceiling_bytes: int
    notes: tuple[str, ...] = field(default_factory=tuple)

    @property
    def winner(self) -> PlanCandidate:
        return next(c for c in self.candidates if c.chosen)

    def rationale(self) -> list[str]:
        """Human-readable decision log (embedded in bench artefacts)."""
        w = self.winner
        lines = [
            f"fingerprint {self.fingerprint}: chose chunk_size="
            f"{w.chunk_size} kernel_stride={w.stride} "
            f"workers={self.workers} "
            f"({self.modelled_seconds * 1e3:.2f} ms modelled"
            f"{', calibrated' if self.calibrated else ''})"]
        for c in self.candidates:
            if c.chosen:
                continue
            lines.append(
                f"  rejected chunk={c.chunk_size} k={c.stride}: "
                f"{c.reason}")
        lines.extend(f"  note: {note}" for note in self.notes)
        return lines

    def as_dict(self) -> dict:
        return {
            "fingerprint": self.fingerprint,
            "chosen": {
                "chunk_size": self.chosen.chunk_size,
                "kernel_stride": self.chosen.kernel_stride,
                "workers": self.workers,
            },
            "modelled_seconds": self.modelled_seconds,
            "calibrated": self.calibrated,
            "device_ceiling_bytes": self.device_ceiling_bytes,
            "candidates": [c.as_dict() for c in self.candidates],
            "rationale": self.rationale(),
        }


class Planner:
    """Self-tuning configuration planner (see module docstring).

    One planner instance accumulates calibration across every parse it
    plans or observes — share it (a service shares one across requests;
    the CLI builds one per invocation; the parser facade falls back to a
    process-wide default).
    """

    def __init__(self, model: PipelineCostModel | None = None,
                 store: CalibrationStore | None = None,
                 tracer: Tracer = NULL_TRACER,
                 metrics: MetricsRegistry = NULL_METRICS):
        self.model = model if model is not None else PipelineCostModel()
        self.store = store if store is not None else CalibrationStore()
        self.tracer = tracer
        self.metrics = metrics
        #: fingerprint -> last PlanDecision (re-plan change detection).
        self._decisions: dict[str, PlanDecision] = {}
        #: fingerprint -> last InputStats (admission pricing shape).
        self._shapes: dict[str, InputStats] = {}
        self._default_shape: InputStats | None = None

    # -- scoring -----------------------------------------------------------

    def _modelled(self, stats: InputStats, input_bytes: int,
                  chunk_size: int, stride: int) -> StepCosts:
        """Model prediction for one configuration (before calibration)."""
        base = self.model.step_costs(
            stats.stats_factory()(max(1, input_bytes),
                                  chunk_size=chunk_size))
        sweep = float(stride) ** -STRIDE_SPEEDUP_EXPONENT
        return StepCosts(parse=base.parse * sweep, scan=base.scan,
                         tag=base.tag * sweep,
                         partition=base.partition
                         * FIELD_RUN_PARTITION_FACTOR,
                         convert=base.convert)

    def _score(self, stats: InputStats, fingerprint: str,
               input_bytes: int, chunk_size: int,
               stride: int) -> tuple[float, bool]:
        """(calibrated seconds, used-per-config-evidence) for one cell."""
        costs = self._modelled(stats, input_bytes, chunk_size, stride)
        key = config_key(fingerprint, chunk_size, stride)
        calibrated = self.store.observed(key)
        return self.store.apply(costs, key, fingerprint).total, calibrated

    # -- static planning ----------------------------------------------------

    def plan(self, data, options: ParseOptions | None = None,
             tracer: Tracer | None = None,
             metrics: MetricsRegistry | None = None) -> PlanDecision:
        """Probe ``data`` and pick a configuration for ``options``."""
        tracer = tracer if tracer is not None else self.tracer
        metrics = metrics if metrics is not None else self.metrics
        base = options if options is not None else ParseOptions()

        if tracer.enabled:
            with tracer.span("plan.probe",
                             input_bytes=int(len(data))):
                stats = probe_input(data, base)
        else:
            stats = probe_input(data, base)
        fingerprint = stats.fingerprint()
        self._shapes[fingerprint] = stats
        self._default_shape = stats

        decision = self._decide(stats, fingerprint, base)
        previous = self._decisions.get(fingerprint)
        self._decisions[fingerprint] = decision

        w = decision.winner
        if metrics.enabled:
            metrics.count("plan.decisions")
            metrics.gauge("plan.chunk_size", w.chunk_size)
            metrics.gauge("plan.kernel_stride", w.stride)
            metrics.gauge("plan.workers", decision.workers)
            metrics.observe("plan.modelled.seconds",
                            decision.modelled_seconds)
        if tracer.enabled:
            with tracer.span("plan.decide", fingerprint=fingerprint,
                             chunk_size=w.chunk_size,
                             kernel_stride=w.stride,
                             workers=decision.workers,
                             calibrated=decision.calibrated,
                             modelled_ms=round(
                                 decision.modelled_seconds * 1e3, 3)):
                pass
        if previous is not None and previous.chosen != decision.chosen:
            if metrics.enabled:
                metrics.count("plan.replans")
            if tracer.enabled:
                with tracer.span("plan.replan", fingerprint=fingerprint,
                                 chunk_size=w.chunk_size,
                                 kernel_stride=w.stride):
                    pass
        return decision

    def _decide(self, stats: InputStats, fingerprint: str,
                base: ParseOptions) -> PlanDecision:
        input_bytes = max(1, stats.input_bytes)
        automaton = _sweep_automaton(base)
        budget = base.kernel_table_budget
        notes: list[str] = []
        if not stats.sniffed_agrees:
            notes.append("dialect sniffer preferred a different "
                         "delimiter; planning with the configured one")

        # Stride candidates: the feasibility half of the knob space.
        strides: list[tuple[int, bool, str]] = []
        if base.kernel_stride is not None:
            strides.append((base.kernel_stride, True, "pinned by options"))
        else:
            for k in SUPPORTED_STRIDES:
                need = plan_nbytes(automaton.num_groups,
                                   automaton.num_states, k)
                if need <= budget:
                    strides.append((k, True, ""))
                else:
                    strides.append((k, False,
                                    f"k-gram plan needs {need} B > "
                                    f"table budget {budget} B"))
            strides.append((1, True, ""))

        # Chunk-size candidates: the configured size, the ladder, and
        # the cost model's own suggestion (suggest_chunk_size wired in).
        suggested = self.model.suggest_chunk_size(
            stats.stats_factory(), input_bytes)
        chunks = sorted({base.chunk_size, suggested, *CHUNK_CANDIDATES})

        scored: list[dict] = []
        for chunk in chunks:
            for stride, feasible, why in strides:
                if not feasible:
                    scored.append(dict(
                        chunk_size=chunk, stride=stride, feasible=False,
                        seconds=None, calibrated=False, reason=why))
                    continue
                seconds, calibrated = self._score(
                    stats, fingerprint, input_bytes, chunk, stride)
                scored.append(dict(
                    chunk_size=chunk, stride=stride, feasible=True,
                    seconds=seconds, calibrated=calibrated, reason=why))
        best = min((c for c in scored if c["feasible"]),
                   key=lambda c: c["seconds"])

        candidates = []
        for c in scored:
            chosen = c is best
            if chosen:
                reason = "chosen"
            elif not c["feasible"]:
                reason = c["reason"]
            else:
                reason = (f"modelled {c['seconds'] * 1e3:.2f} ms vs "
                          f"{best['seconds'] * 1e3:.2f} ms"
                          + (" (calibrated)" if c["calibrated"] else ""))
            candidates.append(PlanCandidate(
                chunk_size=c["chunk_size"], stride=c["stride"],
                feasible=c["feasible"],
                modelled_seconds=c["seconds"],
                calibrated=c["calibrated"], chosen=chosen, reason=reason))

        chosen_options = base.with_(
            plan=None, chunk_size=best["chunk_size"],
            kernel_stride=best["stride"])

        workers = 1
        if stats.input_bytes >= WORKERS_INPUT_THRESHOLD:
            workers = min(MAX_PLAN_WORKERS, os.cpu_count() or 1)
            notes.append(f"input >= {WORKERS_INPUT_THRESHOLD >> 20} MiB: "
                         f"recommending {workers} shard workers")

        ceiling = self.model.max_input_for_device(
            stats.stats_factory(),
            record_tag_bytes=stats.record_tag_bytes)
        if stats.input_bytes > ceiling:
            notes.append(
                f"input exceeds the simulated device-memory ceiling "
                f"({ceiling} B); stream in partitions")

        return PlanDecision(
            chosen=chosen_options, workers=workers,
            fingerprint=fingerprint, stats=stats,
            candidates=tuple(candidates),
            modelled_seconds=best["seconds"],
            calibrated=best["calibrated"],
            device_ceiling_bytes=ceiling, notes=tuple(notes))

    def plan_options(self, data, options: ParseOptions | None = None,
                     tracer: Tracer | None = None,
                     metrics: MetricsRegistry | None = None
                     ) -> ParseOptions:
        """The one-call entry the parser facade uses for ``plan="auto"``."""
        return self.plan(data, options, tracer=tracer,
                         metrics=metrics).chosen

    # -- online adaptation ---------------------------------------------------

    def observe(self, result, metrics: MetricsRegistry | None = None
                ) -> str:
        """Fold a finished parse's measured stage seconds into the store.

        ``result`` is a :class:`~repro.core.result.ParseResult`; returns
        the fingerprint the observation calibrated.  Works identically
        for serial and sharded runs: the step timer survives the process
        boundary, so both calibrate the same fingerprint.
        """
        metrics = metrics if metrics is not None else self.metrics
        options = result.options
        ws = result.workload_stats()
        avg_record = result.input_bytes / max(1, result.num_rows)
        fingerprint = workload_fingerprint(
            options.dialect, ws.num_columns, avg_record,
            ws.numeric_field_fraction)
        measured = {step: seconds
                    for step, seconds in result.step_seconds().items()
                    if step in STEPS}
        if not measured or result.input_bytes == 0:
            return fingerprint

        stride = resolve_stride(options.kernel_stride,
                                _sweep_automaton(options),
                                options.kernel_table_budget)
        stats = InputStats(
            input_bytes=result.input_bytes,
            sample_bytes=result.input_bytes, dialect=options.dialect,
            sniffed_agrees=True, num_columns=ws.num_columns,
            records_sampled=result.num_rows,
            avg_record_bytes=avg_record,
            fields_per_byte=ws.num_columns / max(1.0, avg_record),
            quote_rate=0.0,
            numeric_fraction=ws.numeric_field_fraction,
            num_states=ws.num_states,
            record_tag_bytes=ws.record_tag_bytes)
        modelled = self._modelled(stats, result.input_bytes,
                                  options.chunk_size, stride)
        key = config_key(fingerprint, options.chunk_size, stride)
        self.store.observe(key, measured, modelled)
        self.store.observe(fingerprint, measured, modelled)
        self._shapes.setdefault(fingerprint, stats)
        if self._default_shape is None:
            self._default_shape = stats
        if metrics.enabled:
            metrics.count("plan.calibration.updates")
            metrics.gauge("plan.calibration.version", self.store.version)
        return fingerprint

    def refine(self, data, options: ParseOptions | None = None,
               rounds: int = 4, executor=None) -> PlanDecision:
        """Actively close the loop: measure promising candidates, re-plan.

        Each round plans, then runs the best-scored candidate whose
        configuration has no observed evidence yet (one real parse) and
        feeds the measurement back.  Chunk size is explored
        breadth-first: calibration extrapolates stride scalings across
        chunk buckets via the workload-wide fallback, but each chunk
        bucket's cache behaviour must be measured — so every unmeasured
        bucket gets its best-modelled configuration timed before any
        round is spent on a stride variant of a bucket that already has
        evidence.  Stops early once the top
        candidates are all calibrated.  Returns the final,
        evidence-backed decision.
        """
        from repro.core.parser import ParPaRawParser
        base = options if options is not None else ParseOptions()
        decision = self.plan(data, base)
        for _ in range(max(0, rounds)):
            unexplored = [c for c in decision.candidates
                          if c.feasible and not c.calibrated]
            if not unexplored:
                break
            explored_buckets = {
                chunk_bucket(c.chunk_size)
                for c in decision.candidates if c.calibrated}
            fresh = [c for c in unexplored
                     if chunk_bucket(c.chunk_size) not in explored_buckets]
            target = min(fresh or unexplored,
                         key=lambda c: c.modelled_seconds)
            trial = base.with_(
                plan=None, chunk_size=target.chunk_size,
                kernel_stride=target.stride)
            result = ParPaRawParser(trial, executor=executor).parse(data)
            self.observe(result)
            decision = self.plan(data, base)
        return decision

    # -- admission pricing ---------------------------------------------------

    def estimate_cost(self, input_bytes: int,
                      options: ParseOptions | None = None,
                      fingerprint: str | None = None) -> float:
        """Estimated seconds to parse ``input_bytes`` at ``options``.

        Prices against the best shape evidence available: the requested
        fingerprint's remembered statistics, else the most recent shape
        this planner has seen, else a generic delimiter-file shape.
        Calibration sharpens the estimate as requests complete — the
        ingest service uses this to price ``retry_after`` hints and
        per-tenant cost budgets.
        """
        base = options if options is not None else _GENERIC_OPTIONS
        stats = None
        if fingerprint is not None:
            stats = self._shapes.get(fingerprint)
        if stats is None:
            stats = self._default_shape
        if stats is None:
            stats = _generic_shape(base)
        fp = fingerprint if fingerprint is not None \
            else stats.fingerprint()
        stride = resolve_stride(base.kernel_stride,
                                _sweep_automaton(base),
                                base.kernel_table_budget)
        costs = self._modelled(stats, max(1, int(input_bytes)),
                               base.chunk_size, stride)
        key = config_key(fp, base.chunk_size, stride)
        estimate = self.store.apply(costs, key, fp).total
        if self.metrics.enabled:
            self.metrics.observe("plan.estimate.seconds", estimate)
        return estimate


_GENERIC_OPTIONS = ParseOptions()


def _generic_shape(options: ParseOptions) -> InputStats:
    """A nondescript delimiter-file shape for never-seen workloads."""
    return InputStats(
        input_bytes=0, sample_bytes=0, dialect=options.dialect,
        sniffed_agrees=True, num_columns=8, records_sampled=0,
        avg_record_bytes=100.0, fields_per_byte=0.08, quote_rate=0.0,
        numeric_fraction=0.25,
        num_states=options.resolved_dfa().num_states,
        record_tag_bytes=4.0)
