"""The sharded executor: multiprocess parsing with scan-based combination.

The paper's context-resolution machinery is hierarchical by construction:
a chunk's state-transition vector (STV) summarises the chunk independently
of where the DFA enters it, and STVs combine under composition.  The same
holds one level up — a *shard* (a contiguous run of bytes, independently
chunked) is summarised by the composition of its chunks' STVs, and shards
combine under the very same operator.  Likewise the rel/abs column-offset
operator (§3.2) combines per-shard delimiter summaries into each shard's
entering record/column offsets.

:class:`ShardedExecutor` exploits this to parallelise the byte-bound
phases across a ``ProcessPoolExecutor``:

1. **contexts** (timer step ``parse``) — every worker chunks its shard,
   computes per-chunk STVs, their shard-local exclusive composition scan,
   and the shard's composite vector;
2. **combine** (timer step ``scan``) — the main process scans the shard
   composites (one tiny composition scan over ``num_shards`` vectors),
   yielding every shard's entering DFA state, and resolves each chunk's
   start state from the shard-local scans;
3. **tags** (timer step ``tag``) — every worker re-simulates its shard
   with the now-known start states and returns its §3.1 bitmaps in field
   form: the data bitmap, the shard-local delimiter positions and their
   record flags; the main process shifts the positions by the shard
   offsets, concatenates, and derives every field's record and column
   exactly as the serial tagger does
   (:func:`~repro.core.tagging.tag_fields`) — ``O(delimiters)`` work, no
   per-symbol ids shipped.

Because a shard entering mid-record or mid-quote is resolved exactly like
a chunk entering mid-record or mid-quote, shard boundaries are arbitrary
byte positions — no record alignment, no sequential pre-pass.  Stages
downstream of tagging (validate/partition/convert) run on the merged
result through the ordinary stage pipeline, so the output is bit-for-bit
the serial executor's.

Two hot-path economies on top of the schedule:

* **strided kernels** — workers run the byte-bound sweeps on the
  precomposed k-gram tables of :mod:`repro.kernels` (same stride the
  serial stages would pick); each worker process builds a dialect's
  tables once, on its first shard, and its process-local cache serves
  every later shard and parse;
* **shared-memory input** — when running on a real process pool the raw
  input is published once via :mod:`multiprocessing.shared_memory` and
  workers slice + chunk their own shard, instead of pickling every
  shard's bytes through the pool pipe twice (once per phase).  The
  ``sharded.input.bytes.shipped`` counter records what still travels by
  pickle, so the saving is visible; platforms without shared memory fall
  back to shipping shard arrays.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import nullcontext
from itertools import repeat

import numpy as np

from repro.columnar.guard import protect
from repro.core.chunking import chunk_groups_canonical
from repro.core.context import compute_transition_vectors
from repro.core.stages import PipelineContext, RawInput, TaggedInput, \
    new_array_bytes
from repro.core.tagging import classify, compute_emissions, tag_fields
from repro.dfa.automaton import Dfa
from repro.dfa.minimize import canonicalize
from repro.errors import ExecutorError, ParseError
from repro.exec.base import Executor
from repro.kernels import (
    compute_emissions_plan,
    compute_transition_vectors_plan,
    get_plan,
    resolve_stride,
)
from repro.obs.metrics import NULL_METRICS, MetricsRegistry
from repro.obs.trace import Tracer, snapshot_spans
from repro.scan.numpy_scan import compose_vectors, scan_depth, \
    scan_transition_vectors

__all__ = ["ShardedExecutor"]

#: Stages whose intermediates exist only on the global chunk grid; a
#: request to stop inside this prefix falls back to the serial schedule.
_GRID_STAGES = ("prune", "chunk", "stv", "scan")

#: Reusable no-op context for the unobserved worker path.
_NO_SPAN = nullcontext()


def _pool_context():
    """A thread-safe start method for the worker pool.

    The ingest service drives one shared executor from several
    dispatcher threads, so pool workers may be created while other
    threads are mid-parse.  Plain ``fork`` would snapshot whatever locks
    those threads hold (numpy internals, the kernel-table cache,
    logging) into the child, which then deadlocks on first use.
    ``forkserver`` forks from a clean single-threaded server process
    instead; preloading this module there keeps per-worker startup
    cheap (numpy and repro are imported once, in the server).  Platforms
    without ``forkserver`` fall back to the default start method —
    ``spawn`` there, which is equally thread-safe.
    """
    try:
        ctx = multiprocessing.get_context("forkserver")
    except ValueError:  # pragma: no cover - platform dependent
        return None
    ctx.set_forkserver_preload(["repro.exec.sharded"])
    return ctx


# -- worker tasks (module-level: picklable under every start method) ---------

# parlint: worker -- runs in pool processes; must stay pure and picklable
def _worker_obs(observe: bool) -> tuple[Tracer | None,
                                        MetricsRegistry | None]:
    """Worker-local observability sinks (``(None, None)`` when disabled)."""
    if not observe:
        return None, None
    return Tracer(), MetricsRegistry()


# parlint: worker -- runs in pool processes; must stay pure and picklable
def _pack_obs(tracer: Tracer | None, metrics: MetricsRegistry | None,
              step: str, start: float, nbytes: int):
    """Finish worker-side accounting and pack it for the trip home."""
    if tracer is None or metrics is None:
        return None
    elapsed = time.perf_counter() - start  # parlint: disable=PPR303 -- obs
    metrics.observe(f"worker.{step}.seconds", elapsed)
    metrics.count("worker.bytes", nbytes)
    return os.getpid(), snapshot_spans(tracer), metrics.to_dict()


# parlint: worker returns-borrowed -- pool-side; raw aliases the shm block
def _open_shard(shard) -> tuple[np.ndarray, object]:
    """Materialise a worker's shard bytes.

    ``shard`` is either the shard's uint8 array (the pickle fallback) or
    a ``(shm_name, total_bytes, lo, hi)`` descriptor pointing into the
    shared-memory block the parent published; in the latter case the
    worker attaches and slices its own range — no input bytes cross the
    pool pipe.  Returns ``(raw, handle)``; pass ``handle`` to
    :func:`_close_shard` once every derived array has been computed
    (nothing returned home may alias the shared buffer).
    """
    if isinstance(shard, np.ndarray):
        return shard, None
    from multiprocessing import shared_memory
    name, total, lo, hi = shard
    handle = shared_memory.SharedMemory(name=name)
    raw = np.ndarray((total,), dtype=np.uint8, buffer=handle.buf)[lo:hi]
    return protect(raw), handle


# parlint: worker -- runs in pool processes; must stay pure and picklable
def _close_shard(handle) -> None:
    """Detach from the parent's shared-memory block (never unlinks)."""
    if handle is not None:
        handle.close()


# parlint: worker -- runs in pool processes; must stay pure and picklable
def _shard_contexts(shard, dfa: Dfa, chunk_size: int, stride: int = 1,
                    minimize: bool = True, shard_index: int = 0,
                    observe: bool = False
                    ) -> tuple[np.ndarray, np.ndarray, tuple | None]:
    """Worker phase 1: shard-local STVs, their scan, and the composite.

    Returns ``(local_scan, composite, obs)`` where ``local_scan`` is the
    exclusive composition scan of the shard's chunk STVs (row ``c`` maps a
    shard-entry state to the state entering chunk ``c``) and ``composite``
    maps a shard-entry state to the state after the shard's last byte
    (tail padding uses the identity group, so it never perturbs the
    composition).  With ``minimize`` the sweeps (and hence the returned
    vectors) live in the *canonical* state space — canonicalisation is a
    pure function of the automaton, so every worker and the combining
    parent agree on it without shipping the canonical form around.
    ``obs`` carries the worker's spans/metrics when observing (``None``
    otherwise).
    """
    raw, handle = _open_shard(shard)
    try:
        tracer, metrics = _worker_obs(observe)
        start = time.perf_counter()  # parlint: disable=PPR303 -- obs timing
        with tracer.span("worker:contexts", shard=shard_index,
                         bytes=int(raw.size)) if tracer else _NO_SPAN:
            groups, _, padded_dfa, _canon = chunk_groups_canonical(
                raw, dfa, chunk_size, minimize)
            if stride > 1:
                plan = get_plan(padded_dfa, stride, chunk_size,
                                metrics or NULL_METRICS)
                vectors = compute_transition_vectors_plan(groups, plan)
            else:
                vectors = compute_transition_vectors(groups, padded_dfa)
            local_scan = scan_transition_vectors(vectors, exclusive=True)
            composite = compose_vectors(local_scan[-1], vectors[-1])
        obs = _pack_obs(tracer, metrics, "contexts", start, int(raw.size))
        return local_scan, composite, obs
    finally:
        _close_shard(handle)


# parlint: worker -- runs in pool processes; must stay pure and picklable
def _shard_tags(shard, dfa: Dfa, chunk_size: int,
                start_states: np.ndarray, stride: int = 1,
                minimize: bool = True, shard_index: int = 0,
                observe: bool = False) -> tuple:
    """Worker phase 2: the shard's §3.1 bitmaps in field form.

    Returns ``(data_mask, delim_positions, delim_is_record,
    tail_content, final_state, invalid_position, obs)`` — see
    :func:`~repro.core.tagging.classify`; positions are *local*
    (relative to the shard start) and ``obs`` carries the worker's
    spans/metrics when observing.  With ``minimize`` the sweep runs in
    canonical state space (and ``start_states`` arrive canonical, from
    phase 1's canonical vectors); the returned ``final_state`` is mapped
    back to the source automaton, which is what validation speaks.
    """
    raw, handle = _open_shard(shard)
    try:
        tracer, metrics = _worker_obs(observe)
        start = time.perf_counter()  # parlint: disable=PPR303 -- obs timing
        with tracer.span("worker:tags", shard=shard_index,
                         bytes=int(raw.size)) if tracer else _NO_SPAN:
            groups, chunking, padded_dfa, canon = chunk_groups_canonical(
                raw, dfa, chunk_size, minimize)
            if stride > 1:
                plan = get_plan(padded_dfa, stride, chunk_size,
                                metrics or NULL_METRICS)
                emissions, final_state, invalid_position = \
                    compute_emissions_plan(groups, start_states,
                                           plan, chunking)
            else:
                emissions, final_state, invalid_position = \
                    compute_emissions(groups, start_states, padded_dfa,
                                      chunking)
            if canon is not None:
                final_state = int(canon.state_rep[final_state])
            data_mask, delim_positions, delim_is_record, tail_content = \
                classify(emissions)
        obs = _pack_obs(tracer, metrics, "tags", start, int(raw.size))
        return (data_mask, delim_positions, delim_is_record, tail_content,
                final_state, invalid_position, obs)
    finally:
        _close_shard(handle)


class ShardedExecutor(Executor):
    """Parse with per-shard workers in a process pool.

    Parameters
    ----------
    workers:
        Worker processes (default: ``os.cpu_count()``).  ``workers=1``
        runs the sharded schedule without spawning a pool.
    shard_bytes:
        Force a shard size in bytes (default: the input is split evenly
        across ``workers``).  Any positive value is legal — shards
        smaller than a chunk, shards that split records, quotes or UTF-8
        sequences are all resolved by the combination scans.
    use_processes:
        ``False`` executes the worker tasks inline in the calling
        process (the full sharded data path, minus the pool) — useful
        for tests and debugging.
    shared_input:
        Publish the raw input to pool workers through
        :mod:`multiprocessing.shared_memory` (the default) instead of
        pickling every shard's bytes; ``False`` forces the pickle path
        (the automatic fallback when shared memory is unavailable).
    pipeline:
        Stage pipeline override (defaults to the canonical one).

    The worker pool is created lazily on first use and reused across
    parses; call :meth:`close` (or use the executor as a context
    manager) to release it.
    """

    def __init__(self, workers: int | None = None,
                 shard_bytes: int | None = None,
                 use_processes: bool = True,
                 shared_input: bool = True,
                 pipeline=None):
        super().__init__(pipeline)
        if workers is None:
            workers = os.cpu_count() or 1
        if workers < 1:
            raise ParseError("workers must be >= 1")
        if shard_bytes is not None and shard_bytes <= 0:
            raise ParseError("shard_bytes must be positive")
        self.workers = int(workers)
        self.shard_bytes = shard_bytes
        self.use_processes = bool(use_processes)
        self.shared_input = bool(shared_input)
        self._pool: ProcessPoolExecutor | None = None
        # Guards lazy pool creation/teardown: the ingest service drives
        # one shared executor from several dispatcher threads, and an
        # unlocked check-then-create would build (and leak) a second
        # pool under that race.
        self._pool_lock = threading.Lock()

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        super().close()
        with self._pool_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)

    def __del__(self):  # pragma: no cover - GC timing dependent
        try:
            self.close()
        except Exception:
            pass

    # -- execution ---------------------------------------------------------

    def execute(self, ctx: PipelineContext, payload: RawInput, *,
                until: str | None = None):
        self._ensure_open()
        if until in _GRID_STAGES:
            # Chunk-grid intermediates requested: they only exist on the
            # serial schedule's global grid.
            return self.pipeline.run(ctx, payload, until=until)

        payload = self.pipeline.run_stage(self.pipeline.stage("prune"),
                                          ctx, payload)
        tagged = self._tag_sharded(ctx, payload)
        if until == "tag":
            return tagged
        return self.pipeline.run(ctx, tagged, start="validate", until=until)

    # -- sharded phases 1+2 ------------------------------------------------

    def _tag_sharded(self, ctx: PipelineContext,
                     payload: RawInput) -> TaggedInput:
        options = ctx.options
        raw = payload.raw
        tracer, metrics = ctx.tracer, ctx.metrics
        observe = tracer.enabled or metrics.enabled
        minimize = options.minimize_dfa
        # The automaton the workers will actually sweep with: stride
        # selection must see the same (canonical) state/group counts the
        # workers' tables will have.
        run_dfa = canonicalize(ctx.dfa).dfa if minimize else ctx.dfa
        stride = resolve_stride(options.kernel_stride,
                                run_dfa.with_padding_group(),
                                options.kernel_table_budget)
        bounds = self._shard_bounds(int(raw.size), options.chunk_size)
        pooled = self._pooled(len(bounds))
        shm, shards = self._ship_input(raw, bounds, pooled)
        # Bytes each phase pickles through the pool pipe: the whole
        # shard under the fallback, a ~100 B descriptor under shm, and
        # nothing at all when shards stay in-process.
        shipped_per_phase = sum(hi - lo for lo, hi in bounds) \
            if pooled and shm is None else 0
        if metrics.enabled:
            metrics.gauge("shards", len(bounds))
            metrics.gauge("workers", self.workers)
            # Workers run the sweeps in their own processes, so record the
            # stride they were handed here, where it is resolved.
            metrics.gauge("stage.stv.stride", stride)
            metrics.gauge("stage.tag.stride", stride)
            metrics.gauge("kernels.table_budget",
                          options.kernel_table_budget)
            metrics.gauge("sharded.input.shared_memory",
                          1.0 if shm is not None else 0.0)

        try:
            phase_start = time.perf_counter()
            with tracer.span("sharded:contexts", shards=len(bounds)):
                with ctx.timer.step("parse"):
                    contexts = self._map_shards(
                        "contexts", _shard_contexts, shards,
                        repeat(ctx.dfa), repeat(options.chunk_size),
                        repeat(stride), repeat(minimize),
                        range(len(bounds)), repeat(observe))
            if metrics.enabled:
                # Mirror the serial pipeline's stage.*.seconds histograms
                # so dashboards and the planner's calibration see the
                # same names regardless of executor.
                metrics.observe("stage.stv.seconds",
                                time.perf_counter() - phase_start)
            for _, _, obs in contexts:
                self._ingest_obs(tracer, metrics, obs)
            if metrics.enabled:
                metrics.count("sharded.input.bytes.shipped",
                              shipped_per_phase)

            phase_start = time.perf_counter()
            with tracer.span("sharded:combine", shards=len(bounds)):
                with ctx.timer.step("scan"):
                    # One composition scan over the shard composites gives
                    # every shard its entering state; indexing each shard's
                    # local scan with it gives every chunk its start state
                    # (§3.1, twice).
                    composites = np.stack([composite
                                           for _, composite, _ in contexts])
                    entering = scan_transition_vectors(composites,
                                                       exclusive=True)
                    # Composites live in the workers' (canonical when
                    # minimising) state space; index with that space's
                    # start state.
                    entering_states = entering[:, run_dfa.start_state]
                    start_states = [
                        local_scan[:, int(state)].astype(np.uint8)
                        for (local_scan, _, _), state
                        in zip(contexts, entering_states)
                    ]

            if metrics.enabled:
                metrics.observe("stage.scan.seconds",
                                time.perf_counter() - phase_start)
                # The shards are one more level of blocks over the chunk
                # vectors: the deepest shard-local scan plus the combine.
                metrics.gauge("scan.depth",
                              max(scan_depth(len(local_scan))
                                  for local_scan, _, _ in contexts)
                              + scan_depth(len(contexts)))
            phase_start = time.perf_counter()
            with tracer.span("sharded:tags", shards=len(bounds)):
                with ctx.timer.step("tag"):
                    shard_tags = self._map_shards(
                        "tags", _shard_tags, shards,
                        repeat(ctx.dfa), repeat(options.chunk_size),
                        start_states, repeat(stride), repeat(minimize),
                        range(len(bounds)), repeat(observe))
                    tags, invalid_position = self._merge_tags(bounds,
                                                              shard_tags)
            if metrics.enabled:
                metrics.observe("stage.tag.seconds",
                                time.perf_counter() - phase_start)
            for entry in shard_tags:
                self._ingest_obs(tracer, metrics, entry[6])
            if metrics.enabled:
                metrics.count("sharded.input.bytes.shipped",
                              shipped_per_phase)
        finally:
            if shm is not None:
                shm.close()
                shm.unlink()

        tagged = TaggedInput(raw=raw, input_bytes=payload.input_bytes,
                             tags=tags, invalid_position=invalid_position)
        if metrics.enabled:
            metrics.gauge("stage.tag.bytes", new_array_bytes(payload, tagged))
        return tagged

    def _ship_input(self, raw: np.ndarray, bounds, pooled: bool):
        """How shard bytes reach the workers: ``(shm, shard payloads)``.

        On a real pool (and unless ``shared_input=False``) the input is
        copied once into a POSIX shared-memory block and workers get
        ``(name, total, lo, hi)`` descriptors; they attach and slice
        their own shard, so no input bytes are pickled.  Inline
        execution, single-shard runs and platforms without
        ``multiprocessing.shared_memory`` fall back to shipping the
        shard arrays themselves.
        """
        if pooled and self.shared_input and raw.size:
            try:
                from multiprocessing import shared_memory
                shm = shared_memory.SharedMemory(create=True,
                                                 size=int(raw.size))
                np.ndarray(raw.shape, dtype=np.uint8, buffer=shm.buf)[:] \
                    = raw  # parlint: disable=PPR601 -- filling a segment this frame just created and owns
                descriptors = [(shm.name, int(raw.size), lo, hi)
                               for lo, hi in bounds]
                return shm, descriptors
            except (ImportError, OSError):
                pass
        return None, [raw[lo:hi] for lo, hi in bounds]

    @staticmethod
    def _ingest_obs(tracer, metrics, obs) -> None:
        """Fold one worker's packed spans/metrics into the parent sinks."""
        if obs is None:
            return
        pid, spans, metric_snapshot = obs
        tracer.ingest(spans, pid)
        metrics.merge_dict(metric_snapshot)

    @staticmethod
    def _merge_tags(bounds, shard_tags):
        """Stitch per-shard classifications into one global TagResult.

        Shard-local delimiter positions shift by the shard offsets and
        concatenate; the fields are then derived exactly as the serial
        tagger derives them.  A record continues across a shard boundary
        with no special case: its fields simply lie in several shards.
        Record content after the last record delimiter (the trailing
        record) is the tail flag of the last shard holding a record
        delimiter, or'ed with the content of every shard after it.
        """
        masks, positions, flags = [], [], []
        trailing = False
        invalid_position = None
        for (lo, _hi), entry in zip(bounds, shard_tags):
            data_mask, local, is_record, tail, _final, invalid, _ = entry
            masks.append(data_mask)
            positions.append(local + lo)
            flags.append(is_record)
            trailing = tail if is_record.any() else (trailing or tail)
            if invalid_position is None and invalid is not None:
                invalid_position = lo + invalid
        final_state = int(shard_tags[-1][4])
        tags = tag_fields(np.concatenate(masks), np.concatenate(positions),
                          np.concatenate(flags), final_state, trailing)
        return tags, invalid_position

    # -- scheduling --------------------------------------------------------

    def _shard_bounds(self, n: int,
                      chunk_size: int) -> list[tuple[int, int]]:
        """Contiguous byte ranges covering the input (≥ 1, even when empty)."""
        if n == 0:
            return [(0, 0)]
        if self.shard_bytes is not None:
            size = self.shard_bytes
        else:
            # Even split across workers, but never shards smaller than a
            # chunk — sub-chunk shards only make sense when forced.
            size = max(chunk_size, -(-n // self.workers))
        num_shards = -(-n // size)
        return [(i * size, min(n, (i + 1) * size))
                for i in range(num_shards)]

    def _pooled(self, num_shards: int) -> bool:
        """Whether shard tasks run on the process pool."""
        return self.use_processes and self.workers > 1 and num_shards > 1

    def _map_shards(self, phase: str, fn, shards, *iters) -> list:
        """Run ``fn`` over the shards in order: on the pool, or inline.

        A pool whose worker died (SIGKILL, the OOM killer) is broken for
        good; it is discarded here so the next parse starts a fresh one,
        and the loss surfaces as a typed :class:`ExecutorError` naming
        the phase and the first shard whose result was lost.
        """
        if not self._pooled(len(shards)):
            return list(map(fn, shards, *iters))
        with self._pool_lock:
            if self._pool is None:
                self._pool = ProcessPoolExecutor(
                    max_workers=self.workers, mp_context=_pool_context())
            pool = self._pool
        results: list = []
        try:
            for result in pool.map(fn, shards, *iters):
                results.append(result)
        except BrokenProcessPool as exc:
            self._discard_pool(pool)
            raise ExecutorError(
                f"a pool worker died during the {phase} phase (shard "
                f"{len(results)} of {len(shards)}); the pool was "
                f"discarded and the next parse starts a fresh one",
                phase=phase, shard=len(results)) from exc
        return results

    def _discard_pool(self, pool: ProcessPoolExecutor) -> None:
        """Forget a broken pool (unless another thread already replaced
        it) and release what is left of it."""
        with self._pool_lock:
            if self._pool is pool:
                self._pool = None
        pool.shutdown(wait=False, cancel_futures=True)
