"""Vectorised scans used by the production pipeline.

These functions implement the same scans as the scalar algorithms in this
subpackage, but over NumPy arrays, so that an array lane corresponds to a
GPU thread.  The scalar algorithms remain the readable reference;
equivalence between the two is covered by tests.

Two of the scans are ParPaRaw-specific:

* :func:`scan_transition_vectors` scans an ``(n_chunks, |S|)`` array of
  state-transition vectors under composition — paper §3.1.  It is a
  blocked reduce-then-scan, the NumPy twin of the hierarchical
  single-pass scan (:mod:`repro.scan.hierarchical`,
  :mod:`repro.scan.decoupled_lookback`): (1) each block of ``B`` chunk
  vectors is composed into one vector, looping over the ``B`` lanes and
  vectorised across the blocks; (2) the ⌈n/B⌉ block composites are
  scanned the same way, recursively; (3) every block is swept from the
  vector entering it.  Work is ``O(n·|S|)``, depth ``O(B)`` lane steps
  per level over :func:`scan_depth` levels.  :func:`scan_start_states`
  runs the same hierarchy carrying one state per block through the
  sweep, for callers that need only the true start state of every chunk,
  and :func:`reduce_transition_vectors` runs only the folds;
* :func:`scan_column_offsets` scans ``(kind, value)`` column-offset pairs
  under the rel/abs operator — paper §3.2 — with Hillis–Steele doubling;
  only the paper's chunked tagger, a test oracle, runs it.
"""

from __future__ import annotations

# parlint: hot-path -- the chunk-context scan runs on every parse; loops need waivers

import math

import numpy as np

__all__ = [
    "exclusive_sum",
    "inclusive_sum",
    "compose_vectors",
    "MIN_BLOCK_WIDTH",
    "MAX_BLOCK_WIDTH",
    "block_width",
    "scan_depth",
    "reduce_transition_vectors",
    "scan_transition_vectors",
    "scan_start_states",
    "scan_column_offsets",
]

#: Bounds of the block width ``B`` (:func:`block_width`).  A level costs
#: a fixed dozen NumPy calls (the lane copy, the offsets) plus ``2·B``
#: lane steps, each vectorised over the level's ⌈n/B⌉ blocks: splitting
#: fewer than 16 vectors into blocks costs more calls than sweeping them
#: as one block, and at 64 lanes a step over the ~8k blocks of a 16 MiB
#: input is long enough that per-step overhead no longer shows, so wider
#: blocks would only lengthen the sequential depth.
MIN_BLOCK_WIDTH = 16
MAX_BLOCK_WIDTH = 64


def inclusive_sum(values: np.ndarray) -> np.ndarray:
    """Inclusive prefix sum as int64 (overflow-safe for byte offsets)."""
    return np.cumsum(values, dtype=np.int64)


def exclusive_sum(values: np.ndarray) -> np.ndarray:
    """Exclusive prefix sum as int64: output[i] = sum(values[:i]).

    >>> exclusive_sum(np.array([3, 5, 1, 2])).tolist()
    [0, 3, 8, 9]
    """
    out = np.empty(len(values), dtype=np.int64)
    if len(values) == 0:
        return out
    np.cumsum(values[:-1], dtype=np.int64, out=out[1:])
    out[0] = 0
    return out


def compose_vectors(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Compose state-transition vectors element-wise: ``out[i] = b[a[i]]``.

    Both arguments are ``(..., S)`` arrays; the composition applies the
    left-hand chunk first, then the right-hand chunk, for every hypothetical
    start state (paper §3.1).
    """
    return np.take_along_axis(right, left, axis=-1)


def block_width(n: int) -> int:
    """Block width ``B`` of one scan level over ``n >= 1`` vectors.

    ⌈√n⌉ clamped to ``[MIN_BLOCK_WIDTH, MAX_BLOCK_WIDTH]``, and at most
    ``n`` (one block).  A level runs ``2·B`` lane steps and leaves ⌈n/B⌉
    composites for the next, so the square root keeps small inputs (an
    8 KiB request is ~265 chunks: two levels, 17 and 16 lanes) to a few
    dozen steps, while large inputs get the full width.

    >>> [block_width(n) for n in (2, 17, 265, 4096, 541201)]
    [2, 16, 17, 64, 64]
    """
    return min(n, max(MIN_BLOCK_WIDTH,
                      min(MAX_BLOCK_WIDTH, math.isqrt(n - 1) + 1)))


def scan_depth(n: int) -> int:
    """Levels of the block hierarchy that scans ``n`` vectors.

    Level sizes run ``n, ⌈n/B⌉, …`` down to a single block; a scan over
    at most one vector composes nothing and has depth 0.

    >>> [scan_depth(n) for n in (0, 1, 2, 265, 33826, 541201)]
    [0, 0, 1, 2, 4, 4]
    """
    depth = 0
    while n > 1:  # parlint: disable=PPR401 -- one trip per hierarchy level (a handful for any input that fits in memory)
        n = -(-n // block_width(n))
        depth += 1
    return depth


def _check_vectors(vectors) -> np.ndarray:
    vectors = np.asarray(vectors)
    if vectors.ndim != 2:
        raise ValueError("expected an (n_chunks, num_states) array")
    return vectors


def _lanes(vectors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split ``(n, S)`` vectors (``n >= 2``) into blocks of ``B`` rows.

    Returns the lane-major copy ``lanes`` of shape ``(B, blocks·S)`` —
    row ``j`` holds vector ``j`` of every block, contiguously, the tail
    block padded with identity vectors (which compose as no-ops) — and
    the ``(blocks·S,)`` offsets of each entry's vector within a lane, so
    that ``lanes[j][states + offsets]`` advances the states of every
    block through its vector ``j`` in one gather.
    """
    n, num_states = vectors.shape
    width = block_width(n)
    blocks = -(-n // width)
    whole = n // width
    lanes = np.empty((width, blocks, num_states), dtype=vectors.dtype)
    lanes[:, :whole] = vectors[:whole * width].reshape(
        whole, width, num_states).swapaxes(0, 1)
    if whole < blocks:
        tail = n - whole * width
        lanes[:tail, whole] = vectors[whole * width:]
        lanes[tail:, whole] = np.arange(num_states, dtype=vectors.dtype)
    offsets = np.arange(blocks * num_states, dtype=np.intp)
    offsets -= offsets % num_states
    return lanes.reshape(width, blocks * num_states), offsets


def _fold(lanes: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Pass 1: every block's vectors composed into one, flattened."""
    composite = lanes[0]
    for lane in lanes[1:]:  # parlint: disable=PPR401 -- B ≤ MAX_BLOCK_WIDTH lane steps, each vectorised over all blocks
        composite = lane[composite + offsets]
    return composite


def reduce_transition_vectors(vectors: np.ndarray) -> np.ndarray:
    """Compose all ``(n, S)`` vectors, in order, into one ``(S,)`` vector.

    Runs only the scan's folds (pass 1, level after level): ``O(n·|S|)``
    work and no ``(n, S)`` output.  The composition of no vectors is the
    identity.
    """
    vectors = _check_vectors(vectors)
    num_states = vectors.shape[1]
    if len(vectors) == 0:
        return np.arange(num_states, dtype=vectors.dtype)
    while len(vectors) > 1:  # parlint: disable=PPR401 -- one trip per hierarchy level (scan_depth)
        vectors = _fold(*_lanes(vectors)).reshape(-1, num_states)
    return vectors[0].copy()


def scan_transition_vectors(vectors: np.ndarray,
                            exclusive: bool = True) -> np.ndarray:
    """Scan an ``(n, S)`` array of state-transition vectors by composition.

    A blocked reduce-then-scan (module docstring): fold each block of
    :func:`block_width` vectors into one, scan the block composites the
    same way, then sweep each block from the vector entering it.

    Parameters
    ----------
    vectors:
        ``(n, S)`` integer array; row ``c`` maps start state ``i`` to the
        end state after chunk ``c``.
    exclusive:
        If true (default), row ``c`` of the result maps a global start state
        to the state *entering* chunk ``c`` (identity row prepended).

    Returns
    -------
    np.ndarray
        ``(n, S)`` scanned array.
    """
    vectors = _check_vectors(vectors)
    n, num_states = vectors.shape
    if n <= 1:
        scanned = np.empty_like(vectors)
        scanned[:] = np.arange(num_states, dtype=vectors.dtype)
    else:
        lanes, offsets = _lanes(vectors)
        blocks = len(offsets) // num_states
        if blocks > 1:
            entering = scan_transition_vectors(
                _fold(lanes, offsets).reshape(blocks, num_states)
            ).reshape(-1)
        else:
            entering = np.arange(num_states, dtype=vectors.dtype)
        out = np.empty((blocks, len(lanes), num_states), dtype=vectors.dtype)
        for j, lane in enumerate(lanes):  # parlint: disable=PPR401 -- B ≤ MAX_BLOCK_WIDTH lane steps, each vectorised over all blocks
            out[:, j] = entering.reshape(blocks, num_states)
            entering = lane[entering + offsets]
        scanned = out.reshape(-1, num_states)[:n]
    if exclusive:
        return scanned
    return compose_vectors(scanned, vectors)


def scan_start_states(vectors: np.ndarray, start_state: int) -> np.ndarray:
    """State entering each of ``n`` chunks from ``start_state``: ``(n,)``.

    Equals ``scan_transition_vectors(vectors)[:, start_state]``, but every
    level's sweep carries one state per block instead of a whole vector,
    and the blocks' entering states come from this same function over the
    block composites.
    """
    vectors = _check_vectors(vectors)
    n, num_states = vectors.shape
    if n <= 1:
        return np.full(n, start_state, dtype=vectors.dtype)
    lanes, offsets = _lanes(vectors)
    blocks = len(offsets) // num_states
    if blocks > 1:
        states = scan_start_states(
            _fold(lanes, offsets).reshape(blocks, num_states), start_state)
    else:
        states = np.full(1, start_state, dtype=vectors.dtype)
    offsets = offsets[::num_states]
    out = np.empty((blocks, len(lanes)), dtype=vectors.dtype)
    for j, lane in enumerate(lanes):  # parlint: disable=PPR401 -- B ≤ MAX_BLOCK_WIDTH lane steps, each vectorised over all blocks
        out[:, j] = states
        states = lane[states + offsets]
    return out.reshape(-1)[:n]


def scan_column_offsets(kinds: np.ndarray, values: np.ndarray,
                        exclusive: bool = True) -> tuple[np.ndarray, np.ndarray]:
    """Scan rel/abs column offsets (paper §3.2) across chunks.

    Parameters
    ----------
    kinds:
        ``(n,)`` boolean array; True where the chunk's offset is *absolute*
        (the chunk contains a record delimiter).
    values:
        ``(n,)`` integer offsets (field-delimiter counts).
    exclusive:
        If true (default), entry ``c`` gives the column offset *entering*
        chunk ``c``; the seed is ``relative(0)``.

    Returns
    -------
    (np.ndarray, np.ndarray)
        Scanned ``(kinds, values)`` pair.  After an exclusive scan over an
        input whose first chunk starts at a record boundary, every entry
        reachable from an absolute offset is absolute.
    """
    kinds = np.asarray(kinds, dtype=bool)
    values = np.asarray(values, dtype=np.int64)
    if kinds.shape != values.shape or kinds.ndim != 1:
        raise ValueError("kinds and values must be equal-length 1-D arrays")
    n = len(kinds)
    if n == 0:
        return kinds.copy(), values.copy()
    acc_kind = kinds.copy()
    acc_value = values.copy()
    offset = 1
    while offset < n:  # parlint: disable=PPR401 -- ⌈log2 n⌉ doubling rounds of the oracle-only offset scan, each vectorised over all chunks
        left_kind = acc_kind[:-offset]
        left_value = acc_value[:-offset]
        right_kind = acc_kind[offset:]
        right_value = acc_value[offset:]
        # a ⊕ b: absolute right operand wins outright; relative right
        # operand adds onto the left operand and inherits its kind.
        new_kind = np.where(right_kind, True, left_kind)
        new_value = np.where(right_kind, right_value,
                             left_value + right_value)
        acc_kind = acc_kind.copy()
        acc_value = acc_value.copy()
        acc_kind[offset:] = new_kind
        acc_value[offset:] = new_value
        offset *= 2
    if not exclusive:
        return acc_kind, acc_value
    out_kind = np.empty_like(acc_kind)
    out_value = np.empty_like(acc_value)
    out_kind[0] = False
    out_value[0] = 0
    out_kind[1:] = acc_kind[:-1]
    out_value[1:] = acc_value[:-1]
    return out_kind, out_value
