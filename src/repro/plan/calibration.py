"""The calibration store: observed stage timings rescale the cost model.

The GPU cost model predicts the *shape* of the pipeline's costs; the
substrate this reproduction actually runs on (vectorised NumPy) has its
own constants.  The store closes that gap empirically: every finished
parse contributes its measured ``stage.*.seconds`` (equivalently the
:class:`~repro.utils.timing.StepTimer` totals, which survive the sharded
executor's process boundary), and the store keeps per-step **ratios**
``observed / modelled`` as exponentially weighted moving averages.

Two granularities, keyed by workload fingerprint
(:func:`~repro.plan.stats.workload_fingerprint`):

* a *workload-wide* scale per step — what :meth:`Planner.estimate_cost`
  uses to price requests it has never run at the requested shape;
* a *per-configuration* scale per step (fingerprint + chunk bucket +
  stride) — what candidate scoring prefers, so a
  configuration the planner has actually tried is ranked by what it
  measured, not what the model guessed.

The EWMA is monotone: under a constant observed workload each ratio —
and therefore the calibrated estimate — moves toward the measurement on
every update and never overshoots (tested in
``tests/plan/test_calibration.py``).
"""

from __future__ import annotations

from typing import Mapping

from repro.gpusim.cost_model import StepCosts

__all__ = ["CalibrationStore", "STEPS", "chunk_bucket", "config_key"]

#: The cost-model steps the store calibrates (the Figure 9 breakdown).
STEPS = ("parse", "scan", "tag", "partition", "convert")


def chunk_bucket(chunk_size: int) -> int:
    """Power-of-two calibration bucket: measurements at chunk 60 should
    inform a candidate at 64, while 16 and 64 stay distinct."""
    bucket = 1
    while bucket * 2 <= chunk_size:
        bucket *= 2
    return bucket


def config_key(fingerprint: str, chunk_size: int, stride: int) -> str:
    """The per-configuration calibration key."""
    return f"{fingerprint}|c{chunk_bucket(chunk_size)}k{stride}"


class CalibrationStore:
    """Per-fingerprint EWMA ratios of observed over modelled step cost."""

    def __init__(self, alpha: float = 0.5):
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        self.alpha = alpha
        #: key -> step -> EWMA of observed/modelled.
        self._scales: dict[str, dict[str, float]] = {}
        #: Bumped on every observation; planners use it to notice that a
        #: cached decision predates newer evidence.
        self.version = 0

    # -- recording ---------------------------------------------------------

    def observe(self, key: str, measured: Mapping[str, float],
                modelled: StepCosts) -> None:
        """Fold one run's measured step seconds into ``key``'s scales."""
        scales = self._scales.setdefault(key, {})
        modelled_steps = modelled.as_dict()
        for step in STEPS:
            observed = measured.get(step)
            predicted = modelled_steps[step]
            if observed is None or observed <= 0.0 or predicted <= 0.0:
                continue
            ratio = observed / predicted
            previous = scales.get(step)
            scales[step] = ratio if previous is None \
                else self.alpha * ratio + (1.0 - self.alpha) * previous
        self.version += 1

    # -- lookup ------------------------------------------------------------

    def scale(self, key: str, step: str,
              fallback_key: str | None = None) -> float:
        """The scale for one step, falling back key -> fallback -> 1.0."""
        for candidate in (key, fallback_key):
            if candidate is None:
                continue
            scales = self._scales.get(candidate)
            if scales is not None and step in scales:
                return scales[step]
        return 1.0

    def observed(self, key: str) -> bool:
        return key in self._scales

    def apply(self, costs: StepCosts, key: str,
              fallback_key: str | None = None) -> StepCosts:
        """``costs`` rescaled by this store's evidence for ``key``."""
        return costs.scaled({step: self.scale(key, step, fallback_key)
                             for step in STEPS})

    def snapshot(self) -> dict[str, dict[str, float]]:
        """A JSON-friendly copy (benchmark artefacts, status endpoints)."""
        return {key: dict(scales) for key, scales in self._scales.items()}
