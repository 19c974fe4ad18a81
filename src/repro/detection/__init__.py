"""Watermark detection via Correlation Power Analysis (CPA).

Implements Section III of the paper: the measured per-cycle power vector
``Y`` is Pearson-correlated against every cyclic rotation of the periodic
watermark model sequence ``X``; the resulting spread spectrum of
correlation coefficients exhibits a single resolvable peak if (and only if)
the watermark is present and active.

Two detector front-ends share one implementation:

* :class:`CPADetector` -- the single-trace API of the paper
  (``detect(sequence, measured) -> CPAResult``).
* :class:`BatchCPADetector` -- the batched engine
  (``detect_many(sequences, traces) -> BatchCPAResult``): every trace of
  a batch is reduced to its per-phase sums and energy, all trials are
  correlated with one stack of rFFTs, and the detection decision (peak,
  off-peak noise floor, z-score, uniqueness) is vectorized across trials.
  A batch of one is bit-identical to ``CPADetector.detect``.
  :func:`batch_rotation_correlations` exposes the raw batched correlation
  spectra; :func:`fold_by_phase` the underlying phase fold.  Traces arrive
  as per-cycle arrays or, from producers that draw the fold directly (the
  Fig. 6 repetitions and the Monte-Carlo trials), as a :class:`PhaseFold`.

Campaign-scale consumers (:func:`run_detection_probability_campaign`, the
Fig. 6 repetition study, the masking/robustness sweeps) all route their
trials through the batched engine.
"""

from repro.detection.batch import (
    BatchCPADetector,
    BatchCPAResult,
    PhaseFold,
    batch_rotation_correlations,
    fold_by_phase,
)
from repro.detection.cpa import CPADetector, CPAResult, rotation_correlations
from repro.detection.spread_spectrum import SpreadSpectrum
from repro.detection.statistics import (
    BoxPlotStats,
    RepetitionStatistics,
    detection_z_score,
)
from repro.detection.metrics import (
    detection_probability,
    estimate_required_cycles,
)
from repro.detection.campaign import (
    DetectionOperatingPoint,
    DetectionProbabilityCurve,
    run_detection_probability_campaign,
)

__all__ = [
    "DetectionOperatingPoint",
    "DetectionProbabilityCurve",
    "run_detection_probability_campaign",
    "BatchCPADetector",
    "BatchCPAResult",
    "PhaseFold",
    "batch_rotation_correlations",
    "fold_by_phase",
    "CPADetector",
    "CPAResult",
    "rotation_correlations",
    "SpreadSpectrum",
    "BoxPlotStats",
    "RepetitionStatistics",
    "detection_z_score",
    "detection_probability",
    "estimate_required_cycles",
]
