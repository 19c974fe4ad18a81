"""Watermark detection via Correlation Power Analysis (CPA).

Implements Section III of the paper: the measured per-cycle power vector
``Y`` is Pearson-correlated against every cyclic rotation of the periodic
watermark model sequence ``X``; the resulting spread spectrum of
correlation coefficients exhibits a single resolvable peak if (and only if)
the watermark is present and active.

Two detector front-ends share one implementation:

* :class:`CPADetector` -- the single-trace API of the paper
  (``detect(sequence, measured) -> CPAResult``), where ``measured`` is one
  per-cycle trace or its one-row :class:`PhaseFold`.  Its ``correlations``
  are the spread spectrum a Fig. 5 panel shows.
* :class:`BatchCPADetector` -- the batched engine
  (``detect_many(sequence, traces) -> BatchCPAResult``): every trace of
  a batch is reduced to its per-phase sums and energy, all trials are
  correlated with one stack of rFFTs against one shared sequence, and the
  detection decision (peak, off-peak noise floor, z-score, uniqueness) is
  vectorized across trials.  A batch of one is bit-identical to
  ``CPADetector.detect``.  :func:`batch_rotation_correlations` exposes the
  raw batched correlation spectra; :func:`fold_by_phase` the underlying
  phase fold.

Every chip-level and Monte-Carlo decision of the pipeline reads a
:class:`PhaseFold` drawn directly by its producer, never a per-cycle row:
``AcquisitionCampaign.measure_folded`` for the Fig. 5 panels (one seed)
and the Fig. 6 repetitions (one seed each), and
``TraceSynthesizer.trial_folds`` for the detection-probability and masking
trials.  Per-cycle traces remain accepted for callers that hold one (the
quickstart example measures a trace with ``AcquisitionCampaign.measure``).
"""

from repro.detection.batch import (
    BatchCPADetector,
    BatchCPAResult,
    PhaseFold,
    batch_rotation_correlations,
    fold_by_phase,
)
from repro.detection.cpa import CPADetector, CPAResult, rotation_correlations
from repro.detection.statistics import (
    BoxPlotStats,
    RepetitionStatistics,
    detection_z_score,
)
from repro.detection.metrics import estimate_required_cycles
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
    "BoxPlotStats",
    "RepetitionStatistics",
    "detection_z_score",
    "estimate_required_cycles",
]
