"""Correlation Power Analysis for watermark detection.

The detector evaluates the Pearson correlation coefficient (equation (1) of
the paper) between the measured per-cycle power vector ``Y`` and the
watermark model sequence ``X`` rotated by every possible number of clock
cycles (the two are not phase-aligned on the bench).  The number of
rotations equals the watermark sequence period.

The measured vector is folded into per-phase sums (the model sequence is
periodic, so only the phase of each cycle matters), or arrives already
folded as a one-row :class:`~repro.detection.batch.PhaseFold` (the Fig. 5
panel draws it with ``AcquisitionCampaign.measure_folded``), and all rotation
correlations are obtained with one circular cross-correlation via FFT,
O(N + period log period).  The test suite keeps the literal per-rotation
correlator as its oracle (``tests/trial_oracle.py``).

The FFT path and the detection decision are implemented once, in the
batched engine (:mod:`repro.detection.batch`); this module's single-trace
API delegates to it with a batch of one, so ``CPADetector.detect`` is
bit-identical to row ``i`` of ``BatchCPADetector.detect_many``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from repro.core.config import DetectionConfig
from repro.detection.batch import BatchCPADetector, PhaseFold, batch_rotation_correlations


def rotation_correlations(
    sequence: np.ndarray, measured: Union[np.ndarray, PhaseFold]
) -> np.ndarray:
    """Correlation coefficient for every rotation of the watermark sequence.

    Parameters
    ----------
    sequence:
        One period of the watermark model sequence (0/1 values).
    measured:
        Measured per-cycle power vector ``Y``, or its one-row
        :class:`~repro.detection.batch.PhaseFold`.
    """
    if isinstance(measured, PhaseFold):
        single = measured.folded.shape[0] == 1
    else:
        measured = np.asarray(measured, dtype=np.float64)
        single = measured.ndim == 1
    if not single:
        raise ValueError("a single-trace detection reads one 1-D trace or a one-row phase fold")
    # One code path for single and batched detection: a batch of one.
    return batch_rotation_correlations(sequence, measured)[0]


@dataclass
class CPAResult:
    """Outcome of a CPA detection attempt."""

    correlations: np.ndarray
    peak_rotation: int
    peak_correlation: float
    noise_floor_std: float
    second_peak_correlation: float
    z_score: float
    detected: bool
    threshold: float

    def summary(self) -> str:
        """One-line human-readable summary."""
        status = "DETECTED" if self.detected else "not detected"
        if np.isinf(self.z_score):
            z_text = "z=inf (zero noise floor)"
        else:
            z_text = f"z={self.z_score:.1f}"
        return (
            f"{status}: peak rho={self.peak_correlation:.4f} at rotation "
            f"{self.peak_rotation}, noise sigma={self.noise_floor_std:.4f}, "
            f"{z_text}"
        )


class CPADetector:
    """Detects a watermark in a measured power vector.

    The detection rule follows the paper: the watermark is regarded as
    detected only if a *single significant* correlation coefficient can be
    resolved.  "Significant" is operationalised as the peak exceeding the
    off-peak noise floor by ``threshold`` standard deviations (default 4),
    and "single" by requiring the second-highest |correlation| to stay
    below that same threshold.
    """

    def __init__(self, config: Optional[DetectionConfig] = None) -> None:
        self.config = config or DetectionConfig()

    def detect(
        self, sequence: np.ndarray, measured: Union[np.ndarray, PhaseFold]
    ) -> CPAResult:
        """Run CPA over all rotations and apply the detection decision.

        ``measured`` is one per-cycle trace or its one-row
        :class:`~repro.detection.batch.PhaseFold`.
        """
        return self.evaluate(rotation_correlations(sequence, measured))

    def evaluate(self, correlations: np.ndarray) -> CPAResult:
        """Apply the detection decision to a precomputed correlation spectrum.

        Delegates to the batched engine with a batch of one, so the result is
        bit-identical to the corresponding row of
        :meth:`repro.detection.batch.BatchCPADetector.evaluate_many`.
        """
        correlations = np.asarray(correlations, dtype=np.float64)
        if correlations.ndim != 1:
            raise ValueError("the correlation spectrum must be one-dimensional")
        batch = BatchCPADetector(self.config).evaluate_many(correlations[None, :])
        return batch.result(0)
