"""Detection-probability campaigns.

The paper fixes one operating point (300,000 cycles, one noise level) and
reports that detection succeeds in every repetition.  This module maps the
surrounding design space: for a given watermark amplitude and noise level it
measures the empirical detection probability as a function of acquisition
length, and compares it with the analytical estimate from
:func:`repro.detection.metrics.estimate_required_cycles` -- the question an
IP vendor actually has to answer when sizing a watermark for a new system.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro.core.config import DetectionConfig
from repro.core.seeds import stream
from repro.detection.batch import BatchCPADetector
from repro.detection.metrics import estimate_required_cycles, expected_correlation
from repro.power.synthesis import TraceSynthesizer


@dataclass(frozen=True)
class DetectionOperatingPoint:
    """One point of the detection-probability curve."""

    num_cycles: int
    trials: int
    detections: int
    mean_peak_correlation: float
    mean_z_score: float

    @property
    def detection_probability(self) -> float:
        """Empirical probability of detecting the watermark."""
        if self.trials == 0:
            return 0.0
        return self.detections / self.trials


@dataclass
class DetectionProbabilityCurve:
    """Empirical detection probability versus acquisition length."""

    watermark_amplitude_w: float
    noise_sigma_w: float
    sequence_period: int
    points: List[DetectionOperatingPoint] = field(default_factory=list)

    @property
    def expected_rho(self) -> float:
        """Analytical population correlation at this amplitude/noise."""
        return expected_correlation(self.watermark_amplitude_w, self.noise_sigma_w)

    @property
    def analytical_required_cycles(self) -> int:
        """Cycles the analytical model deems sufficient for reliable detection."""
        return estimate_required_cycles(self.expected_rho, self.sequence_period)

    def empirical_required_cycles(self, target_probability: float = 0.95) -> Optional[int]:
        """Smallest evaluated acquisition length reaching the target probability.

        Returns ``None`` if no evaluated point reaches it.
        """
        if not 0.0 < target_probability <= 1.0:
            raise ValueError("target probability must be in (0, 1]")
        for point in sorted(self.points, key=lambda p: p.num_cycles):
            if point.detection_probability >= target_probability:
                return point.num_cycles
        return None

    def to_text(self) -> str:
        """Render the curve as a text table."""
        lines = [
            f"Detection probability curve (amplitude={self.watermark_amplitude_w * 1e3:.2f} mW, "
            f"noise sigma={self.noise_sigma_w * 1e3:.1f} mW, expected rho={self.expected_rho:.4f})",
            f"{'cycles':>10} {'P(detect)':>10} {'mean peak rho':>14} {'mean z':>8}",
        ]
        for point in sorted(self.points, key=lambda p: p.num_cycles):
            lines.append(
                f"{point.num_cycles:>10} {point.detection_probability:>10.2f} "
                f"{point.mean_peak_correlation:>14.4f} {point.mean_z_score:>8.1f}"
            )
        lines.append(
            f"analytical sufficient-cycle estimate: {self.analytical_required_cycles} cycles"
        )
        return "\n".join(lines)


def run_detection_probability_campaign(
    sequence: np.ndarray,
    watermark_amplitude_w: float,
    noise_sigma_w: float,
    cycle_counts: Sequence[int],
    trials_per_point: int = 20,
    detection_config: Optional[DetectionConfig] = None,
    base_power_w: float = 5e-3,
    seed: int = 0,
) -> DetectionProbabilityCurve:
    """Monte-Carlo estimate of detection probability versus trace length.

    The synthetic measurement model is the same one the full pipeline
    produces after the acquisition chain: ``Y = base + a * X(rotated) +
    N(0, sigma)`` -- which keeps the campaign fast enough to sweep dozens of
    operating points while remaining faithful to what CPA actually sees.

    The trials of one acquisition length are drawn as their phase folds
    by :meth:`repro.power.synthesis.TraceSynthesizer.trial_folds` (O(period)
    per trial, equal in distribution to per-cycle rows) and detected in one
    batched CPA pass, from the ``"detection-probability"`` stream of
    ``seed``.  ``tests/test_detection_campaign.py`` pins the curve for a
    fixed seed.
    """
    sequence = np.asarray(sequence, dtype=np.float64)
    if sequence.ndim != 1 or len(sequence) < 3:
        raise ValueError("the watermark sequence must be a 1-D vector of at least 3 cycles")
    if watermark_amplitude_w < 0 or noise_sigma_w < 0:
        raise ValueError("amplitude and noise must be non-negative")
    if trials_per_point <= 0:
        raise ValueError("trials_per_point must be positive")
    if not cycle_counts:
        raise ValueError("at least one acquisition length must be evaluated")

    detector = BatchCPADetector(detection_config or DetectionConfig())
    period = len(sequence)
    synthesizer = TraceSynthesizer.from_sequence(
        sequence,
        watermark_amplitude_w=watermark_amplitude_w,
        noise_sigma_w=noise_sigma_w,
        base_power_w=base_power_w,
    )
    rng = stream(seed, "detection-probability")
    curve = DetectionProbabilityCurve(
        watermark_amplitude_w=watermark_amplitude_w,
        noise_sigma_w=noise_sigma_w,
        sequence_period=period,
    )
    for num_cycles in cycle_counts:
        num_cycles = int(num_cycles)
        if num_cycles < period:
            raise ValueError(
                f"acquisition of {num_cycles} cycles is shorter than the sequence period {period}"
            )
        folds = synthesizer.trial_folds(trials_per_point, num_cycles, rng)
        batch = detector.detect_many(sequence, folds)
        curve.points.append(
            DetectionOperatingPoint(
                num_cycles=num_cycles,
                trials=trials_per_point,
                detections=batch.detection_count,
                mean_peak_correlation=float(batch.peak_correlations.sum()) / trials_per_point,
                mean_z_score=float(batch.z_scores.sum()) / trials_per_point,
            )
        )
    return curve
