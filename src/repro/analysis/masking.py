"""Masking attacks: hiding the watermark instead of removing it.

Section VI of the paper treats *removal* attacks.  A weaker but cheaper
adversary can instead try to *mask* the watermark: leave the RTL untouched
but degrade the IP vendor's detection capability, either by injecting random
dummy switching activity (raising the noise floor) or by running the device
only in states where the watermarked sub-module's original clock-gate enable
is low (starving the watermark of power).  This module quantifies how much
masking power or duty-cycle starvation is needed to defeat CPA at a given
acquisition length -- the flip side of the detection-probability analysis in
:mod:`repro.detection.campaign`.

All sweep points (and, with ``trials_per_point > 1``, all Monte-Carlo
trials per point) share one acquisition length, so the whole sweep is
drawn as phase folds in one call
(:meth:`repro.power.synthesis.TraceSynthesizer.trial_folds`) and detected
in one :class:`repro.detection.batch.BatchCPADetector` pass.  Each study
draws from its own named stream of the seed (:mod:`repro.core.seeds`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro.core.config import DetectionConfig
from repro.core.seeds import stream
from repro.detection.batch import BatchCPADetector
from repro.power.synthesis import TraceSynthesizer


@dataclass(frozen=True)
class MaskingPoint:
    """Detection outcome under one masking configuration.

    ``detected`` reports whether the watermark was detected in a strict
    majority of the Monte-Carlo trials at this sweep point, so the defeat
    metrics stay stable as ``trials_per_point`` grows; with the default
    single trial it is simply that trial's outcome.
    ``peak_correlation`` and ``z_score`` are averaged over the trials.
    """

    masking_noise_w: float
    enable_duty: float
    detected: bool
    peak_correlation: float
    z_score: float
    trials: int
    detections: int

    @property
    def detection_probability(self) -> float:
        """Fraction of Monte-Carlo trials in which detection succeeded."""
        return self.detections / self.trials


@dataclass
class MaskingStudy:
    """Results of a masking-attack sweep."""

    watermark_amplitude_w: float
    base_noise_sigma_w: float
    num_cycles: int
    points: List[MaskingPoint] = field(default_factory=list)

    def detection_defeated_at(self) -> Optional[MaskingPoint]:
        """First sweep point at which the watermark is no longer detected."""
        for point in self.points:
            if not point.detected:
                return point
        return None

    def still_detected_everywhere(self) -> bool:
        """Whether the watermark survived every evaluated masking level."""
        return all(point.detected for point in self.points)

    def to_text(self) -> str:
        """Render the sweep as a text table."""
        lines = [
            f"Masking study ({self.num_cycles} cycles, watermark amplitude "
            f"{self.watermark_amplitude_w * 1e3:.2f} mW, base noise "
            f"{self.base_noise_sigma_w * 1e3:.1f} mW):",
            f"{'masking noise':>14} {'enable duty':>12} {'peak rho':>10} {'z':>7} "
            f"{'P(detect)':>10} {'detected':>9}",
        ]
        for point in self.points:
            lines.append(
                f"{point.masking_noise_w * 1e3:>11.1f} mW {point.enable_duty:>12.2f} "
                f"{point.peak_correlation:>10.4f} {point.z_score:>7.1f} "
                f"{point.detection_probability:>10.2f} {str(point.detected):>9}"
            )
        return "\n".join(lines)


def _run_study(
    sequence: np.ndarray,
    masking_noise_levels_w: Sequence[float],
    noise_sigmas: Sequence[float],
    enable_duties: Sequence[float],
    stream_name: str,
    watermark_amplitude_w: float,
    base_noise_sigma_w: float,
    num_cycles: int,
    detection_config: Optional[DetectionConfig],
    seed: int,
    trials_per_point: int,
) -> MaskingStudy:
    """Draw, detect and aggregate the trials of a masking sweep.

    One sweep point per (masking noise, total noise sigma, enable duty),
    and ``trials_per_point`` trials per point, in sweep order, each with its
    own random phase offset, starvation gate and acquisition noise, drawn
    from the ``stream_name`` stream of ``seed`` as phase folds by
    :meth:`repro.power.synthesis.TraceSynthesizer.trial_folds` and detected
    in a single batched CPA pass (starvation gates model the host's
    CLK_CTRL being low part of the time, Fig. 1(b): the effective enable is
    WMARK AND CLK_CTRL).
    """
    sequence = np.asarray(sequence, dtype=np.float64)
    if trials_per_point <= 0:
        raise ValueError("trials_per_point must be positive")
    study = MaskingStudy(
        watermark_amplitude_w=watermark_amplitude_w,
        base_noise_sigma_w=base_noise_sigma_w,
        num_cycles=num_cycles,
    )
    if not masking_noise_levels_w:
        return study
    synthesizer = TraceSynthesizer(
        sequence, watermark_amplitude_w=watermark_amplitude_w, noise_sigma_w=0.0
    )
    folds = synthesizer.trial_folds(
        len(noise_sigmas) * trials_per_point,
        num_cycles,
        stream(seed, stream_name),
        noise_sigmas=np.repeat(noise_sigmas, trials_per_point),
        enable_duties=np.repeat(enable_duties, trials_per_point),
    )
    batch = BatchCPADetector(detection_config or DetectionConfig()).detect_many(sequence, folds)
    for index, (masking, duty) in enumerate(zip(masking_noise_levels_w, enable_duties)):
        rows = slice(index * trials_per_point, (index + 1) * trials_per_point)
        detections = int(np.count_nonzero(batch.detected[rows]))
        study.points.append(
            MaskingPoint(
                masking_noise_w=masking,
                enable_duty=duty,
                detected=2 * detections > trials_per_point,
                peak_correlation=float(batch.peak_correlations[rows].mean()),
                z_score=float(batch.z_scores[rows].mean()),
                trials=trials_per_point,
                detections=detections,
            )
        )
    return study


def run_noise_masking_study(
    sequence: np.ndarray,
    watermark_amplitude_w: float = 1.5e-3,
    base_noise_sigma_w: float = 43e-3,
    masking_noise_levels_w: Sequence[float] = (0.0, 50e-3, 100e-3, 200e-3, 400e-3),
    num_cycles: int = 300_000,
    detection_config: Optional[DetectionConfig] = None,
    seed: int = 0,
    trials_per_point: int = 1,
) -> MaskingStudy:
    """Sweep the amount of random masking activity an attacker injects.

    The masking activity is uncorrelated with the watermark sequence, so it
    only raises the noise floor; the study shows how much extra switching
    power (and therefore energy cost to the attacker's product) is needed to
    push the correlation peak below the detection threshold at the paper's
    acquisition length.  All sweep levels (times ``trials_per_point``
    Monte-Carlo trials each) are detected in one batched CPA pass.
    """
    # Materialize once: generator inputs must not be consumed by validation.
    levels = [float(masking) for masking in masking_noise_levels_w]
    for masking in levels:
        if masking < 0:
            raise ValueError("masking noise must be non-negative")
    # The masking activity adds to the base noise in quadrature.
    sigmas = [float(np.sqrt(base_noise_sigma_w**2 + masking**2)) for masking in levels]
    return _run_study(
        sequence, levels, sigmas, [1.0] * len(levels), "masking-noise",
        watermark_amplitude_w, base_noise_sigma_w, num_cycles, detection_config,
        seed, trials_per_point,
    )


def run_starvation_study(
    sequence: np.ndarray,
    watermark_amplitude_w: float = 1.5e-3,
    base_noise_sigma_w: float = 43e-3,
    enable_duties: Sequence[float] = (1.0, 0.5, 0.25, 0.1, 0.02),
    num_cycles: int = 300_000,
    detection_config: Optional[DetectionConfig] = None,
    seed: int = 0,
    trials_per_point: int = 1,
) -> MaskingStudy:
    """Sweep the fraction of cycles in which the modulated clock gate may open.

    Models an adversary (or simply an unfortunate workload) that keeps the
    watermarked sub-module's functional clock-gate enable low most of the
    time; the watermark amplitude scales with the duty and detection
    eventually fails, quantifying the paper's remark that the watermark can
    be exercised while the system is inactive to avoid exactly this.  All
    duties (times ``trials_per_point`` Monte-Carlo trials each) are
    detected in one batched CPA pass.
    """
    # Materialize once: generator inputs must not be consumed by validation.
    duties = [float(duty) for duty in enable_duties]
    for duty in duties:
        if not 0.0 <= duty <= 1.0:
            raise ValueError("enable duty must be within [0, 1]")
    return _run_study(
        sequence, [0.0] * len(duties), [base_noise_sigma_w] * len(duties), duties,
        "masking-starvation",
        watermark_amplitude_w, base_noise_sigma_w, num_cycles, detection_config,
        seed, trials_per_point,
    )
