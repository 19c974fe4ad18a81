"""Fig. 6: repeatability of detection over 100 measurements per chip.

The paper repeats the acquisition 100 times on each chip and shows the
correlation coefficients as box plots: the in-phase (peak) rotation's box
sits clearly above the out-of-phase boxes, and the watermark is detected in
every repetition.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.detection.statistics import BoxPlotStats, RepetitionStatistics


@dataclass
class Fig6ChipResult:
    """Repeated-measurement statistics of one chip."""

    chip_name: str
    statistics: RepetitionStatistics
    peak_box: BoxPlotStats
    off_peak_box: BoxPlotStats

    @property
    def detection_rate(self) -> float:
        """Fraction of repetitions with a successful detection."""
        return self.statistics.detection_rate

    @property
    def peak_separated(self) -> bool:
        """Whether the peak box is separated from the off-peak distribution.

        Separated means the peak's lower whisker lies above the off-peak
        97.5th percentile: the Fig. 6 peak is resolvable in every
        repetition.
        """
        return self.peak_box.whisker_low - self.off_peak_box.whisker_high > 0


@dataclass
class Fig6Result:
    """Fig. 6 reproduction: both chips."""

    repetitions: int
    chips: Dict[str, Fig6ChipResult] = field(default_factory=dict)

    @property
    def all_repetitions_detected(self) -> bool:
        """Whether the watermark was detected in every repetition on every chip."""
        return all(result.detection_rate == 1.0 for result in self.chips.values())

    def to_text(self) -> str:
        """Summary of the box-plot statistics."""
        lines = [
            f"Fig. 6 reproduction: correlation statistics over {self.repetitions} repetitions",
            "",
        ]
        for chip_name in sorted(self.chips):
            result = self.chips[chip_name]
            peak = result.peak_box
            off = result.off_peak_box
            lines.append(
                f"  [{chip_name}] peak rotation {result.statistics.peak_rotation}: "
                f"median rho = {peak.median:.4f} "
                f"(box {peak.q1:.4f}..{peak.q3:.4f}, whiskers {peak.whisker_low:.4f}..{peak.whisker_high:.4f})"
            )
            lines.append(
                f"           off-peak: median rho = {off.median:.4f} "
                f"(whiskers {off.whisker_low:.4f}..{off.whisker_high:.4f})"
            )
            lines.append(
                f"           detection rate = {result.detection_rate * 100:.0f}%, "
                f"peak box separated = {result.peak_separated}"
            )
        lines.append("")
        lines.append(f"  detected in all repetitions on all chips: {self.all_repetitions_detected}")
        return "\n".join(lines)
