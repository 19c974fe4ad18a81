"""Statistics over repeated detection experiments (Fig. 6 of the paper)."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np


def detection_z_score(correlations: np.ndarray) -> float:
    """Peak correlation expressed in off-peak standard deviations."""
    correlations = np.asarray(correlations, dtype=np.float64)
    if len(correlations) < 3:
        raise ValueError("need at least three rotations")
    peak_index = int(np.argmax(np.abs(correlations)))
    off_peak = np.delete(correlations, peak_index)
    std = float(np.std(off_peak))
    if std == 0.0:
        return float("inf") if abs(correlations[peak_index]) > 0 else 0.0
    return float((abs(correlations[peak_index]) - abs(np.mean(off_peak))) / std)


def _sorted_percentile(ordered: np.ndarray, q: float) -> float:
    """``np.percentile(ordered, q)`` of a sorted sample, by numpy's linear rule, bit for bit."""
    position = (len(ordered) - 1) * (q / 100)
    if position >= len(ordered) - 1:
        return float(ordered[-1])
    below = math.floor(position)
    low = float(ordered[below])
    high = float(ordered[below + 1])
    gamma = position - below
    if gamma >= 0.5:
        return high - (high - low) * (1 - gamma)
    return low + (high - low) * gamma


def _sorted_median(ordered: np.ndarray) -> float:
    """``np.median(ordered)`` of a sorted sample, bit for bit (numpy sums from ``0.0``)."""
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return 0.0 + float(ordered[middle])
    return (0.0 + float(ordered[middle - 1]) + float(ordered[middle])) / 2


@dataclass(frozen=True)
class BoxPlotStats:
    """Box-plot summary of a sample (median, quartiles, 95% whiskers, outliers).

    Matches the convention of the paper's Fig. 6: the box covers 95% of all
    correlation coefficients with extreme values shown as dots.
    """

    median: float
    q1: float
    q3: float
    whisker_low: float
    whisker_high: float
    outliers: tuple

    @classmethod
    def from_samples(cls, samples: Sequence[float]) -> "BoxPlotStats":
        """Compute the summary from raw samples."""
        values = np.asarray(samples, dtype=np.float64)
        if len(values) == 0:
            raise ValueError("cannot summarise an empty sample")
        # Every order statistic is read off one sort, as numpy computes it.
        ordered = np.sort(values)
        whisker_low, q1, q3, whisker_high = (
            _sorted_percentile(ordered, q) for q in (2.5, 25, 75, 97.5)
        )
        outliers = values[(values < whisker_low) | (values > whisker_high)]
        return cls(
            median=_sorted_median(ordered),
            q1=q1,
            q3=q3,
            whisker_low=whisker_low,
            whisker_high=whisker_high,
            outliers=tuple(outliers.tolist()),
        )

@dataclass
class RepetitionStatistics:
    """Aggregated CPA results of a repeated-measurement campaign."""

    label: str
    peak_rotation: int
    peak_values: np.ndarray
    off_peak_values: np.ndarray
    detections: np.ndarray

    @classmethod
    def from_correlation_runs(
        cls,
        label: str,
        runs: Union[np.ndarray, Sequence[np.ndarray]],
        detected_flags: Optional[Sequence[bool]] = None,
    ) -> "RepetitionStatistics":
        """Aggregate the correlation spectra of many repetitions.

        ``runs`` is a repetitions x rotations matrix (or its rows).  The
        peak rotation is determined from the run-averaged |correlation|
        (all repetitions share the same physical phase offset in this model,
        as they do on the bench when acquisition is armed the same way).
        ``detected_flags``, when given, holds one flag per repetition.
        """
        stacked = np.asarray(runs, dtype=np.float64)
        if stacked.ndim != 2 or len(stacked) == 0:
            raise ValueError("need at least one repetition")
        mean_abs = np.mean(np.abs(stacked), axis=0)
        peak_rotation = int(np.argmax(mean_abs))
        peak_values = stacked[:, peak_rotation]
        off_peak_values = np.delete(stacked, peak_rotation, axis=1).ravel()
        if detected_flags is None:
            detections = np.array([detection_z_score(run) >= 4.0 for run in stacked])
        else:
            detections = np.asarray(detected_flags, dtype=bool)
            if detections.shape != (len(stacked),):
                raise ValueError(
                    f"need one detection flag per repetition ({len(stacked)}), "
                    f"got shape {detections.shape}"
                )
        return cls(
            label=label,
            peak_rotation=peak_rotation,
            peak_values=peak_values,
            off_peak_values=off_peak_values,
            detections=detections,
        )

    @property
    def repetitions(self) -> int:
        """Number of aggregated repetitions."""
        return len(self.peak_values)

    @property
    def detection_rate(self) -> float:
        """Fraction of repetitions in which the watermark was detected."""
        if len(self.detections) == 0:
            return 0.0
        return float(np.mean(self.detections))

    def peak_box(self) -> BoxPlotStats:
        """Box-plot statistics of the in-phase (peak) correlation values."""
        return BoxPlotStats.from_samples(self.peak_values)

    def off_peak_box(self) -> BoxPlotStats:
        """Box-plot statistics of the out-of-phase correlation values."""
        return BoxPlotStats.from_samples(self.off_peak_values)
