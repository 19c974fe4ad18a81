"""Spread-spectrum representation of CPA results (Fig. 5 of the paper)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class SpreadSpectrum:
    """Correlation coefficient versus watermark sequence rotation.

    This is the data behind the paper's Fig. 5 panels: one correlation
    value per rotation of the watermark sequence.
    """

    label: str
    correlations: np.ndarray

    def __post_init__(self) -> None:
        self.correlations = np.asarray(self.correlations, dtype=np.float64)
        if self.correlations.ndim != 1:
            raise ValueError("a spread spectrum is a one-dimensional series")
        if len(self.correlations) < 2:
            raise ValueError("a spread spectrum needs at least two rotations")

    def __len__(self) -> int:
        return len(self.correlations)

    @property
    def peak_rotation(self) -> int:
        """Rotation index of the largest |correlation|."""
        return int(np.argmax(np.abs(self.correlations)))

    @property
    def peak_correlation(self) -> float:
        """Correlation value at the peak rotation."""
        return float(self.correlations[self.peak_rotation])
