"""Power traces.

A :class:`PowerTrace` holds one average power value per clock cycle -- the
quantity that, after the measurement chain, becomes the CPA vector ``Y`` --
plus the standard deviation of a zero-mean, i.i.d. Gaussian per-cycle
component that the array does not hold (the idle blocks' housekeeping
jitter, :mod:`repro.soc.multicore`).  The acquisition draws that component
with its own noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass
class PowerTrace:
    """Per-cycle average power of a circuit or group of circuits.

    Attributes
    ----------
    name:
        Label of the contributing circuit(s).
    power_w:
        Array of per-cycle average power values in watts.
    fluctuation_w:
        Standard deviation (W) of a zero-mean, i.i.d. Gaussian per-cycle
        component on top of ``power_w``, which ``power_w`` does not hold.
    """

    name: str
    power_w: np.ndarray
    fluctuation_w: float = 0.0

    def __post_init__(self) -> None:
        self.power_w = np.asarray(self.power_w, dtype=np.float64)
        if self.power_w.ndim != 1:
            raise ValueError("power trace must be one-dimensional")
        if np.any(self.power_w < 0):
            raise ValueError("power values must be non-negative")
        if not self.fluctuation_w >= 0:
            raise ValueError("the power fluctuation must be non-negative")

    def __len__(self) -> int:
        return len(self.power_w)

    @property
    def average_power_w(self) -> float:
        """Mean of ``power_w`` over the whole trace."""
        if len(self.power_w) == 0:
            return 0.0
        return float(np.mean(self.power_w))

    @property
    def peak_power_w(self) -> float:
        """Maximum of ``power_w`` (the fluctuation is not in it)."""
        if len(self.power_w) == 0:
            return 0.0
        return float(np.max(self.power_w))

    def add(self, other: "PowerTrace") -> "PowerTrace":
        """Sum two traces cycle by cycle (e.g. system + watermark).

        The two fluctuations are independent, so they add in quadrature.
        """
        if len(self) != len(other):
            raise ValueError(
                f"cannot add power traces of different lengths ({len(self)} vs {len(other)})"
            )
        return PowerTrace(
            name=f"{self.name}+{other.name}",
            power_w=self.power_w + other.power_w,
            fluctuation_w=math.hypot(self.fluctuation_w, other.fluctuation_w),
        )
