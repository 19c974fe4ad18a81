"""Power traces.

A :class:`PowerTrace` holds one average power value per clock cycle -- the
quantity that, after the measurement chain, becomes the CPA vector ``Y``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.rtl.signals import Clock


@dataclass
class PowerTrace:
    """Per-cycle average power of a circuit or group of circuits.

    Attributes
    ----------
    name:
        Label of the contributing circuit(s).
    clock:
        Clock domain the cycles belong to.
    power_w:
        Array of per-cycle average power values in watts.
    voltage_v:
        Supply voltage, needed to convert power to current.
    """

    name: str
    clock: Clock
    power_w: np.ndarray
    voltage_v: float = 1.2

    def __post_init__(self) -> None:
        self.power_w = np.asarray(self.power_w, dtype=np.float64)
        if self.power_w.ndim != 1:
            raise ValueError("power trace must be one-dimensional")
        if self.voltage_v <= 0:
            raise ValueError("supply voltage must be positive")
        if np.any(self.power_w < 0):
            raise ValueError("power values must be non-negative")

    def __len__(self) -> int:
        return len(self.power_w)

    @property
    def num_cycles(self) -> int:
        """Number of clock cycles covered."""
        return len(self.power_w)

    @property
    def average_power_w(self) -> float:
        """Mean power over the whole trace."""
        if len(self.power_w) == 0:
            return 0.0
        return float(np.mean(self.power_w))

    @property
    def peak_power_w(self) -> float:
        """Maximum per-cycle power."""
        if len(self.power_w) == 0:
            return 0.0
        return float(np.max(self.power_w))

    @property
    def energy_j(self) -> float:
        """Total energy dissipated over the trace."""
        return float(np.sum(self.power_w)) * self.clock.period_s

    def add(self, other: "PowerTrace") -> "PowerTrace":
        """Sum two traces on the same supply (e.g. system + watermark)."""
        if len(self) != len(other):
            raise ValueError(
                f"cannot add power traces of different lengths ({len(self)} vs {len(other)})"
            )
        if abs(self.voltage_v - other.voltage_v) > 1e-9:
            raise ValueError("cannot add power traces at different supply voltages")
        return PowerTrace(
            name=f"{self.name}+{other.name}",
            clock=self.clock,
            power_w=self.power_w + other.power_w,
            voltage_v=self.voltage_v,
        )

    def scale(self, factor: float) -> "PowerTrace":
        """Return a scaled copy (used for what-if/ablation studies)."""
        if factor < 0:
            raise ValueError("scale factor must be non-negative")
        return PowerTrace(
            name=self.name,
            clock=self.clock,
            power_w=self.power_w * factor,
            voltage_v=self.voltage_v,
        )

    def slice(self, start: int, stop: int) -> "PowerTrace":
        """Return the sub-trace covering cycles ``[start, stop)``."""
        return PowerTrace(
            name=self.name,
            clock=self.clock,
            power_w=self.power_w[start:stop],
            voltage_v=self.voltage_v,
        )

    def tile(self, num_cycles: int) -> "PowerTrace":
        """Repeat the trace until it covers ``num_cycles`` cycles."""
        if len(self.power_w) == 0:
            raise ValueError("cannot tile an empty power trace")
        reps = int(np.ceil(num_cycles / len(self.power_w)))
        return PowerTrace(
            name=self.name,
            clock=self.clock,
            power_w=np.tile(self.power_w, reps)[:num_cycles],
            voltage_v=self.voltage_v,
        )
