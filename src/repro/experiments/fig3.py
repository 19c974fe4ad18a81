"""Fig. 3: the watermark power signal is deeply embedded in total device power.

The figure stacks three traces: the power of the embedded system, the
(much smaller) watermark power signal, and their sum, the device total
power measured at the supply rail.  The reproduction quantifies "deeply
embedded" as the ratio between the watermark's modulation amplitude and the
total power's mean and variation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.power.trace import PowerTrace


@dataclass
class Fig3Result:
    """The three stacked traces of Fig. 3 plus embedding metrics."""

    system_power: PowerTrace
    watermark_power: PowerTrace
    total_power: PowerTrace
    measured_total_power: np.ndarray

    @property
    def watermark_amplitude_w(self) -> float:
        """Peak-to-trough modulation amplitude of the watermark signal."""
        values = self.watermark_power.power_w
        return float(np.max(values) - np.min(values))

    @property
    def system_mean_power_w(self) -> float:
        """Mean power of the embedded system without the watermark."""
        return self.system_power.average_power_w

    @property
    def relative_amplitude(self) -> float:
        """Watermark amplitude as a fraction of the total mean power."""
        total_mean = self.total_power.average_power_w
        if total_mean == 0:
            return 0.0
        return self.watermark_amplitude_w / total_mean

    @property
    def deeply_embedded(self) -> bool:
        """Whether the watermark disappears in the measured total power.

        In the paper's figure the watermark signal is invisible in the
        device total power; here that means its modulation amplitude is
        smaller than the cycle-to-cycle variation of the *measured* total
        power (system activity plus acquisition noise), i.e. an analytical
        technique such as CPA is genuinely required to find it.
        """
        measured_variation = float(np.std(self.measured_total_power))
        return self.watermark_amplitude_w <= measured_variation

    def to_text(self) -> str:
        """Summary table of the three traces."""
        rows = [
            ("embedded system power", self.system_power),
            ("watermark power signal", self.watermark_power),
            ("device total power", self.total_power),
        ]
        lines = ["Fig. 3 reproduction: watermark embedded in total device power", ""]
        for label, trace in rows:
            lines.append(
                f"  {label:<26} mean = {trace.average_power_w * 1e3:7.3f} mW, "
                f"peak = {trace.peak_power_w * 1e3:7.3f} mW"
            )
        lines.append("")
        lines.append(
            f"  watermark modulation amplitude = {self.watermark_amplitude_w * 1e3:.3f} mW "
            f"({self.relative_amplitude * 100:.1f}% of total mean power)"
        )
        lines.append(
            f"  measured total power sigma = {float(np.std(self.measured_total_power)) * 1e3:.3f} mW"
        )
        lines.append(f"  deeply embedded (invisible without CPA): {self.deeply_embedded}")
        return "\n".join(lines)
