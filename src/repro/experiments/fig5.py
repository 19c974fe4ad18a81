"""Fig. 5: spread spectra of CPA results on chips I and II.

Four panels: chip I with the watermark active and inactive, chip II with
the watermark active and inactive.  With the watermark active a single
correlation peak must be resolvable; with the watermark disabled the
spectrum must stay inside the statistical noise floor (the control
experiment showing that the peak is not correlated system noise).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.core.config import ExperimentConfig
from repro.detection.cpa import CPAResult
from repro.detection.spread_spectrum import SpreadSpectrum


@dataclass
class Fig5Panel:
    """One of the four panels of Fig. 5."""

    chip_name: str
    watermark_active: bool
    spectrum: SpreadSpectrum
    cpa: CPAResult

    @property
    def label(self) -> str:
        """Panel label in the paper's naming."""
        state = "active" if self.watermark_active else "inactive"
        return f"{self.chip_name} / watermark {state}"


@dataclass
class Fig5Result:
    """All four panels plus the shared experiment configuration."""

    config: ExperimentConfig
    panels: Dict[str, Fig5Panel] = field(default_factory=dict)

    def panel(self, chip_name: str, watermark_active: bool) -> Fig5Panel:
        """Look up one panel."""
        key = _panel_key(chip_name, watermark_active)
        if key not in self.panels:
            raise KeyError(f"panel {key!r} was not produced; available: {sorted(self.panels)}")
        return self.panels[key]

    @property
    def all_active_panels_detected(self) -> bool:
        """Whether every watermark-active panel shows a detected watermark."""
        return all(p.cpa.detected for p in self.panels.values() if p.watermark_active)

    @property
    def no_inactive_panel_detected(self) -> bool:
        """Whether no watermark-inactive panel produced a false detection."""
        return all(not p.cpa.detected for p in self.panels.values() if not p.watermark_active)

    def to_text(self) -> str:
        """Summary of all panels."""
        lines = [
            "Fig. 5 reproduction: CPA spread spectra "
            f"({self.config.measurement.num_cycles} cycles per correlation)",
            "",
        ]
        for key in sorted(self.panels):
            panel = self.panels[key]
            lines.append(f"  [{panel.label}] {panel.cpa.summary()}")
        lines.append("")
        lines.append(f"  all active panels detected:   {self.all_active_panels_detected}")
        lines.append(f"  no inactive false detections: {self.no_inactive_panel_detected}")
        return "\n".join(lines)


def _panel_key(chip_name: str, watermark_active: bool) -> str:
    return f"{chip_name}/{'active' if watermark_active else 'inactive'}"


#: Fraction of the sequence period at which the paper's correlation peaks
#: appear (the LFSR phase is arbitrary relative to the scope trigger; the
#: silicon measurements happened to land at rotations ~3,800 and ~2,400 of
#: the 4,095-cycle sequence).
_PAPER_PHASE_FRACTION = {"chip1": 3800 / 4095, "chip2": 2400 / 4095}
