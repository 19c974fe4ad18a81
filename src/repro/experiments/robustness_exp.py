"""Section VI: robustness against removal attacks.

Not a numbered table in the paper, but the claim is explicit: the baseline
load-circuit watermark is a stand-alone block that a structural attacker
can locate and excise without touching the host design, while the
clock-modulation watermark is entangled with the host's clock-gating logic
so that removal impairs the system.  This experiment makes the comparison
quantitative on a structural SoC model.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.robustness import RobustnessAssessment, assess_robustness
from repro.core.config import ArchitectureKind, WatermarkConfig
from repro.core.embedding import embed_baseline, embed_clock_modulation
from repro.soc.structure import build_soc_structure, clock_gate_paths


@dataclass
class RobustnessResult:
    """Robustness assessment of both architectures on the same host SoC."""

    baseline: RobustnessAssessment
    clock_modulation: RobustnessAssessment

    @property
    def baseline_removed_by_blind_attack(self) -> bool:
        """The paper's claim: the stand-alone load circuit is easily removed."""
        return self.baseline.blind_attack.watermark_fully_removed

    @property
    def clock_modulation_survives_blind_attack(self) -> bool:
        """The proposed watermark is not identifiable as a stand-alone block."""
        return self.clock_modulation.survives_blind_attack

    @property
    def clock_modulation_removal_breaks_system(self) -> bool:
        """Even an informed removal of the proposed watermark damages the host."""
        return self.clock_modulation.removal_breaks_system

    @property
    def baseline_removal_harmless(self) -> bool:
        """Removing the baseline watermark leaves the host design intact."""
        return not self.baseline.removal_breaks_system

    @property
    def improved_robustness_demonstrated(self) -> bool:
        """The overall Section VI claim."""
        return (
            self.baseline_removed_by_blind_attack
            and self.baseline_removal_harmless
            and self.clock_modulation_survives_blind_attack
            and self.clock_modulation_removal_breaks_system
        )

    def to_text(self) -> str:
        """Summary of both assessments."""
        lines = [
            "Section VI reproduction: robustness against removal attacks",
            "",
            self.baseline.summary(),
            "",
            self.clock_modulation.summary(),
            "",
            f"improved robustness demonstrated: {self.improved_robustness_demonstrated}",
        ]
        return "\n".join(lines)


def _compute_robustness(config: WatermarkConfig, modulated_gates: int) -> RobustnessResult:
    """The Section VI robustness computation (pipeline stage body)."""
    if modulated_gates <= 0:
        raise ValueError("at least one clock gate must be modulated")
    baseline = build_soc_structure(name="soc_baseline")
    embed_baseline(baseline, config)

    clock_mod = build_soc_structure(name="soc_clockmod")
    embed_clock_modulation(clock_mod, clock_gate_paths(clock_mod)[:modulated_gates], config)

    return RobustnessResult(
        baseline=assess_robustness(baseline, ArchitectureKind.BASELINE_LOAD_CIRCUIT),
        clock_modulation=assess_robustness(clock_mod, ArchitectureKind.CLOCK_MODULATION),
    )
