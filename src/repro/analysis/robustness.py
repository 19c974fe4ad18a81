"""Structural robustness of the two watermark architectures (Section VI).

:func:`assess_robustness` asks whether an RTL-level attacker can locate and
excise the watermark without breaking the host design.  How much
power-domain masking it takes to defeat CPA is the subject of
:mod:`repro.analysis.masking`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.attacks import AttackOutcome, blind_removal, informed_removal
from repro.core.config import ArchitectureKind
from repro.rtl.netlist import Netlist


@dataclass(frozen=True)
class RobustnessAssessment:
    """Robustness of one embedded watermark against removal attacks."""

    architecture: str
    blind_attack: AttackOutcome
    informed_attack: AttackOutcome

    @property
    def survives_blind_attack(self) -> bool:
        """True when a structural attacker cannot fully excise the watermark."""
        return not self.blind_attack.watermark_fully_removed

    @property
    def removal_breaks_system(self) -> bool:
        """True when removing the watermark impairs the host design."""
        return self.informed_attack.system_impaired

    @property
    def robust(self) -> bool:
        """The paper's notion of improved robustness.

        A watermark is considered robust when either the attacker cannot
        find it structurally, or removing it (even with full knowledge)
        damages the functional system.
        """
        return self.survives_blind_attack or self.removal_breaks_system

    def summary(self) -> str:
        """Human-readable one-paragraph summary."""
        lines = [
            f"architecture: {self.architecture}",
            f"  blind structural attack removed {len(self.blind_attack.removed_instances)} "
            f"instances (recall {self.blind_attack.recall:.0%})",
            f"  watermark fully removed by blind attack: {self.blind_attack.watermark_fully_removed}",
            f"  informed removal breaks functional logic: {self.removal_breaks_system} "
            f"({self.informed_attack.collateral_damage} functional instances affected)",
            f"  robust: {self.robust}",
        ]
        return "\n".join(lines)


def assess_robustness(netlist: Netlist, architecture: ArchitectureKind) -> RobustnessAssessment:
    """Assess the watermark embedded in ``netlist`` against blind and informed removal."""
    return RobustnessAssessment(
        architecture=architecture.value,
        blind_attack=blind_removal(netlist),
        informed_attack=informed_removal(netlist),
    )
