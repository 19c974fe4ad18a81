"""Structural robustness of the two watermark architectures (Section VI).

:func:`assess_robustness` asks whether an RTL-level attacker can locate and
excise the watermark without breaking the host design.  How much
power-domain masking it takes to defeat CPA is the subject of
:mod:`repro.analysis.masking`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


from repro.analysis.attacks import AttackOutcome, RemovalAttack
from repro.core.embedding import EmbeddedWatermark


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


def assess_robustness(
    embedded: EmbeddedWatermark,
    attack: Optional[RemovalAttack] = None,
) -> RobustnessAssessment:
    """Assess an embedded watermark against blind and informed removal."""
    attack = attack or RemovalAttack()
    netlist = embedded.netlist()
    blind = attack.execute(netlist)
    informed_targets = set(embedded.watermark_instances)
    # An informed attacker of the clock-modulation scheme must also rip out
    # the modulated enable wiring, i.e. the nets feeding the host's clock
    # gates -- which is what damages the design.
    informed = attack.execute_informed(netlist, informed_targets)
    return RobustnessAssessment(
        architecture=embedded.architecture.value,
        blind_attack=blind,
        informed_attack=informed,
    )
