"""Robustness comparison of the two watermark architectures (Section VI).

Two complementary notions of robustness are assessed:

* **structural** (:func:`assess_robustness`) -- can an RTL-level attacker
  locate and excise the watermark without breaking the host design?
* **detection** (:func:`assess_detection_robustness`) -- how much
  power-domain masking (noise injection or enable starvation) does it take
  to defeat CPA?  These sweeps are Monte-Carlo campaigns whose trial rows
  are synthesized one at a time by the vectorized trace-synthesis engine
  (:class:`repro.power.synthesis.TraceSynthesizer`) and stream into the
  batched detection engine
  (:class:`repro.detection.batch.BatchCPADetector`) -- no per-cycle Python
  loop on either side, and no trials x cycles matrix in memory.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.analysis.attacks import AttackOutcome, MaskingAttack, RemovalAttack
from repro.analysis.masking import MaskingStudy
from repro.core.config import DetectionConfig
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


@dataclass(frozen=True)
class DetectionRobustnessAssessment:
    """Robustness of the watermark's *detectability* against masking attacks."""

    noise_study: MaskingStudy
    starvation_study: MaskingStudy

    @property
    def survives_noise_injection(self) -> bool:
        """Detection succeeded at every evaluated masking-noise level."""
        return self.noise_study.still_detected_everywhere()

    @property
    def survives_starvation(self) -> bool:
        """Detection succeeded at every evaluated enable duty."""
        return self.starvation_study.still_detected_everywhere()

    @property
    def masking_noise_to_defeat_w(self) -> Optional[float]:
        """Smallest evaluated masking power that defeated detection."""
        failed = [p.masking_noise_w for p in self.noise_study.points if not p.detected]
        return min(failed) if failed else None

    @property
    def starvation_duty_to_defeat(self) -> Optional[float]:
        """Largest evaluated enable duty at which detection already failed."""
        failed = [p.enable_duty for p in self.starvation_study.points if not p.detected]
        return max(failed) if failed else None

    def summary(self) -> str:
        """Human-readable summary of both masking sweeps."""
        noise = self.masking_noise_to_defeat_w
        duty = self.starvation_duty_to_defeat
        lines = [
            f"  noise injection defeats detection at: "
            + ("not within sweep" if noise is None else f"{noise * 1e3:.1f} mW"),
            f"  starvation defeats detection at duty: "
            + ("not within sweep" if duty is None else f"{duty:.2f}"),
        ]
        return "\n".join(lines)


def assess_detection_robustness(
    sequence: np.ndarray,
    watermark_amplitude_w: float = 1.5e-3,
    base_noise_sigma_w: float = 43e-3,
    attack: Optional[MaskingAttack] = None,
    num_cycles: Optional[int] = None,
    trials_per_point: Optional[int] = None,
    detection_config: Optional[DetectionConfig] = None,
    seed: int = 0,
) -> DetectionRobustnessAssessment:
    """Sweep masking attacks against the watermark's detectability.

    Runs the noise-injection and enable-starvation campaigns of
    ``attack`` (a default :class:`MaskingAttack` if none is given); every
    Monte-Carlo trial of a sweep streams row by row into one batched CPA
    pass.

    ``num_cycles``, ``trials_per_point`` and ``detection_config``
    parameterise the default attack (unset keywords keep
    :class:`MaskingAttack`'s own defaults); an explicitly passed
    ``attack`` already carries them, so combining both is rejected rather
    than silently ignoring the keywords.
    """
    overrides = {
        key: value
        for key, value in {
            "trials_per_point": trials_per_point,
            "num_cycles": num_cycles,
            "detection_config": detection_config,
        }.items()
        if value is not None
    }
    if attack is None:
        attack = MaskingAttack(**overrides)
    elif overrides:
        raise ValueError(
            "pass campaign parameters either on the MaskingAttack or as "
            "keywords, not both"
        )
    noise_study = attack.sweep_noise_injection(
        sequence,
        watermark_amplitude_w=watermark_amplitude_w,
        base_noise_sigma_w=base_noise_sigma_w,
        seed=seed,
    )
    starvation_study = attack.sweep_starvation(
        sequence,
        watermark_amplitude_w=watermark_amplitude_w,
        base_noise_sigma_w=base_noise_sigma_w,
        seed=seed + 1,
    )
    return DetectionRobustnessAssessment(
        noise_study=noise_study,
        starvation_study=starvation_study,
    )


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
