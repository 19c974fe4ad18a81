"""Removal-attack analysis (Section VI of the paper).

A third party with access to the soft IP (RTL) tries to locate and excise
the watermark.  The attack modelled here is structural: the attacker looks
for *stand-alone* sub-circuits -- weakly connected clusters that are small
relative to the design, are dominated by sequential cells, and drive no
functional logic -- which is exactly what the baseline load-circuit
watermark looks like.  The clock-modulation watermark offers no such
cluster: its WGC output feeds the enable of clock gates that also serve
functional registers, so removing the suspicious logic breaks the host
design (quantified as functional components that lose their clock-enable
drivers).  The power-domain adversary, who leaves the RTL untouched and
drowns or starves the watermark at measurement time, is modelled by the
sweeps of :mod:`repro.analysis.masking`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Set


from repro.rtl.netlist import Netlist


@dataclass(frozen=True)
class ClusterCandidate:
    """A weakly connected cluster considered by the attacker."""

    instances: frozenset
    registers: int
    cells: int
    drives_functional_logic: bool


def find_standalone_clusters(
    netlist: Netlist,
    max_fraction_of_design: float = 0.45,
    min_registers: int = 8,
) -> List[ClusterCandidate]:
    """Clusters an attacker would shortlist as probable watermark circuits.

    A cluster is suspicious when it is (a) small relative to the whole
    design, (b) register-heavy (the load circuit is a bank of shift
    registers) and (c) does not drive any logic outside itself.
    """
    if not 0.0 < max_fraction_of_design <= 1.0:
        raise ValueError("max_fraction_of_design must be in (0, 1]")
    total_cells = max(1, netlist.total_cells)
    candidates: List[ClusterCandidate] = []
    for cluster in netlist.weakly_connected_clusters():
        stats = netlist.subgraph_stats(cluster)
        drives_external = False
        for name in cluster:
            for successor in netlist.fan_out(name):
                if successor not in cluster:
                    drives_external = True
                    break
            if drives_external:
                break
        candidate = ClusterCandidate(
            instances=frozenset(cluster),
            registers=stats["registers"],
            cells=stats["cells"],
            drives_functional_logic=drives_external,
        )
        fraction = candidate.cells / total_cells
        if (
            fraction <= max_fraction_of_design
            and candidate.registers >= min_registers
            and not candidate.drives_functional_logic
        ):
            candidates.append(candidate)
    return sorted(candidates, key=lambda c: c.registers, reverse=True)


@dataclass
class AttackOutcome:
    """Result of a removal attack on one netlist."""

    removed_instances: Set[str] = field(default_factory=set)
    true_watermark_instances: Set[str] = field(default_factory=set)
    functional_instances_removed: Set[str] = field(default_factory=set)
    broken_functional_instances: Set[str] = field(default_factory=set)

    @property
    def watermark_fully_removed(self) -> bool:
        """Whether every watermark instance was removed."""
        return self.true_watermark_instances.issubset(self.removed_instances)

    @property
    def recall(self) -> float:
        """Fraction of watermark instances the attack removed."""
        if not self.true_watermark_instances:
            return 0.0
        return len(self.removed_instances & self.true_watermark_instances) / len(
            self.true_watermark_instances
        )

    @property
    def collateral_damage(self) -> int:
        """Functional instances removed or left without drivers."""
        return len(self.functional_instances_removed) + len(self.broken_functional_instances)

    @property
    def system_impaired(self) -> bool:
        """Whether the host design no longer functions after the attack."""
        return self.collateral_damage > 0


class RemovalAttack:
    """A structural removal attack against an embedded watermark."""

    def __init__(
        self,
        max_fraction_of_design: float = 0.45,
        min_registers: int = 8,
        remove_suspicious_enable_logic: bool = True,
    ) -> None:
        self.max_fraction_of_design = max_fraction_of_design
        self.min_registers = min_registers
        self.remove_suspicious_enable_logic = remove_suspicious_enable_logic

    def select_targets(self, netlist: Netlist) -> Set[str]:
        """Instances the attacker decides to remove."""
        targets: Set[str] = set()
        for candidate in find_standalone_clusters(
            netlist,
            max_fraction_of_design=self.max_fraction_of_design,
            min_registers=self.min_registers,
        ):
            targets |= set(candidate.instances)
        return targets

    @staticmethod
    def _evaluate_removal(netlist: Netlist, targets: Set[str]) -> AttackOutcome:
        """Evaluate what removing ``targets`` does to the design.

        Functional damage is quantified as functional sequential instances
        (registers, clock gates) that lose at least one direct driver --
        e.g. a host clock gate whose enable cone contained the watermark
        logic and is now severed.
        """
        truth = set(netlist.component_names(role="watermark"))
        functional_removed = {name for name in targets if name in netlist and netlist.role(name) == "functional"}
        broken_functional: Set[str] = set()
        sequential_types = ("dff", "icg", "register_bank")
        for name in netlist.component_names():
            if name in targets:
                continue
            if netlist.role(name) != "functional":
                continue
            if netlist.component(name).cell_type not in sequential_types:
                continue
            if set(netlist.fan_in(name)) & targets:
                broken_functional.add(name)
        return AttackOutcome(
            removed_instances=targets,
            true_watermark_instances=truth,
            functional_instances_removed=functional_removed,
            broken_functional_instances=broken_functional,
        )

    def execute(self, netlist: Netlist) -> AttackOutcome:
        """Run the blind structural attack and evaluate its consequences."""
        targets = self.select_targets(netlist)
        return self._evaluate_removal(netlist, targets)

    def execute_informed(self, netlist: Netlist, known_instances: Iterable[str]) -> AttackOutcome:
        """An attack by an adversary who somehow identified the watermark.

        Used to quantify the damage a *successful* removal causes: for the
        clock-modulation watermark even a perfectly informed removal severs
        the clock-enable path of functional registers.
        """
        targets = set(known_instances)
        missing = targets - set(netlist.component_names())
        if missing:
            raise KeyError(f"unknown instances in informed attack: {sorted(missing)}")
        return self._evaluate_removal(netlist, targets)
