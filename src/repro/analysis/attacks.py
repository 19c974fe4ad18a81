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
from typing import List, Set, Tuple

from repro.rtl.netlist import Netlist

#: A suspicious cluster holds at most this share of the design's cells ...
MAX_FRACTION_OF_DESIGN = 0.45
#: ... and at least this many flip-flops.
MIN_REGISTERS = 8
#: Cell types that stop working when one of their direct drivers is removed.
SEQUENTIAL_CELL_TYPES = ("dff", "icg")


def find_standalone_clusters(netlist: Netlist) -> List[Set[str]]:
    """Clusters an attacker would shortlist as probable watermark circuits.

    A cluster is suspicious when it is (a) small relative to the whole
    design, (b) register-heavy (the load circuit is a bank of shift
    registers) and (c) does not drive any logic outside itself -- which a
    weakly connected cluster never does.  The shortlist is ordered by
    register count, largest first.
    """
    total_cells = max(1, netlist.total_cells)
    shortlist: List[Tuple[int, Set[str]]] = []
    for cluster in netlist.weakly_connected_clusters():
        stats = netlist.subgraph_stats(cluster)
        if stats["cells"] / total_cells <= MAX_FRACTION_OF_DESIGN and stats["registers"] >= MIN_REGISTERS:
            shortlist.append((stats["registers"], cluster))
    shortlist.sort(key=lambda entry: entry[0], reverse=True)
    return [cluster for _, cluster in shortlist]


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


def _evaluate_removal(netlist: Netlist, targets: Set[str]) -> AttackOutcome:
    """Evaluate what removing ``targets`` does to the design.

    Functional damage is quantified as functional sequential instances
    (registers, clock gates) that lose at least one direct driver -- e.g. a
    host clock gate whose enable cone contained the watermark logic and is
    now severed.
    """
    functional = set(netlist.component_names(role="functional"))
    broken = {
        name
        for name in functional - targets
        if netlist.component(name).cell_type in SEQUENTIAL_CELL_TYPES
        and targets.intersection(netlist.fan_in(name))
    }
    return AttackOutcome(
        removed_instances=targets,
        true_watermark_instances=set(netlist.component_names(role="watermark")),
        functional_instances_removed=targets & functional,
        broken_functional_instances=broken,
    )


def blind_removal(netlist: Netlist) -> AttackOutcome:
    """The blind structural attack: excise every shortlisted cluster."""
    return _evaluate_removal(netlist, set().union(*find_standalone_clusters(netlist)))


def informed_removal(netlist: Netlist) -> AttackOutcome:
    """An attack by an adversary who somehow identified the watermark.

    Used to quantify the damage a *successful* removal causes: ripping out
    the clock-modulation watermark also rips out the modulated enable
    wiring of the host's clock gates, so even a perfectly informed removal
    severs the clock-enable path of functional registers.
    """
    return _evaluate_removal(netlist, set(netlist.component_names(role="watermark")))
