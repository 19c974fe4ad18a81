#!/usr/bin/env python3
"""Removal-attack study (Section VI): robustness of the two architectures.

Embeds both watermark architectures into a structural model of the host SoC
and plays the third-party attacker:

* a *blind* structural attack that shortlists stand-alone, register-heavy
  sub-circuits that drive no functional logic (exactly what the baseline
  load circuit looks like) and excises them;
* an *informed* attack that removes the watermark instances outright, to
  measure the collateral damage on the host design.

Run:  python examples/removal_attack_study.py
"""

from __future__ import annotations

from repro.analysis.attacks import RemovalAttack, find_standalone_clusters
from repro.core.config import ArchitectureKind, WatermarkConfig
from repro.core.embedding import embed_baseline, embed_clock_modulation
from repro.pipeline import run_scenario
from repro.soc.structure import build_soc_structure, clock_gate_paths


def describe_attack_surface() -> None:
    """Show what the attacker's cluster analysis sees for each architecture."""
    config = WatermarkConfig()

    baseline_host = build_soc_structure(name="soc_baseline")
    embed_baseline(baseline_host, config)
    baseline_netlist = baseline_host.flatten()

    clockmod_host = build_soc_structure(name="soc_clockmod")
    embed_clock_modulation(clockmod_host, clock_gate_paths(clockmod_host)[:4], config)
    clockmod_netlist = clockmod_host.flatten()

    for label, netlist in (("baseline", baseline_netlist), ("clock modulation", clockmod_netlist)):
        clusters = find_standalone_clusters(netlist)
        print(f"  [{label}] suspicious stand-alone clusters found: {len(clusters)}")
        for cluster in clusters:
            print(
                f"      cluster with {cluster.size} instances, {cluster.registers} registers "
                f"(drives functional logic: {cluster.drives_functional_logic})"
            )


def main() -> None:
    print("== Attacker's view of the RTL (stand-alone cluster analysis) ==")
    describe_attack_surface()
    print()

    print("== Removal attacks on both architectures ==")
    result = run_scenario("robustness").payload
    print(result.to_text())
    print()

    print("== Interpretation ==")
    print(
        "The baseline watermark (WGC + load circuit) forms an isolated cluster of\n"
        "shift registers: the blind attack finds and removes it completely, and the\n"
        "host design keeps working -- the watermark offers no resistance.\n"
        "The clock-modulation watermark shares the enable path of functional clock\n"
        "gates: the blind attack cannot isolate it, and even an informed removal\n"
        f"severs the clock-enable cone of "
        f"{len(result.clock_modulation.informed_attack.broken_functional_instances)} functional "
        "instances, impairing the system -- the improved robustness claimed in Section VI."
    )


if __name__ == "__main__":
    main()
