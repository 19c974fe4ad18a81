"""Unit tests for repro.analysis.attacks and robustness."""

import pytest

from repro.analysis.attacks import blind_removal, find_standalone_clusters, informed_removal
from repro.analysis.robustness import assess_robustness
from repro.core.config import ArchitectureKind, WatermarkConfig
from repro.core.embedding import embed_baseline, embed_clock_modulation
from repro.rtl.components import Register
from repro.soc.structure import build_soc_structure, clock_gate_paths


@pytest.fixture
def config() -> WatermarkConfig:
    return WatermarkConfig(lfsr_width=8, lfsr_seed=0x1D, load_registers=128)


@pytest.fixture
def baseline_netlist(config):
    netlist = build_soc_structure(name="soc_b")
    embed_baseline(netlist, config)
    return netlist


@pytest.fixture
def clock_mod_netlist(config):
    netlist = build_soc_structure(name="soc_c")
    embed_clock_modulation(netlist, clock_gate_paths(netlist)[:4], config)
    return netlist


def watermark(netlist):
    return set(netlist.component_names(role="watermark"))


class TestStandaloneClusterSearch:
    def test_baseline_watermark_is_shortlisted(self, baseline_netlist):
        clusters = find_standalone_clusters(baseline_netlist)
        assert len(clusters) >= 1
        assert watermark(baseline_netlist) <= set().union(*clusters)

    def test_clock_modulation_watermark_not_shortlisted(self, clock_mod_netlist):
        clusters = find_standalone_clusters(clock_mod_netlist)
        assert not (watermark(clock_mod_netlist) & set().union(*clusters))

    def test_shortlist_thresholds_and_order(self):
        netlist = build_soc_structure(name="soc")
        for name, width in (("small", 8), ("large", 32), ("tiny", 7)):
            netlist.add_component(Register(f"soc/{name}", width=width))
        # The SoC itself is too large a share of the design, and "tiny" has
        # fewer than 8 registers; the rest come largest first.
        assert find_standalone_clusters(netlist) == [{"soc/large"}, {"soc/small"}]


class TestRemovalAttack:
    def test_blind_attack_removes_baseline_watermark(self, baseline_netlist):
        outcome = blind_removal(baseline_netlist)
        assert outcome.watermark_fully_removed
        assert outcome.recall == 1.0
        assert not outcome.system_impaired

    def test_blind_attack_misses_clock_modulation_watermark(self, clock_mod_netlist):
        outcome = blind_removal(clock_mod_netlist)
        assert outcome.recall == 0.0

    def test_informed_removal_of_clock_modulation_breaks_system(self, clock_mod_netlist):
        outcome = informed_removal(clock_mod_netlist)
        assert outcome.watermark_fully_removed
        assert outcome.system_impaired
        assert outcome.broken_functional_instances == set(clock_gate_paths(clock_mod_netlist)[:4])

    def test_informed_removal_of_baseline_is_harmless(self, baseline_netlist):
        outcome = informed_removal(baseline_netlist)
        assert outcome.removed_instances == watermark(baseline_netlist)
        assert outcome.watermark_fully_removed
        assert not outcome.system_impaired

    def test_outcome_metrics_on_empty_attack(self, clock_mod_netlist):
        outcome = blind_removal(clock_mod_netlist)
        assert outcome.collateral_damage == 0


class TestRobustnessAssessment:
    def test_baseline_not_robust(self, baseline_netlist):
        assessment = assess_robustness(baseline_netlist, ArchitectureKind.BASELINE_LOAD_CIRCUIT)
        assert assessment.architecture == ArchitectureKind.BASELINE_LOAD_CIRCUIT.value
        assert not assessment.robust

    def test_clock_modulation_robust(self, clock_mod_netlist):
        assessment = assess_robustness(clock_mod_netlist, ArchitectureKind.CLOCK_MODULATION)
        assert assessment.survives_blind_attack
        assert assessment.removal_breaks_system
        assert assessment.robust
        assert "robust: True" in assessment.summary()
