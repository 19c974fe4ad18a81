"""Unit tests for repro.analysis.attacks and robustness."""

import pytest

from repro.analysis.attacks import RemovalAttack, find_standalone_clusters
from repro.analysis.robustness import assess_robustness
from repro.core.config import ArchitectureKind, WatermarkConfig
from repro.core.embedding import embed_baseline, embed_clock_modulation
from repro.soc.structure import build_soc_structure, clock_gate_paths


@pytest.fixture
def config() -> WatermarkConfig:
    return WatermarkConfig(lfsr_width=8, lfsr_seed=0x1D, load_registers=128)


@pytest.fixture
def baseline_netlist(config):
    host = build_soc_structure(name="soc_b")
    embedded = embed_baseline(host, config)
    return embedded, embedded.netlist()


@pytest.fixture
def clock_mod_netlist(config):
    host = build_soc_structure(name="soc_c")
    gates = clock_gate_paths(host)[:4]
    embedded = embed_clock_modulation(host, gates, config)
    return embedded, embedded.netlist()


class TestStandaloneClusterSearch:
    def test_baseline_watermark_is_shortlisted(self, baseline_netlist):
        embedded, netlist = baseline_netlist
        clusters = find_standalone_clusters(netlist)
        assert len(clusters) >= 1
        shortlisted = set().union(*(c.instances for c in clusters))
        assert set(embedded.watermark_instances) <= shortlisted

    def test_clock_modulation_watermark_not_shortlisted(self, clock_mod_netlist):
        embedded, netlist = clock_mod_netlist
        clusters = find_standalone_clusters(netlist)
        shortlisted = set().union(*(c.instances for c in clusters)) if clusters else set()
        assert not (set(embedded.watermark_instances) & shortlisted)

    def test_invalid_fraction_rejected(self, baseline_netlist):
        _, netlist = baseline_netlist
        with pytest.raises(ValueError):
            find_standalone_clusters(netlist, max_fraction_of_design=0.0)


class TestRemovalAttack:
    def test_blind_attack_removes_baseline_watermark(self, baseline_netlist):
        embedded, netlist = baseline_netlist
        outcome = RemovalAttack().execute(netlist)
        assert outcome.watermark_fully_removed
        assert outcome.recall == 1.0
        assert not outcome.system_impaired

    def test_blind_attack_misses_clock_modulation_watermark(self, clock_mod_netlist):
        _, netlist = clock_mod_netlist
        outcome = RemovalAttack().execute(netlist)
        assert outcome.recall == 0.0

    def test_informed_removal_of_clock_modulation_breaks_system(self, clock_mod_netlist):
        embedded, netlist = clock_mod_netlist
        outcome = RemovalAttack().execute_informed(netlist, embedded.watermark_instances)
        assert outcome.watermark_fully_removed
        assert outcome.system_impaired
        assert len(outcome.broken_functional_instances) >= len(embedded.modulated_gate_paths)

    def test_informed_removal_of_baseline_is_harmless(self, baseline_netlist):
        embedded, netlist = baseline_netlist
        outcome = RemovalAttack().execute_informed(netlist, embedded.watermark_instances)
        assert outcome.watermark_fully_removed
        assert not outcome.system_impaired

    def test_informed_attack_unknown_instances_rejected(self, baseline_netlist):
        _, netlist = baseline_netlist
        with pytest.raises(KeyError):
            RemovalAttack().execute_informed(netlist, ["ghost/instance"])

    def test_outcome_metrics_on_empty_attack(self, clock_mod_netlist):
        _, netlist = clock_mod_netlist
        outcome = RemovalAttack().execute(netlist)
        assert outcome.collateral_damage == 0


class TestRobustnessAssessment:
    def test_baseline_not_robust(self, config):
        host = build_soc_structure(name="soc_rb")
        embedded = embed_baseline(host, config)
        assessment = assess_robustness(embedded)
        assert assessment.architecture == ArchitectureKind.BASELINE_LOAD_CIRCUIT.value
        assert not assessment.robust

    def test_clock_modulation_robust(self, config):
        host = build_soc_structure(name="soc_rc")
        gates = clock_gate_paths(host)[:4]
        embedded = embed_clock_modulation(host, gates, config)
        assessment = assess_robustness(embedded)
        assert assessment.survives_blind_attack
        assert assessment.removal_breaks_system
        assert assessment.robust
        assert "robust: True" in assessment.summary()
