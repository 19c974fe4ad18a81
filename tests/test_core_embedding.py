"""Unit tests for repro.core.embedding."""

import pytest

from repro.core.config import ArchitectureKind, WatermarkConfig
from repro.core.embedding import embed_baseline, embed_clock_modulation
from repro.soc.structure import build_soc_structure, clock_gate_paths


@pytest.fixture
def host():
    return build_soc_structure(name="soc")


@pytest.fixture
def config():
    return WatermarkConfig(lfsr_width=8, lfsr_seed=0x2D, load_registers=64)


class TestEmbedBaseline:
    def test_adds_wgc_and_load_modules(self, host, config):
        embedded = embed_baseline(host, config)
        assert "wm_wgc" in host.children
        assert "wm_load" in host.children
        assert embedded.architecture is ArchitectureKind.BASELINE_LOAD_CIRCUIT

    def test_watermark_instances_marked(self, host, config):
        embedded = embed_baseline(host, config)
        netlist = embedded.netlist()
        watermark_registers = sum(c.register_count for c in netlist.components("watermark"))
        assert watermark_registers >= config.load_registers + config.lfsr_width

    def test_load_forms_isolated_cluster(self, host, config):
        embedded = embed_baseline(host, config)
        netlist = embedded.netlist()
        clusters = netlist.weakly_connected_clusters()
        watermark = set(embedded.watermark_instances)
        assert any(cluster == watermark for cluster in clusters)

    def test_instance_paths_exist_in_netlist(self, host, config):
        embedded = embed_baseline(host, config)
        netlist = embedded.netlist()
        for path in embedded.watermark_instances:
            assert path in netlist


class TestEmbedClockModulation:
    def test_requires_targets(self, host, config):
        with pytest.raises(ValueError):
            embed_clock_modulation(host, [], config)

    def test_rejects_non_clock_gate_targets(self, host, config):
        with pytest.raises(ValueError):
            embed_clock_modulation(host, ["bus_matrix"], config)

    def test_rejects_unknown_targets(self, host, config):
        with pytest.raises(KeyError):
            embed_clock_modulation(host, ["cpu_core/icg99"], config)

    def test_wgc_drives_target_gates(self, host, config):
        gates = clock_gate_paths(host)[:3]
        embedded = embed_clock_modulation(host, gates, config)
        netlist = embedded.netlist()
        wmark_out = [p for p in embedded.wgc_instances if p.endswith("wmark_out")][0]
        for gate_path in embedded.modulated_gate_paths:
            assert wmark_out in netlist.fan_in(gate_path)

    def test_no_load_instances(self, host, config):
        gates = clock_gate_paths(host)[:1]
        embedded = embed_clock_modulation(host, gates, config)
        assert embedded.load_instances == []
        assert embedded.architecture is ArchitectureKind.CLOCK_MODULATION

    def test_watermark_is_entangled_with_functional_cluster(self, host, config):
        gates = clock_gate_paths(host)[:2]
        embedded = embed_clock_modulation(host, gates, config)
        netlist = embedded.netlist()
        clusters = netlist.weakly_connected_clusters()
        watermark = set(embedded.watermark_instances)
        # No cluster consists of only watermark logic: the WGC shares a
        # cluster with the functional design it modulates.
        assert not any(cluster <= watermark for cluster in clusters)
