"""Unit tests for repro.core.embedding."""

import pytest

from repro.core.config import WatermarkConfig
from repro.core.embedding import embed_baseline, embed_clock_modulation
from repro.soc.structure import build_soc_structure, clock_gate_paths

WMARK_OUT = "soc/wm_wgc/wmark_out"


@pytest.fixture
def host():
    return build_soc_structure(name="soc")


@pytest.fixture
def config():
    return WatermarkConfig(lfsr_width=8, lfsr_seed=0x2D, load_registers=64)


def watermark(netlist):
    return set(netlist.component_names(role="watermark"))


class TestEmbedBaseline:
    def test_adds_wgc_and_load_modules(self, host, config):
        embed_baseline(host, config)
        assert {"soc/wm_wgc/lfsr", WMARK_OUT, "soc/wm_load/sr0", "soc/wm_load/sr7"} <= watermark(host)
        assert host.fan_in("soc/wm_load/sr0") == [WMARK_OUT]
        assert host.fan_in("soc/wm_load/sr7") == ["soc/wm_load/sr6"]

    def test_watermark_instances_marked(self, host, config):
        embed_baseline(host, config)
        watermark_registers = sum(c.register_count for c in host.components("watermark"))
        assert watermark_registers >= config.load_registers + config.lfsr_width

    def test_load_forms_isolated_cluster(self, host, config):
        embed_baseline(host, config)
        clusters = host.weakly_connected_clusters()
        assert any(cluster == watermark(host) for cluster in clusters)

    def test_instance_paths_exist_in_netlist(self, host, config):
        before = set(host.component_names())
        embed_baseline(host, config)
        added = set(host.component_names()) - before
        assert added == watermark(host)
        assert all(path.startswith(("soc/wm_wgc/", "soc/wm_load/")) for path in added)


class TestEmbedClockModulation:
    def test_requires_targets(self, host, config):
        with pytest.raises(ValueError):
            embed_clock_modulation(host, [], config)

    def test_rejects_non_clock_gate_targets(self, host, config):
        with pytest.raises(ValueError):
            embed_clock_modulation(host, ["soc/bus_matrix"], config)
        assert not watermark(host)

    def test_rejects_unknown_targets(self, host, config):
        with pytest.raises(KeyError):
            embed_clock_modulation(host, ["soc/cpu_core/icg99"], config)
        assert not watermark(host)

    def test_wgc_drives_target_gates(self, host, config):
        gates = clock_gate_paths(host)[:3]
        embed_clock_modulation(host, gates, config)
        for gate_path in gates:
            assert WMARK_OUT in host.fan_in(gate_path)

    def test_no_load_instances(self, host, config):
        embed_clock_modulation(host, clock_gate_paths(host)[:1], config)
        assert all(path.startswith("soc/wm_wgc/") for path in watermark(host))

    def test_watermark_is_entangled_with_functional_cluster(self, host, config):
        embed_clock_modulation(host, clock_gate_paths(host)[:2], config)
        clusters = host.weakly_connected_clusters()
        # No cluster consists of only watermark logic: the WGC shares a
        # cluster with the functional design it modulates.
        assert not any(cluster <= watermark(host) for cluster in clusters)
