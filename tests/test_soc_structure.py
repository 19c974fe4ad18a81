"""Unit tests for repro.soc.structure."""

from repro.rtl.components import ClockGate
from repro.rtl.netlist import Netlist
from repro.soc.structure import (
    SOC_BLOCKS,
    IPBlockSpec,
    add_ip_block,
    build_soc_structure,
    clock_gate_paths,
)


class TestBuildIPBlock:
    def test_contains_clock_gates_and_registers(self):
        netlist = Netlist("soc")
        block = add_ip_block(netlist, IPBlockSpec(name="blk", num_words=8, word_width=8))
        assert block == "soc/blk"
        assert all(name.startswith("soc/blk/") for name in netlist.component_names())
        assert clock_gate_paths(netlist) == ["soc/blk/icg0", "soc/blk/icg1"]  # 4 words per gate
        assert sum(c.register_count for c in netlist.components()) == 64

    def test_flattenable(self):
        # The block stands alone in a flat netlist: clk_ctrl, datapath, one
        # clock gate and four register words, every register gated.
        netlist = Netlist("soc")
        add_ip_block(netlist, IPBlockSpec(name="blk", num_words=4, word_width=8))
        assert len(netlist) == 7
        registers = [n for n in netlist.component_names() if netlist.component(n).cell_type == "dff"]
        assert len(registers) == 4
        for name in registers:
            assert any("icg" in p for p in netlist.fan_in(name))


class TestBuildSoCStructure:
    def test_default_blocks_present(self):
        soc = build_soc_structure()
        blocks = {name.split("/")[1] for name in soc.component_names()} - {"bus_matrix"}
        assert blocks == {spec.name for spec in SOC_BLOCKS}

    def test_instances_named_by_path(self):
        soc = build_soc_structure(name="chip")
        assert "chip/bus_matrix" in soc
        assert "chip/cpu_core/icg0" in soc
        assert soc.fan_in("chip/cpu_core/clk_ctrl") == ["chip/bus_matrix", "chip/cpu_core/datapath"]
        assert set(soc.component_names(role="functional")) == set(soc.component_names())

    def test_register_count_reasonable(self):
        soc = build_soc_structure()
        assert sum(c.register_count for c in soc.components()) > 1000

    def test_flatten_is_connected_design(self):
        clusters = build_soc_structure().weakly_connected_clusters()
        assert len(clusters) == 1  # the functional SoC is one connected design


class TestClockGatePaths:
    def test_paths_resolve_to_clock_gates(self):
        soc = build_soc_structure()
        paths = clock_gate_paths(soc)
        assert len(paths) > 5
        assert paths == sorted(paths)
        for path in paths:
            assert isinstance(soc.component(path), ClockGate)
