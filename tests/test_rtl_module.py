"""Unit tests for repro.rtl.module."""

import pytest

from repro.rtl.components import ClockGate, CombinationalBlock, Register
from repro.rtl.module import Module


def build_sample_hierarchy() -> Module:
    top = Module("top")
    top.add_component(CombinationalBlock("glue", gate_count=4))
    child = Module("ip0")
    child.add_component(ClockGate("icg"))
    child.add_component(Register("reg", width=8))
    child.connect("icg", "reg", net="gclk")
    top.add_child(child)
    top.connect("glue", "ip0/icg", net="en")
    return top


class TestModuleConstruction:
    def test_invalid_name_rejected(self):
        with pytest.raises(ValueError):
            Module("a/b")
        with pytest.raises(ValueError):
            Module("")

    def test_duplicate_component_rejected(self):
        module = Module("m")
        module.add_component(Register("r"))
        with pytest.raises(ValueError):
            module.add_component(Register("r"))

    def test_duplicate_child_rejected(self):
        module = Module("m")
        module.add_child(Module("c"))
        with pytest.raises(ValueError):
            module.add_child(Module("c"))

class TestModuleQueries:
    def test_iter_components_paths(self):
        top = build_sample_hierarchy()
        paths = {path for path, _, _ in top.iter_components()}
        assert paths == {"top/glue", "top/ip0/icg", "top/ip0/reg"}

    def test_register_and_cell_counts(self):
        top = build_sample_hierarchy()
        assert top.register_count == 8
        assert top.cell_count == 4 + 1 + 8

    def test_find_by_path(self):
        top = build_sample_hierarchy()
        assert isinstance(top.find("ip0/icg"), ClockGate)
        with pytest.raises(KeyError):
            top.find("ip0/missing")
        with pytest.raises(KeyError):
            top.find("nope/icg")

    def test_role_propagates_to_components(self):
        module = Module("wm", role="watermark")
        module.add_component(Register("r"))
        _, _, role = next(iter(module.iter_components()))
        assert role == "watermark"


class TestModuleFlatten:
    def test_flatten_creates_hierarchical_names(self):
        netlist = build_sample_hierarchy().flatten()
        assert "top/ip0/reg" in netlist
        assert len(netlist) == 3

    def test_flatten_preserves_connections(self):
        netlist = build_sample_hierarchy().flatten()
        assert netlist.fan_out("top/glue") == ["top/ip0/icg"]
        assert netlist.fan_in("top/ip0/reg") == ["top/ip0/icg"]

    def test_flatten_rejects_unknown_connection(self):
        module = Module("m")
        module.add_component(Register("r"))
        module.connect("r", "missing")
        with pytest.raises(KeyError):
            module.flatten()
