"""Unit tests for repro.rtl.netlist."""

import pytest

from repro.rtl.components import ClockGate, CombinationalBlock, Register
from repro.rtl.netlist import Netlist


@pytest.fixture
def simple_netlist() -> Netlist:
    """clk_ctrl -> icg -> reg -> logic, plus an isolated watermark pair."""
    netlist = Netlist("design")
    netlist.add_component(CombinationalBlock("clk_ctrl", gate_count=4), role="functional")
    netlist.add_component(ClockGate("icg"), role="functional")
    netlist.add_component(Register("reg", width=8), role="functional")
    netlist.add_component(CombinationalBlock("logic", gate_count=10), role="functional")
    netlist.add_component(Register("wm_lfsr", width=12), role="watermark")
    netlist.add_component(Register("wm_load", width=64), role="watermark")
    netlist.connect("clk_ctrl", "icg", net="en")
    netlist.connect("icg", "reg", net="gclk")
    netlist.connect("reg", "logic", net="q")
    netlist.connect("wm_lfsr", "wm_load", net="wmark")
    return netlist


class TestNetlistConstruction:
    def test_duplicate_name_rejected(self, simple_netlist):
        with pytest.raises(ValueError):
            simple_netlist.add_component(Register("reg", width=1))

    def test_unknown_role_rejected(self):
        netlist = Netlist("n")
        with pytest.raises(ValueError):
            netlist.add_component(Register("r"), role="mystery")

    def test_connect_requires_existing_nodes(self, simple_netlist):
        with pytest.raises(KeyError):
            simple_netlist.connect("reg", "missing")

    def test_contains_and_len(self, simple_netlist):
        assert "icg" in simple_netlist
        assert len(simple_netlist) == 6


class TestNetlistQueries:
    def test_components_filtered_by_role(self, simple_netlist):
        assert len(simple_netlist.components(role="watermark")) == 2

    def test_component_names_by_role(self, simple_netlist):
        assert sorted(simple_netlist.component_names(role="watermark")) == ["wm_lfsr", "wm_load"]
        assert simple_netlist.component_names(role="functional") == ["clk_ctrl", "icg", "reg", "logic"]

    def test_fan_in_fan_out(self, simple_netlist):
        # "reg" is driven by "icg" and drives "logic"; nothing drives "clk_ctrl".
        assert simple_netlist.fan_in("reg") == ["icg"]
        assert simple_netlist.fan_in("logic") == ["reg"]
        assert simple_netlist.fan_in("clk_ctrl") == []

    def test_register_totals(self, simple_netlist):
        assert sum(c.register_count for c in simple_netlist.components()) == 8 + 12 + 64
        assert simple_netlist.total_cells == 4 + 1 + 8 + 10 + 12 + 64
        watermark = simple_netlist.components("watermark")
        assert sum(c.register_count for c in watermark) == 76


class TestNetlistStructure:
    def test_weakly_connected_clusters(self, simple_netlist):
        clusters = simple_netlist.weakly_connected_clusters()
        assert len(clusters) == 2
        sizes = sorted(len(c) for c in clusters)
        assert sizes == [2, 4]

    def test_subgraph_stats(self, simple_netlist):
        stats = simple_netlist.subgraph_stats(["wm_lfsr", "wm_load"])
        assert stats == {"instances": 2, "registers": 76, "cells": 76}
