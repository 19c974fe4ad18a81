"""Structural (netlist-level) model of the host SoC.

The behavioural chip models in :mod:`repro.soc.chip` produce power traces;
this module produces the *structural* view -- a flat netlist of registers,
integrated clock gates and glue logic, each instance named by its path
(``soc/cpu_core/icg0``) -- that the embedding API and the removal-attack
analysis of Section VI operate on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.rtl.components import ClockGate, CombinationalBlock, Register
from repro.rtl.netlist import Netlist


@dataclass(frozen=True)
class IPBlockSpec:
    """Geometry of one clock-gated functional IP sub-module."""

    name: str
    num_words: int = 16
    word_width: int = 32
    comb_gates: int = 200


#: Sub-module mix approximating a Cortex-M0-class SoC.
SOC_BLOCKS: tuple = (
    IPBlockSpec(name="cpu_core", num_words=28, word_width=32, comb_gates=2600),
    IPBlockSpec(name="ahb_fabric", num_words=8, word_width=32, comb_gates=500),
    IPBlockSpec(name="uart", num_words=4, word_width=16, comb_gates=160),
    IPBlockSpec(name="timer", num_words=6, word_width=32, comb_gates=220),
    IPBlockSpec(name="dma", num_words=10, word_width=32, comb_gates=420),
)


def add_ip_block(netlist: Netlist, spec: IPBlockSpec) -> str:
    """Add a clock-gated functional sub-module; return its path.

    Structure per block: a control block drives the clock-gate enable
    (``CLK_CTRL`` in Fig. 1(b)); each clock gate drives a group of register
    words; registers feed the datapath logic which loops back to the
    registers and to the control.
    """
    block = f"{netlist.name}/{spec.name}"
    control_gates = max(4, spec.comb_gates // 20)
    netlist.add_component(CombinationalBlock(f"{block}/clk_ctrl", control_gates, activity_factor=0.1))
    netlist.add_component(CombinationalBlock(f"{block}/datapath", spec.comb_gates, activity_factor=0.15))

    words_per_gate = 4
    num_gates = max(1, (spec.num_words + words_per_gate - 1) // words_per_gate)
    for gate_index in range(num_gates):
        gate = f"{block}/icg{gate_index}"
        netlist.add_component(ClockGate(gate))
        netlist.connect(f"{block}/clk_ctrl", gate, net="clk_en")
        first_word = gate_index * words_per_gate
        last_word = min(spec.num_words, first_word + words_per_gate)
        for word_index in range(first_word, last_word):
            word = f"{block}/word{word_index}"
            netlist.add_component(Register(word, width=spec.word_width))
            netlist.connect(gate, word, net="gated_clk")
            netlist.connect(word, f"{block}/datapath", net="q")
    netlist.connect(f"{block}/datapath", f"{block}/clk_ctrl", net="state")
    netlist.connect(f"{block}/datapath", f"{block}/word0", net="d")
    return block


def build_soc_structure(name: str = "soc") -> Netlist:
    """Flat netlist of the host SoC: a bus matrix serving every IP block."""
    soc = Netlist(name)
    bus = f"{name}/bus_matrix"
    soc.add_component(CombinationalBlock(bus, gate_count=800, activity_factor=0.1))
    previous = None
    for spec in SOC_BLOCKS:
        block = add_ip_block(soc, spec)
        soc.connect(bus, f"{block}/clk_ctrl", net="hsel")
        soc.connect(f"{block}/datapath", bus, net="hrdata")
        if previous is not None:
            soc.connect(f"{previous}/datapath", f"{block}/datapath", net="irq")
        previous = block
    return soc


def clock_gate_paths(netlist: Netlist) -> List[str]:
    """Instance paths of every clock gate, sorted.

    These are the candidate embedding targets for the clock-modulation
    watermark.
    """
    return sorted(
        name for name in netlist.component_names() if isinstance(netlist.component(name), ClockGate)
    )
