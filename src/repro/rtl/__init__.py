"""Register-transfer-level circuit substrate.

This package provides the structural building blocks used by the watermark
architectures and by the SoC model: sequential and clock-network
components, a flat netlist graph, and the per-cycle switching-activity
records the power estimator consumes.

The substrate is intentionally cycle-accurate rather than event-accurate:
Correlation Power Analysis (the paper's detection technique) consumes one
power value per clock cycle, so per-cycle switching-activity accounting is
the right level of abstraction for reproducing the paper's results.
"""

from repro.rtl.activity import ActivityRecord, ActivityTrace
from repro.rtl.components import (
    Component,
    Register,
    RegisterBank,
    ClockGate,
    ClockBuffer,
    CombinationalBlock,
    ShiftRegister,
)
from repro.rtl.clock_tree import ClockTree, ClockTreeLevel
from repro.rtl.netlist import Netlist

__all__ = [
    "ActivityRecord",
    "ActivityTrace",
    "Component",
    "Register",
    "RegisterBank",
    "ClockGate",
    "ClockBuffer",
    "CombinationalBlock",
    "ShiftRegister",
    "ClockTree",
    "ClockTreeLevel",
    "Netlist",
]
