"""Register-transfer-level circuit substrate.

This package provides the structural building blocks of the Sec. VI
netlists (registers, shift registers, clock gates and glue logic in one
flat graph), the clock-tree buffer count the watermark circuits are costed
with, and the per-cycle switching-activity records the power estimator
consumes.

The substrate is intentionally cycle-accurate rather than event-accurate:
Correlation Power Analysis (the paper's detection technique) consumes one
power value per clock cycle, so per-cycle switching-activity accounting is
the right level of abstraction for reproducing the paper's results.
"""

from repro.rtl.activity import ActivityRecord, ActivityTrace
from repro.rtl.components import (
    Component,
    Register,
    ClockGate,
    CombinationalBlock,
    ShiftRegister,
    clock_tree_buffers,
)
from repro.rtl.netlist import Netlist

__all__ = [
    "ActivityRecord",
    "ActivityTrace",
    "Component",
    "Register",
    "ClockGate",
    "CombinationalBlock",
    "ShiftRegister",
    "clock_tree_buffers",
    "Netlist",
]
