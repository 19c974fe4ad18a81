"""Watermark generation circuit (WGC).

The WGC is the only part of the watermark hardware the proposed technique
keeps.  It produces the periodic binary watermark sequence ``WMARK`` that
either enables the load circuit (baseline architecture) or drives the
enable inputs of existing integrated clock gates (proposed architecture).

Two variants matter for the paper's numbers:

* the *minimal* WGC used in the area analysis of Section V -- just the
  12-bit maximum-length LFSR, i.e. 12 registers;
* the *test-chip* WGC (Fig. 4(a)) -- two 32-bit sequence generators plus
  configuration/control logic, of which a single generator configured as a
  12-bit LFSR is used during the experiments; the other one's flip-flops
  only leak.  Its (larger) dynamic power is what makes the load circuit
  "only" 95.6%-98% of the total watermark dynamic power in Table I.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.core.lfsr import LFSR
from repro.rtl.activity import ActivityTrace
from repro.rtl.components import CLOCK_EDGES_PER_CYCLE, CombinationalBlock


class WatermarkGenerationCircuit:
    """Generates the watermark sequence ``WMARK``.

    Parameters
    ----------
    lfsr:
        The sequence generator that drives the ``WMARK`` output.
    control_gates:
        Size of the configuration/control glue logic in NAND2-equivalents.
    always_clocked_registers:
        Registers (e.g. configuration registers) whose clock is never gated;
        they add clock-buffer power every cycle.
    idle_registers:
        Flip-flops of generators that are present but clock-gated off; they
        leak and occupy area but never toggle.
    name:
        Instance name.
    """

    def __init__(
        self,
        lfsr: LFSR,
        control_gates: int = 8,
        always_clocked_registers: int = 0,
        idle_registers: int = 0,
        name: str = "wgc",
    ) -> None:
        self.name = name
        self.lfsr = lfsr
        self.control = CombinationalBlock(
            f"{name}/control", gate_count=max(1, control_gates), activity_factor=0.1
        )
        self.always_clocked_registers = always_clocked_registers
        self.idle_registers = idle_registers

    # -- constructors -----------------------------------------------------

    @classmethod
    def minimal(cls, width: int = 12, seed: int = 1, name: str = "wgc") -> "WatermarkGenerationCircuit":
        """The minimal WGC of the area analysis: a single ``width``-bit LFSR."""
        return cls(
            lfsr=LFSR(width=width, seed=seed, name=f"{name}/lfsr"),
            control_gates=4,
            always_clocked_registers=0,
            name=name,
        )

    @classmethod
    def test_chip(
        cls,
        active_width: int = 12,
        seed: int = 1,
        name: str = "wgc",
    ) -> "WatermarkGenerationCircuit":
        """The WGC embedded in the paper's test chips (Fig. 4(a)).

        Two 32-bit sequence generators are present; a single one is used,
        configured as an ``active_width``-bit maximum-length LFSR, and the
        other one's 32 flip-flops stay clock-gated off.  The unused stages
        of the active generator remain clocked (they are part of the same
        32-bit register), which is modelled by ``always_clocked_registers``.
        """
        return cls(
            lfsr=LFSR(width=active_width, seed=seed, name=f"{name}/lfsr0"),
            control_gates=24,
            always_clocked_registers=32 - active_width + 8,
            idle_registers=32,
            name=name,
        )

    # -- structural properties ---------------------------------------------

    @property
    def period(self) -> int:
        """Period of the watermark sequence."""
        return self.lfsr.period

    @property
    def register_count(self) -> int:
        """Total flip-flop count of the WGC (both generators plus config)."""
        return self.lfsr.register_count + self.idle_registers + self.always_clocked_registers

    def cell_inventory(self) -> Dict[str, int]:
        """Cell counts per library class, for leakage and area estimation."""
        return {"dff": self.register_count, "comb": self.control.gate_count}

    # -- behaviour ----------------------------------------------------------

    def activity(self, length: int) -> ActivityTrace:
        """The WGC's switching activity over ``length`` cycles from reset.

        Every cycle clocks the LFSR, the always-clocked configuration
        registers and the control logic; the LFSR's data and feedback
        toggles follow its state sequence.
        """
        lfsr = self.lfsr.activity(length)
        return ActivityTrace(
            name=self.name,
            clock_toggles=lfsr.clock_toggles
            + CLOCK_EDGES_PER_CYCLE * self.always_clocked_registers,
            data_toggles=lfsr.data_toggles,
            comb_toggles=lfsr.comb_toggles + self.control.active_toggles,
        )

    def sequence(self, length: Optional[int] = None) -> np.ndarray:
        """The watermark sequence as a numpy array of 0/1 values.

        This is the model vector ``X`` the CPA detector correlates against
        (after the detector's own rotation handling).
        """
        return self.lfsr.sequence(length)
