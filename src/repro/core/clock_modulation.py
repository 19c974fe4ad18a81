"""Clock-modulation watermark load (the paper's proposed technique).

Instead of adding a dedicated load circuit, the proposed architecture
(Fig. 1(b)) reuses clock-gated sequential logic that already exists in the
design: the ``WMARK`` bit is ANDed into the enable of the block's integrated
clock gates, so while ``WMARK`` is 1 the block's clock tree (and every
register clock buffer below it) toggles, and while ``WMARK`` is 0 the clock
is stopped at the gates and the block consumes no dynamic power.

Two flavours are provided:

* :class:`ClockModulatedBank` -- the *redundant* 1,024-register bank used on
  the paper's test chips (32 words x 32 bits, one ICG per word, registers
  pre-initialised to zero so by default no data switching occurs).  This is
  the configuration measured in Section IV and costed in Table I.
* :class:`ClockModulatedIPBlock` -- the intended end application: an existing
  commercial IP sub-module whose clock gates are modulated, so the watermark
  adds *no* load registers at all.

Both compute their activity over a whole watermark period at once:
``activity(wmark)`` takes the registered WMARK bit of every cycle and
returns the clock/data/comb toggle arrays as closed-form expressions of it.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.rtl.activity import ActivityRecord, ActivityTrace
from repro.rtl.clock_tree import ClockTree
from repro.rtl.components import CLOCK_EDGES_PER_CYCLE, CombinationalBlock, RegisterBank


class ClockModulatedBank:
    """The redundant clock-gated register bank of the test chips (Fig. 4(a)).

    Parameters
    ----------
    num_words, word_width:
        Bank organisation; the silicon uses 32 words of 32 bits (1,024
        registers).
    switching_registers:
        How many registers flip their data when clocked.  The silicon
        pre-initialises all registers to 0 so no data switching occurs
        (``0``); Table I additionally evaluates 256, 512 and 1,024.
    clock_tree_fanout:
        Maximum fanout used when building the bank's local clock tree.
    """

    def __init__(
        self,
        num_words: int = 32,
        word_width: int = 32,
        switching_registers: int = 0,
        clock_tree_fanout: int = 16,
        name: str = "cm_bank",
    ) -> None:
        self.name = name
        self.bank = RegisterBank(
            f"{name}/bank",
            num_words=num_words,
            word_width=word_width,
            switching_registers=switching_registers,
        )
        self.enable_logic = CombinationalBlock(f"{name}/enable", gate_count=num_words, activity_factor=0.05)
        # Local clock tree feeding the ICGs; it sits above the gates, so it
        # keeps toggling even when the watermark disables the words.  Its
        # contribution is small (num_words sinks).
        self.icg_clock_tree = ClockTree(f"{name}/icg_tree", num_sinks=num_words, max_fanout=clock_tree_fanout)

    # -- structural properties ---------------------------------------------

    @property
    def register_count(self) -> int:
        """Registers added by this (redundant) load implementation."""
        return self.bank.total_registers

    @property
    def switching_registers(self) -> int:
        """Registers that flip data when the watermark enables the clock."""
        return self.bank.switching_registers

    @property
    def num_words(self) -> int:
        """Number of clock-gated words (equals the number of ICGs)."""
        return self.bank.num_words

    def cell_inventory(self) -> Dict[str, int]:
        """Cell counts per library class, for leakage/area estimation."""
        return {
            "dff": self.bank.total_registers,
            "icg": self.bank.num_words,
            "clk_buf": self.icg_clock_tree.buffer_count,
            "comb": self.enable_logic.gate_count,
        }

    # -- behaviour ------------------------------------------------------------

    def activity(self, wmark: np.ndarray) -> ActivityTrace:
        """Activity of the bank over cycles whose registered WMARK is ``wmark``.

        ``wmark[t]`` is the ICG enable during cycle ``t`` (``CLK_CTRL`` of
        the stand-alone bank is tied high), starting from reset.  Each
        array selects between the idle and the enabled count with the
        enable as a whole-array mask:

        * clock: every enabled word toggles its ``word_width`` register
          clock pins and its ICG's gated root, twice each; the ICG-level
          tree above the gates keeps running every cycle;
        * data: the ``switching_registers`` flip on every enabled cycle;
        * comb: each ICG's enable latch toggles when WMARK changes (it
          powers up disabled), and the enable glue logic switches while
          enabled.
        """
        enable = np.asarray(wmark, dtype=np.int64)
        bank = self.bank
        enable_changed = np.diff(enable, prepend=0) != 0
        return ActivityTrace(
            name=self.name,
            clock_toggles=enable * (CLOCK_EDGES_PER_CYCLE * bank.num_words * (bank.word_width + 1))
            + self.icg_clock_tree.toggles_per_cycle(),
            data_toggles=enable * bank.switching_registers,
            comb_toggles=bank.num_words * enable_changed
            + enable * self.enable_logic.active_toggles,
        )

    def expected_active_activity(self) -> ActivityRecord:
        """Activity of one enabled cycle, for analytical power estimates."""
        return ActivityRecord(
            clock_toggles=(
                CLOCK_EDGES_PER_CYCLE * self.bank.total_registers
                + CLOCK_EDGES_PER_CYCLE * self.bank.num_words
                + self.icg_clock_tree.toggles_per_cycle()
            ),
            data_toggles=self.bank.switching_registers,
            comb_toggles=self.enable_logic.active_toggles,
        )


class ClockModulatedIPBlock:
    """An existing IP sub-module whose clock gates are watermark-modulated.

    This is the intended end application (Section IV, last paragraph): no
    redundant registers are added at all; the watermark reuses the
    sub-module's own ``modulated_registers`` flip-flops and their clock
    tree.  The block's functional behaviour is outside the scope of the
    power model -- what matters is that its clock tree toggles when
    ``WMARK AND CLK_CTRL`` is 1.

    Parameters
    ----------
    modulated_registers:
        Number of flip-flops below the modulated clock gate(s).
    data_activity_factor:
        Average fraction of those registers that change data per enabled
        cycle (0 for an idle sub-module, which is the paper's measurement
        scenario: the watermark is exercised while the sub-module is
        otherwise inactive).
    """

    def __init__(
        self,
        modulated_registers: int,
        data_activity_factor: float = 0.0,
        num_clock_gates: Optional[int] = None,
        clock_tree_fanout: int = 16,
        name: str = "cm_ip",
    ) -> None:
        if modulated_registers <= 0:
            raise ValueError("the modulated sub-module must contain registers")
        if not 0.0 <= data_activity_factor <= 1.0:
            raise ValueError("data activity factor must be within [0, 1]")
        self.name = name
        self.modulated_registers = modulated_registers
        self.data_activity_factor = data_activity_factor
        self.num_clock_gates = num_clock_gates or max(1, modulated_registers // 32)
        self.clock_tree = ClockTree(f"{name}/clk_tree", num_sinks=modulated_registers, max_fanout=clock_tree_fanout)

    @property
    def register_count(self) -> int:
        """Registers *added* by the watermark: none, the block already exists."""
        return 0

    def cell_inventory(self) -> Dict[str, int]:
        """Cells whose activity the watermark modulates (owned by the host IP)."""
        return {
            "dff": self.modulated_registers,
            "icg": self.num_clock_gates,
            "clk_buf": self.clock_tree.buffer_count,
        }

    def expected_active_activity(self) -> ActivityRecord:
        """Activity of one enabled cycle: the block's clock tree and data."""
        register_clocks = CLOCK_EDGES_PER_CYCLE * self.modulated_registers
        gate_clocks = CLOCK_EDGES_PER_CYCLE * self.num_clock_gates
        return ActivityRecord(
            clock_toggles=register_clocks + gate_clocks + self.clock_tree.toggles_per_cycle(),
            data_toggles=int(round(self.modulated_registers * self.data_activity_factor)),
        )

    def activity(self, wmark: np.ndarray) -> ActivityTrace:
        """Activity over cycles whose registered WMARK is ``wmark``.

        The sub-module is idle while WMARK is 0 and runs its enabled-cycle
        activity while it is 1.
        """
        enable = np.asarray(wmark, dtype=np.int64)
        active = self.expected_active_activity()
        return ActivityTrace(
            name=self.name,
            clock_toggles=enable * active.clock_toggles,
            data_toggles=enable * active.data_toggles,
            comb_toggles=enable * active.comb_toggles,
        )
