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

from repro.rtl.activity import ActivityTrace
from repro.rtl.components import CLOCK_EDGES_PER_CYCLE, CombinationalBlock, clock_tree_buffers


class ClockModulatedBank:
    """The redundant clock-gated register bank of the test chips (Fig. 4(a)).

    The bank holds ``num_words`` words of ``word_width`` flip-flops, each
    word behind its own integrated clock gate (ICG) whose enable is the
    watermark bit.

    Parameters
    ----------
    num_words, word_width:
        Bank organisation; the silicon uses 32 words of 32 bits (1,024
        registers).
    switching_registers:
        How many registers flip their data when clocked.  The silicon
        pre-initialises all registers to 0 so no data switching occurs
        (``0``); Table I additionally evaluates 256, 512 and 1,024.
    """

    def __init__(
        self,
        num_words: int = 32,
        word_width: int = 32,
        switching_registers: int = 0,
        name: str = "cm_bank",
    ) -> None:
        if num_words <= 0 or word_width <= 0:
            raise ValueError("register bank dimensions must be positive")
        total = num_words * word_width
        if not 0 <= switching_registers <= total:
            raise ValueError(
                f"switching_registers must be within [0, {total}], got {switching_registers}"
            )
        self.name = name
        self.num_words = num_words
        self.word_width = word_width
        self.switching_registers = switching_registers
        self.enable_logic = CombinationalBlock(f"{name}/enable", gate_count=num_words, activity_factor=0.05)
        # Local clock tree feeding the ICGs; it sits above the gates, so it
        # keeps toggling even when the watermark disables the words.  Its
        # contribution is small (num_words sinks).
        self.icg_tree_buffers = clock_tree_buffers(num_words)

    @property
    def register_count(self) -> int:
        """Registers added by this (redundant) load implementation."""
        return self.num_words * self.word_width

    def cell_inventory(self) -> Dict[str, int]:
        """Cell counts per library class, for leakage/area estimation."""
        return {
            "dff": self.register_count,
            "icg": self.num_words,
            "clk_buf": self.icg_tree_buffers,
            "comb": self.enable_logic.gate_count,
        }

    def activity(self, wmark: np.ndarray) -> ActivityTrace:
        """Activity of the bank over cycles whose registered WMARK is ``wmark``.

        ``wmark[t]`` is the ICG enable during cycle ``t`` (``CLK_CTRL`` of
        the stand-alone bank is tied high), starting from reset.  Each
        array selects between the idle and the enabled count with the
        enable as a whole-array mask:

        * clock: every enabled word toggles its ``word_width`` register
          clock pins and its ICG's gated root, twice each; the ICG-level
          tree above the gates (its buffers and the ICG clock pins) keeps
          running every cycle;
        * data: the ``switching_registers`` flip on every enabled cycle;
        * comb: each ICG's enable latch toggles when WMARK changes (it
          powers up disabled), and the enable glue logic switches while
          enabled.
        """
        enable = np.asarray(wmark, dtype=np.int64)
        enable_changed = np.diff(enable, prepend=0) != 0
        icg_tree = CLOCK_EDGES_PER_CYCLE * (self.num_words + self.icg_tree_buffers)
        return ActivityTrace(
            name=self.name,
            clock_toggles=enable * (CLOCK_EDGES_PER_CYCLE * self.num_words * (self.word_width + 1))
            + icg_tree,
            data_toggles=enable * self.switching_registers,
            comb_toggles=self.num_words * enable_changed
            + enable * self.enable_logic.active_toggles,
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
        self.tree_buffers = clock_tree_buffers(modulated_registers)

    @property
    def register_count(self) -> int:
        """Registers *added* by the watermark: none, the block already exists."""
        return 0

    def cell_inventory(self) -> Dict[str, int]:
        """Cells whose activity the watermark modulates (owned by the host IP)."""
        return {
            "dff": self.modulated_registers,
            "icg": self.num_clock_gates,
            "clk_buf": self.tree_buffers,
        }

    def activity(self, wmark: np.ndarray) -> ActivityTrace:
        """Activity over cycles whose registered WMARK is ``wmark``.

        The sub-module is idle while WMARK is 0.  While it is 1 its
        register clock pins, its gates' roots and its clock tree (the
        buffers and the sink pins below them) toggle twice per cycle, and
        ``data_activity_factor`` of its registers flip.
        """
        enable = np.asarray(wmark, dtype=np.int64)
        registers = self.modulated_registers
        # Register pins, gate roots, then the tree: its buffers and its sink
        # pins (the register pins once more), two edges each.
        clocks = CLOCK_EDGES_PER_CYCLE * (
            registers + self.num_clock_gates + self.tree_buffers + registers
        )
        return ActivityTrace(
            name=self.name,
            clock_toggles=enable * clocks,
            data_toggles=enable * int(round(registers * self.data_activity_factor)),
            comb_toggles=np.zeros_like(enable),
        )
