"""Baseline load circuit (the state of the art the paper improves on).

In the reference power-watermark architecture (Fig. 1(a); Becker et al.
HOST'10, Ziener et al. FPT'06) the watermark power pattern is produced by a
dedicated *load circuit*: a bank of shift registers initialised with the
alternating ``1010...`` pattern whose shift-enable is driven by ``WMARK``.
While ``WMARK`` is high every register bit flips every cycle, maximising
dynamic power; while it is low the circuit is idle.

The load circuit is pure overhead -- its size scales with the host system
because the watermark power must stay detectable above the system's
background noise -- and that is exactly the cost the clock-modulation
technique removes.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.power.estimator import (
    PAPER_CLOCK_BUFFER_POWER_W,
    PAPER_DATA_SWITCHING_POWER_W,
)
from repro.rtl.activity import ActivityTrace
from repro.rtl.components import CLOCK_EDGES_PER_CYCLE


def registers_for_load_power(
    load_power_w: float,
    clock_buffer_power_w: float = PAPER_CLOCK_BUFFER_POWER_W,
    data_switching_power_w: float = PAPER_DATA_SWITCHING_POWER_W,
) -> int:
    """Number of load-circuit registers needed for a target dynamic power.

    This is the sizing rule of Table II:

    ``N = P_load / (P_data + P_clock) = P_load / (1.126 uW + 1.476 uW)``

    because every register in the load circuit both flips its data and
    toggles its clock buffer each enabled cycle.
    """
    if load_power_w <= 0:
        raise ValueError("load power must be positive")
    per_register = clock_buffer_power_w + data_switching_power_w
    return int(load_power_w / per_register)


class LoadCircuit:
    """A bank of shift registers acting as the watermark load.

    The ``num_registers`` flip-flops form words of ``word_width`` bits, the
    last word holding the remainder.  Each word is initialised with the
    alternating ``1010...`` pattern and rotates by one position per
    enabled cycle.

    Parameters
    ----------
    num_registers:
        Total number of flip-flops in the load circuit.
    word_width:
        Width of each shift-register word (8 bits in the paper's Fig. 2
        illustration, 16 bits per LUT in the FPGA prior work).
    name:
        Instance name.
    """

    def __init__(self, num_registers: int = 576, word_width: int = 8, name: str = "load") -> None:
        if num_registers <= 0:
            raise ValueError("load circuit needs at least one register")
        if word_width <= 0:
            raise ValueError("word width must be positive")
        self.name = name
        self.word_width = word_width
        self.num_registers = num_registers

    # -- structural properties ---------------------------------------------

    @property
    def register_count(self) -> int:
        """Total number of flip-flops."""
        return self.num_registers

    def cell_inventory(self) -> Dict[str, int]:
        """Cell counts per library class."""
        return {"dff": self.num_registers}

    # -- behaviour ------------------------------------------------------------

    def activity(self, wmark: np.ndarray) -> ActivityTrace:
        """Activity over cycles whose registered WMARK is ``wmark``.

        When ``WMARK`` is 1 every word shifts and all clock pins toggle.  A
        rotation flips bit ``i`` exactly when it differs from its cyclic
        neighbour, and rotating preserves the number of such neighbour
        pairs, so with the alternating initialisation every shift flips
        all bits of an even-width word and all but one of an odd-width
        word.  When ``WMARK`` is 0 the shift-enable is low and the circuit
        is idle.
        """
        enable = np.asarray(wmark, dtype=np.int64)
        full_words, last = divmod(self.num_registers, self.word_width)
        width = self.word_width
        toggles_per_shift = full_words * (width - width % 2) + last - last % 2
        return ActivityTrace(
            name=self.name,
            clock_toggles=enable * (CLOCK_EDGES_PER_CYCLE * self.num_registers),
            data_toggles=enable * toggles_per_shift,
            comb_toggles=np.zeros(len(enable), dtype=np.int64),
        )
