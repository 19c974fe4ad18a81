"""Background-noise contributors that are clocked but not simulated in detail.

Chip II of the paper contains a dual-core Cortex-A5 with caches; during the
measurements the A5 executes no program, yet both cores and the on-chip bus
are clocked and "account for a significant portion of background noise in
the system".  Chip I likewise contains "numerous commercial IP blocks"
besides the Cortex-M0.

Neither the A5 nor the commercial peripherals can be modelled at the
instruction level (no RTL is available, and they are idle anyway), so they
are represented by structural activity models: a register/clock-tree
inventory whose non-gated fraction toggles every cycle, plus a stochastic
per-cycle component representing asynchronous housekeeping activity
(timers, snoop logic, bus arbiters).  The paper's chips have exactly two
such blocks, so they are two fixed :class:`IdleBlock` parameter sets,
:data:`A5_SUBSYSTEM` and :data:`PERIPHERALS`.  Their per-cycle power is
drawn vectorised, straight in watts, from a generator the chip hands in,
so experiments are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.power.estimator import (
    CLOCK_TOGGLE_ENERGY_J,
    COMB_TOGGLE_ENERGY_J,
    CYCLE_TIME_S,
    DATA_TOGGLE_ENERGY_J,
)
from repro.rtl.components import CLOCK_EDGES_PER_CYCLE


@dataclass(frozen=True)
class IdleBlock:
    """An idle-but-clocked block: its flip-flops and housekeeping activity.

    ``clocked_registers`` of the ``register_count`` flip-flops are not
    clock-gated while the block idles; the data activity per cycle is a
    clipped normal of the given mean and standard deviation.
    """

    register_count: int
    clocked_registers: int
    mean_data_activity: float
    data_activity_std: float

    def draw_power(self, num_cycles: int, rng: np.random.Generator) -> np.ndarray:
        """Per-cycle power (W) of the idle block over ``num_cycles`` cycles.

        The ungated clock tree toggles every cycle; the data activity is a
        clipped normal draw plus occasional housekeeping bursts (timer
        rollovers, arbitration), with combinational activity at 0.6x the
        data activity.  ``rng`` is drawn, in this order, for the data
        activity (``normal``), the burst mask (``random``) and the burst
        sizes (``integers``); the toggle counts are converted to watts in
        place with flip-flop toggle energies.
        """
        if num_cycles <= 0:
            raise ValueError("num_cycles must be positive")
        data = rng.normal(self.mean_data_activity, self.data_activity_std, size=num_cycles)
        np.clip(data, 0, None, out=data)
        burst_mask = rng.random(num_cycles) < 0.002
        bursts = rng.integers(50, 400, size=num_cycles)
        np.add(data, bursts, out=data, where=burst_mask)
        comb = data * 0.6
        # Toggle counts are whole numbers.  Rounding in float64 gives the
        # same exact integers an int64 count would.
        np.round(data, out=data)
        np.round(comb, out=comb)
        data *= DATA_TOGGLE_ENERGY_J
        data += CLOCK_EDGES_PER_CYCLE * self.clocked_registers * CLOCK_TOGGLE_ENERGY_J
        comb *= COMB_TOGGLE_ENERGY_J
        data += comb
        data /= CYCLE_TIME_S
        return data


#: Chip II's clocked-but-idle dual-core Cortex-A5-class subsystem: two cores
#: of 22,000 flip-flops each plus, per core, 16 KiB 4-way L1 instruction and
#: data caches of 32-byte lines (512 lines, each a 20-bit tag plus 2 state
#: bits), 89,056 flip-flops in all.  Only 18% of its clock tree stays
#: ungated while idle, but that alone is an order of magnitude more
#: background clock power than the microcontroller core -- which is why
#: the chip II correlation peak in the paper is lower than chip I's.
A5_SUBSYSTEM = IdleBlock(
    register_count=89_056,
    clocked_registers=16_030,
    mean_data_activity=220.0,
    data_activity_std=140.0,
)

#: The "numerous commercial IP blocks" sharing the SoC with the Cortex-M0
#: on both chips: timers, UARTs, DMA and memory controllers that are
#: clocked (35% of 6,000 flip-flops ungated) and occasionally active while
#: the core runs Dhrystone.
PERIPHERALS = IdleBlock(
    register_count=6_000,
    clocked_registers=2_100,
    mean_data_activity=90.0,
    data_activity_std=60.0,
)
