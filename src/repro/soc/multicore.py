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
:data:`A5_SUBSYSTEM` and :data:`PERIPHERALS`.

An idle block's per-cycle power is i.i.d. Gaussian with the mean
(:attr:`IdleBlock.mean_power_w`) and standard deviation
(:attr:`IdleBlock.fluctuation_w`) of its housekeeping law, both in closed
form.  The chip adds the mean to its background and hands the
fluctuation to the acquisition, where it joins the chain's Gaussian
noise, so no per-cycle idle power is ever drawn.  The per-cycle draw of
the housekeeping law itself is the test oracle
``tests/background_oracle.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

from repro.power.estimator import (
    CLOCK_TOGGLE_ENERGY_J,
    COMB_TOGGLE_ENERGY_J,
    CYCLE_TIME_S,
    DATA_TOGGLE_ENERGY_J,
)
from repro.rtl.components import CLOCK_EDGES_PER_CYCLE

#: Probability that a cycle carries a housekeeping burst.
_BURST_PROBABILITY = 0.002
#: Smallest and largest burst size in data toggles (uniform, inclusive).
_BURST_TOGGLES = (50, 399)
#: Combinational toggles per data toggle.
_COMB_PER_DATA_TOGGLE = 0.6


def _data_activity_moments(mean: float, std: float) -> Tuple[float, float]:
    """Mean and variance of one cycle's data toggles.

    A cycle toggles ``max(X, 0) + B * U`` flip-flops, with ``X`` normal of
    the given mean and standard deviation, ``B`` a Bernoulli burst flag and
    ``U`` the uniform burst size.  For the clipped normal, with ``t = mean
    / std``, ``E[max(X, 0)] = mean Phi(t) + std phi(t)`` and ``E[max(X,
    0)^2] = (mean^2 + std^2) Phi(t) + mean std phi(t)``.
    """
    if std == 0.0:
        clipped_mean = max(mean, 0.0)
        clipped_square = clipped_mean * clipped_mean
    else:
        t = mean / std
        cdf = 0.5 * math.erfc(-t / math.sqrt(2.0))
        pdf = math.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi)
        clipped_mean = mean * cdf + std * pdf
        clipped_square = (mean * mean + std * std) * cdf + mean * std * pdf
    low, high = _BURST_TOGGLES
    sizes = high - low + 1
    burst_mean = (low + high) / 2.0
    burst_square = burst_mean * burst_mean + (sizes * sizes - 1) / 12.0
    burst = _BURST_PROBABILITY * burst_mean
    variance = (
        clipped_square - clipped_mean * clipped_mean
        + _BURST_PROBABILITY * burst_square - burst * burst
    )
    return clipped_mean + burst, variance


@dataclass(frozen=True)
class IdleBlock:
    """An idle-but-clocked block: its flip-flops and housekeeping activity.

    ``clocked_registers`` of the ``register_count`` flip-flops are not
    clock-gated while the block idles, so its clock tree toggles every
    cycle.  The data activity per cycle is a normal of the given mean and
    standard deviation clipped at zero, plus rare housekeeping bursts
    (timer rollovers, arbitration) of 50-399 toggles in 0.2% of the
    cycles; the combinational activity is 0.6 times the data activity.
    """

    register_count: int
    clocked_registers: int
    mean_data_activity: float
    data_activity_std: float

    @property
    def _watts_per_data_toggle(self) -> float:
        """Power of one data toggle per cycle, with its combinational share."""
        return (DATA_TOGGLE_ENERGY_J + _COMB_PER_DATA_TOGGLE * COMB_TOGGLE_ENERGY_J) / CYCLE_TIME_S

    @property
    def mean_power_w(self) -> float:
        """Mean per-cycle power (W): the ungated clock tree plus the mean activity."""
        data_mean, _ = _data_activity_moments(self.mean_data_activity, self.data_activity_std)
        clock_w = CLOCK_EDGES_PER_CYCLE * self.clocked_registers * CLOCK_TOGGLE_ENERGY_J / CYCLE_TIME_S
        return clock_w + data_mean * self._watts_per_data_toggle

    @property
    def fluctuation_w(self) -> float:
        """Standard deviation (W) of the per-cycle power around its mean."""
        _, variance = _data_activity_moments(self.mean_data_activity, self.data_activity_std)
        return math.sqrt(variance) * self._watts_per_data_toggle


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
