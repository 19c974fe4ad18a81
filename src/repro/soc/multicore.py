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
(timers, snoop logic, bus arbiters).  The traces are generated vectorised
from a generator the chip hands in, so experiments are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.rtl.activity import ActivityTrace
from repro.rtl.components import CLOCK_EDGES_PER_CYCLE
from repro.soc.cache import CacheConfig


@dataclass(frozen=True)
class IdleBlockParameters:
    """Structural parameters of an idle-but-clocked block."""

    name: str
    register_count: int
    ungated_fraction: float
    mean_data_activity: float
    data_activity_std: float

    def __post_init__(self) -> None:
        if self.register_count <= 0:
            raise ValueError("register count must be positive")
        if not 0.0 <= self.ungated_fraction <= 1.0:
            raise ValueError("ungated fraction must be within [0, 1]")
        if self.mean_data_activity < 0 or self.data_activity_std < 0:
            raise ValueError("activity statistics must be non-negative")


class _IdleActivitySource:
    """Common trace generation for idle-but-clocked blocks."""

    def __init__(self, parameters: IdleBlockParameters) -> None:
        self.parameters = parameters

    @property
    def name(self) -> str:
        """Block name."""
        return self.parameters.name

    @property
    def register_count(self) -> int:
        """Total flip-flop count of the block."""
        return self.parameters.register_count

    @property
    def clocked_registers(self) -> int:
        """Registers whose clock is not gated while the block idles."""
        return int(round(self.parameters.register_count * self.parameters.ungated_fraction))

    def activity_trace(self, num_cycles: int, rng: np.random.Generator) -> ActivityTrace:
        """Per-cycle activity of the idle block over ``num_cycles`` cycles."""
        if num_cycles <= 0:
            raise ValueError("num_cycles must be positive")
        clock = np.full(
            num_cycles, CLOCK_EDGES_PER_CYCLE * self.clocked_registers, dtype=np.int64
        )
        mean = self.parameters.mean_data_activity
        std = self.parameters.data_activity_std
        data = np.clip(rng.normal(mean, std, size=num_cycles), 0, None)
        # Occasional housekeeping bursts (timer rollovers, arbitration).
        burst_mask = rng.random(num_cycles) < 0.002
        data = data + burst_mask * rng.integers(50, 400, size=num_cycles)
        comb = data * 0.6
        return ActivityTrace(
            name=self.name,
            clock_toggles=clock,
            data_toggles=np.round(data).astype(np.int64),
            comb_toggles=np.round(comb).astype(np.int64),
        )


class IdleDualCoreA5Like(_IdleActivitySource):
    """A clocked-but-idle dual-core application processor with caches.

    Parameters approximate a dual Cortex-A5 class subsystem: tens of
    thousands of flip-flops per core plus L1 caches.  Only the ungated
    fraction of the clock tree toggles while idle, but that alone is an
    order of magnitude more background clock power than the microcontroller
    core -- which is why the chip II correlation peak in the paper is lower
    than chip I's.
    """

    def __init__(
        self,
        registers_per_core: int = 22_000,
        num_cores: int = 2,
        cache_config: Optional[CacheConfig] = None,
        ungated_fraction: float = 0.18,
        name: str = "a5_subsystem",
    ) -> None:
        if registers_per_core <= 0 or num_cores <= 0:
            raise ValueError("core dimensions must be positive")
        self.num_cores = num_cores
        self.registers_per_core = registers_per_core
        self.cache_config = cache_config or CacheConfig(size_bytes=16 * 1024)
        cache_registers = 2 * num_cores * (self.cache_config.num_lines * (self.cache_config.tag_bits + 2))
        total_registers = registers_per_core * num_cores + cache_registers
        super().__init__(
            IdleBlockParameters(
                name=name,
                register_count=total_registers,
                ungated_fraction=ungated_fraction,
                mean_data_activity=220.0,
                data_activity_std=140.0,
            )
        )


class BackgroundIPBlocks(_IdleActivitySource):
    """The "numerous commercial IP blocks" sharing the chip I SoC.

    Peripherals (timers, UARTs, DMA, memory controllers) that are clocked
    and occasionally active while the Cortex-M0 runs Dhrystone.
    """

    def __init__(
        self,
        register_count: int = 6_000,
        ungated_fraction: float = 0.35,
        name: str = "soc_peripherals",
    ) -> None:
        super().__init__(
            IdleBlockParameters(
                name=name,
                register_count=register_count,
                ungated_fraction=ungated_fraction,
                mean_data_activity=90.0,
                data_activity_std=60.0,
            )
        )
