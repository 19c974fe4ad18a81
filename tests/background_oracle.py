"""Test oracle: the chip background computed through activity traces.

The library computes a chip's background power straight in watts
(:meth:`repro.soc.chip.ChipModel.background_power`): the M0 window's power
is tiled by slice copies and the idle blocks draw their power in place.
This module keeps the path it replaces: one integer activity trace per
contributor (``"m0"``, ``"peripherals"`` and, on chip II, ``"a5"``), each
drawn from the background seed's stream of that name, summed through
:meth:`repro.power.estimator.PowerEstimator.combined_power_trace` with the
static leakage of the full cell inventory.  The library must equal it byte
for byte.
"""

from typing import Dict, Optional

import numpy as np

from repro.core.seeds import stream
from repro.power.estimator import PowerEstimator
from repro.power.trace import PowerTrace
from repro.rtl.activity import ActivityTrace
from repro.rtl.components import CLOCK_EDGES_PER_CYCLE


def idle_activity_trace(
    name: str, block, num_cycles: int, rng: np.random.Generator
) -> ActivityTrace:
    """Per-cycle activity of an idle-but-clocked block over ``num_cycles`` cycles."""
    if num_cycles <= 0:
        raise ValueError("num_cycles must be positive")
    clock = np.full(
        num_cycles, CLOCK_EDGES_PER_CYCLE * block.clocked_registers, dtype=np.int64
    )
    mean = block.mean_data_activity
    std = block.data_activity_std
    data = np.clip(rng.normal(mean, std, size=num_cycles), 0, None)
    # Occasional housekeeping bursts (timer rollovers, arbitration).
    burst_mask = rng.random(num_cycles) < 0.002
    data = data + burst_mask * rng.integers(50, 400, size=num_cycles)
    comb = data * 0.6
    return ActivityTrace(
        name=name,
        clock_toggles=clock,
        data_toggles=np.round(data).astype(np.int64),
        comb_toggles=np.round(comb).astype(np.int64),
    )


def background_activity(
    chip, num_cycles: int, seed: Optional[int] = None, use_cache: bool = True
) -> Dict[str, ActivityTrace]:
    """Per-contributor background activity (everything except the watermark)."""
    seed = chip.seed if seed is None else seed
    traces = {
        "m0": chip.m0_activity(num_cycles, seed=seed, use_cache=use_cache),
        "peripherals": idle_activity_trace(
            "peripherals", chip.peripherals, num_cycles, stream(seed, "peripherals")
        ),
    }
    if chip.a5_subsystem is not None:
        traces["a5"] = idle_activity_trace(
            "a5", chip.a5_subsystem, num_cycles, stream(seed, "a5")
        )
    return traces


def background_power(
    chip, num_cycles: int, seed: Optional[int] = None, use_cache: bool = True
) -> PowerTrace:
    """The chip's background power, summed from its activity traces."""
    traces = background_activity(chip, num_cycles, seed=seed, use_cache=use_cache)
    estimator = PowerEstimator()
    return estimator.combined_power_trace(
        traces,
        static_w=estimator.leakage_of(chip.system_cell_inventory()),
        name=f"{chip.name}/background",
    )
