"""Test oracles of the chip background.

The library computes a chip's background power straight in watts
(:meth:`repro.soc.chip.ChipModel.background_power`): the M0 window's power
is tiled by slice copies, and each idle block adds its closed-form mean
power while its per-cycle jitter travels as the trace's Gaussian
``fluctuation_w``.  This module keeps the two computations that replaced:

* :func:`draw_idle_power` draws an idle block's per-cycle power from its
  housekeeping law, cycle by cycle: a clipped normal data activity, rare
  bursts, combinational activity at 0.6x the data activity, and toggle
  counts rounded to whole numbers.  :attr:`IdleBlock.mean_power_w` and
  :attr:`IdleBlock.fluctuation_w` are that law's mean and standard
  deviation (``tests/test_soc_multicore.py`` checks them against 10^7
  draws).
* :func:`background_power` sums the background through activity traces:
  the M0's tiled integer activity (:meth:`ChipModel.m0_activity`), costed
  and summed by
  :meth:`repro.power.estimator.PowerEstimator.combined_power_trace` with
  the idle blocks' mean power and the static leakage of the full cell
  inventory.  The library must equal its array byte for byte.
"""

import math
from typing import Dict

import numpy as np

from repro.power.estimator import (
    CLOCK_TOGGLE_ENERGY_J,
    COMB_TOGGLE_ENERGY_J,
    CYCLE_TIME_S,
    DATA_TOGGLE_ENERGY_J,
    PowerEstimator,
)
from repro.power.trace import PowerTrace
from repro.rtl.activity import ActivityTrace
from repro.rtl.components import CLOCK_EDGES_PER_CYCLE


def draw_idle_power(block, num_cycles: int, rng: np.random.Generator) -> np.ndarray:
    """Per-cycle power (W) of an idle block over ``num_cycles`` cycles.

    The ungated clock tree toggles every cycle; the data activity is a
    clipped normal draw plus occasional housekeeping bursts (timer
    rollovers, arbitration), with combinational activity at 0.6x the data
    activity.  ``rng`` is drawn, in this order, for the data activity
    (``normal``), the burst mask (``random``) and the burst sizes
    (``integers``).
    """
    if num_cycles <= 0:
        raise ValueError("num_cycles must be positive")
    data = rng.normal(block.mean_data_activity, block.data_activity_std, size=num_cycles)
    np.clip(data, 0, None, out=data)
    burst_mask = rng.random(num_cycles) < 0.002
    bursts = rng.integers(50, 400, size=num_cycles)
    np.add(data, bursts, out=data, where=burst_mask)
    comb = data * 0.6
    np.round(data, out=data)
    np.round(comb, out=comb)
    data *= DATA_TOGGLE_ENERGY_J
    data += CLOCK_EDGES_PER_CYCLE * block.clocked_registers * CLOCK_TOGGLE_ENERGY_J
    comb *= COMB_TOGGLE_ENERGY_J
    data += comb
    data /= CYCLE_TIME_S
    return data


def idle_blocks(chip) -> Dict[str, object]:
    """The chip's clocked-but-idle blocks by name: peripherals, then the A5."""
    blocks = {"peripherals": chip.peripherals}
    if chip.a5_subsystem is not None:
        blocks["a5"] = chip.a5_subsystem
    return blocks


def background_activity(chip, num_cycles: int, seed: int) -> Dict[str, ActivityTrace]:
    """Per-contributor per-cycle background activity.

    Only the M0 has one: the idle blocks contribute constants and a
    Gaussian fluctuation, no per-cycle array.
    """
    return {"m0": chip.m0_activity(num_cycles, seed)}


def background_power(chip, num_cycles: int, seed: int) -> PowerTrace:
    """The chip's background power, summed from its activity traces."""
    traces = background_activity(chip, num_cycles, seed=seed)
    blocks = idle_blocks(chip).values()
    estimator = PowerEstimator()
    trace = estimator.combined_power_trace(
        traces,
        static_w=sum(block.mean_power_w for block in blocks)
        + estimator.leakage_of(chip.system_cell_inventory()),
        name=f"{chip.name}/background",
    )
    trace.fluctuation_w = math.sqrt(sum(block.fluctuation_w ** 2 for block in blocks))
    return trace
