"""Activity-based power estimation (the PrimeTime-PX analogue).

The paper characterises its flow at one operating point -- 10 MHz, 1.2 V,
TSMC 65 nm low-leakage -- and publishes two per-register figures there
(Section V):

* average dynamic power of a single register's clock buffer: **1.476 uW**
* average dynamic power of data switching in a single register: **1.126 uW**

Converted to per-transition energies of a flip-flop:

* its clock pin toggles twice per cycle, so each clock transition costs
  ``1.476 uW / 10 MHz / 2 = 73.8 fJ``;
* its content flips at most once per cycle in the load circuit, so each
  data toggle costs ``1.126 uW / 10 MHz = 112.6 fJ``;
* a combinational (glue-logic) toggle costs half a data toggle.

Every dynamic figure of Tables I/II and Figs. 3, 5 and 6 is costed with
these three energies.  Leakage is a per-cell-class table chosen so that the
1,024-register + 32-ICG redundant bank leaks ~0.40 uW, matching the static
column of Table I.

The estimator consumes per-component activity traces (the watermark's
closed-form periodic activity, the SoC's simulated workload window) and
produces per-cycle power traces for the measurement chain and the average
dynamic and static figures of Table I.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.power.trace import PowerTrace
from repro.rtl.activity import ActivityTrace
from repro.rtl.components import CLOCK_EDGES_PER_CYCLE

#: Paper-published per-register dynamic powers at 10 MHz / 1.2 V.
PAPER_CLOCK_BUFFER_POWER_W = 1.476e-6
PAPER_DATA_SWITCHING_POWER_W = 1.126e-6

#: The test chips' clock and the duration of one of its cycles.
CLOCK_FREQUENCY_HZ = 10e6
CYCLE_TIME_S = 1.0 / CLOCK_FREQUENCY_HZ
#: The test chips' supply voltage.
SUPPLY_VOLTAGE_V = 1.2

#: Flip-flop energy per clock-pin, data and combinational toggle (joule).
CLOCK_TOGGLE_ENERGY_J = PAPER_CLOCK_BUFFER_POWER_W / CLOCK_FREQUENCY_HZ / 2.0
DATA_TOGGLE_ENERGY_J = PAPER_DATA_SWITCHING_POWER_W / CLOCK_FREQUENCY_HZ
COMB_TOGGLE_ENERGY_J = DATA_TOGGLE_ENERGY_J * 0.5

#: Leakage power (W) of one cell per class; unknown classes leak as ``comb``.
LEAKAGE_W: Mapping[str, float] = {
    "dff": 0.38e-9,
    "icg": 0.45e-9,
    "clk_buf": 0.25e-9,
    "comb": 0.15e-9,
    "sram": 0.05e-9,
}

#: Fractional leakage increase of a cell whose state toggles all the time
#: (the tiny rise of Table I's static column with more switching registers).
STATE_DEPENDENCE = 0.01


class PowerEstimator:
    """Estimates flip-flop power from switching activity at 10 MHz / 1.2 V."""

    @staticmethod
    def _cycle_energy(trace: ActivityTrace) -> np.ndarray:
        """Per-cycle energy (J) of an activity trace."""
        return (
            trace.clock_toggles * CLOCK_TOGGLE_ENERGY_J
            + trace.data_toggles * DATA_TOGGLE_ENERGY_J
            + trace.comb_toggles * COMB_TOGGLE_ENERGY_J
        )

    def power_per_cycle(self, trace: ActivityTrace) -> np.ndarray:
        """Per-cycle average power in watts of an activity trace."""
        return self._cycle_energy(trace) / CYCLE_TIME_S

    def average_power(self, trace: ActivityTrace) -> float:
        """Average dynamic power in watts over an activity trace."""
        if len(trace) == 0:
            return 0.0
        return float(np.mean(self._cycle_energy(trace))) / CYCLE_TIME_S

    def combined_power_trace(
        self,
        traces: Mapping[str, ActivityTrace],
        static_w: float = 0.0,
        name: str = "total",
    ) -> PowerTrace:
        """Sum per-cycle power over several activity traces, plus ``static_w``."""
        if not traces:
            raise ValueError("no activity traces supplied")
        lengths = {len(t) for t in traces.values()}
        if len(lengths) != 1:
            raise ValueError(f"activity traces have mismatched lengths: {sorted(lengths)}")
        total = np.zeros(lengths.pop(), dtype=np.float64)
        for trace in traces.values():
            total += self.power_per_cycle(trace)
        total += static_w
        return PowerTrace(name=name, power_w=total)

    def leakage_of(self, cell_counts: Mapping[str, int], active_fraction: float = 0.0) -> float:
        """Leakage power of a cell inventory given as ``{cell_type: count}``.

        ``active_fraction`` is the fraction of the cells whose state is
        exercised; it adds the small state-dependent component.
        """
        if not 0.0 <= active_fraction <= 1.0:
            raise ValueError("active_fraction must be within [0, 1]")
        total = 0.0
        for cell_type, count in cell_counts.items():
            if count < 0:
                raise ValueError("cell counts must be non-negative")
            leakage = LEAKAGE_W.get(cell_type, LEAKAGE_W["comb"])
            total += leakage * (1.0 + STATE_DEPENDENCE * active_fraction) * count
        return total

    def per_register_clock_power(self) -> float:
        """Dynamic power of one register's clock buffer toggling every cycle.

        Reproduces the paper's 1.476 uW.
        """
        return CLOCK_EDGES_PER_CYCLE * CLOCK_TOGGLE_ENERGY_J / CYCLE_TIME_S

    def per_register_data_power(self) -> float:
        """Dynamic power of one register whose content flips every cycle.

        Reproduces the paper's 1.126 uW.
        """
        return DATA_TOGGLE_ENERGY_J / CYCLE_TIME_S
