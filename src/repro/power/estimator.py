"""Activity-based power estimation (the PrimeTime-PX analogue).

The estimator consumes per-component activity traces (the watermark's
closed-form periodic activity, the SoC's simulated workload window) and
produces:

* per-component dynamic/static/total power figures (Table I style),
* per-cycle power traces that feed the measurement chain and ultimately the
  CPA detector.
"""

from __future__ import annotations

from typing import Mapping, Optional

import numpy as np

from repro.power.library import CellLibrary, TSMC65LP_LIKE
from repro.power.models import DynamicPowerModel, OperatingPoint, StaticPowerModel
from repro.power.trace import PowerTrace
from repro.rtl.activity import ActivityRecord, ActivityTrace
from repro.rtl.signals import Clock


class PowerEstimator:
    """Estimates power from switching activity using a cell library.

    Parameters
    ----------
    library:
        Cell library (defaults to the calibrated 65 nm-class library).
    operating_point:
        Clock, supply voltage and temperature.
    """

    def __init__(
        self,
        operating_point: OperatingPoint,
        library: CellLibrary = TSMC65LP_LIKE,
    ) -> None:
        self.library = library
        self.operating_point = operating_point
        self.dynamic_model = DynamicPowerModel(library, operating_point)
        self.static_model = StaticPowerModel(library, operating_point)

    @classmethod
    def at_nominal(cls, frequency_hz: float = 10e6, voltage_v: float = 1.2) -> "PowerEstimator":
        """Estimator at the paper's nominal operating point (10 MHz, 1.2 V)."""
        clock = Clock("clk", frequency_hz)
        return cls(OperatingPoint(clock=clock, voltage_v=voltage_v))

    # -- component-level reporting ---------------------------------------

    def cycle_power(self, cell_type: str, activity: ActivityRecord) -> float:
        """Average power during a single cycle with the given activity."""
        energy = self.dynamic_model.cycle_energy(cell_type, activity)
        return energy / self.operating_point.cycle_time_s

    # -- trace-level estimation -------------------------------------------

    def power_trace(
        self,
        trace: ActivityTrace,
        cell_type: str = "dff",
        static_w: float = 0.0,
    ) -> PowerTrace:
        """Per-cycle power trace of one activity trace.

        ``static_w`` is added to every cycle (leakage is activity
        independent at this granularity).
        """
        per_cycle = self.dynamic_model.power_per_cycle(cell_type, trace) + static_w
        return PowerTrace(
            name=trace.name,
            clock=self.operating_point.clock,
            power_w=per_cycle,
            voltage_v=self.operating_point.voltage_v,
        )

    def combined_power_trace(
        self,
        traces: Mapping[str, ActivityTrace],
        cell_types: Optional[Mapping[str, str]] = None,
        static_w: float = 0.0,
        name: str = "total",
    ) -> PowerTrace:
        """Sum per-cycle power over several activity traces.

        ``cell_types`` maps trace name to library cell class; traces without
        a mapping default to the flip-flop class.
        """
        if not traces:
            raise ValueError("no activity traces supplied")
        lengths = {len(t) for t in traces.values()}
        if len(lengths) != 1:
            raise ValueError(f"activity traces have mismatched lengths: {sorted(lengths)}")
        num_cycles = lengths.pop()
        total = np.zeros(num_cycles, dtype=np.float64)
        for trace_name, trace in traces.items():
            cell_type = (cell_types or {}).get(trace_name, "dff")
            total += self.dynamic_model.power_per_cycle(cell_type, trace)
        total += static_w
        return PowerTrace(
            name=name,
            clock=self.operating_point.clock,
            power_w=total,
            voltage_v=self.operating_point.voltage_v,
        )

    # -- convenience -------------------------------------------------------

    def leakage_of(self, cell_counts: Mapping[str, int], active_fraction: float = 0.0) -> float:
        """Leakage power of a cell inventory."""
        return self.static_model.total_leakage(dict(cell_counts), active_fraction)

    def per_register_clock_power(self) -> float:
        """Dynamic power of one register's clock buffer toggling every cycle.

        At the nominal operating point this reproduces the paper's 1.476 uW.
        """
        activity = ActivityRecord(clock_toggles=2)
        return self.cycle_power("dff", activity)

    def per_register_data_power(self) -> float:
        """Dynamic power of one register whose content flips every cycle.

        At the nominal operating point this reproduces the paper's 1.126 uW.
        """
        activity = ActivityRecord(data_toggles=1)
        return self.cycle_power("dff", activity)
