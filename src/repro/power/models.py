"""Dynamic and static power models.

Dynamic power follows the usual CMOS switching-energy model: every node
transition dissipates ``E = 1/2 * C * V^2`` and the library characterises
``E`` per cell class at a reference voltage, so energy scales with
``(V / V_ref)^2``.  Static power is a per-cell leakage value, essentially
independent of activity (the paper's Table I shows sub-uW leakage for the
whole redundant bank).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.power.library import CellCharacteristics, CellLibrary, REFERENCE_VOLTAGE_V
from repro.rtl.activity import ActivityRecord, ActivityTrace
from repro.rtl.signals import Clock


def scale_energy_with_voltage(energy_j: float, voltage_v: float, reference_v: float = REFERENCE_VOLTAGE_V) -> float:
    """Scale a switching energy from the reference voltage to ``voltage_v``.

    Switching energy is proportional to the square of the supply voltage.
    """
    if voltage_v <= 0 or reference_v <= 0:
        raise ValueError("voltages must be positive")
    return energy_j * (voltage_v / reference_v) ** 2


@dataclass(frozen=True)
class OperatingPoint:
    """Supply voltage, clock and temperature at which power is evaluated."""

    clock: Clock
    voltage_v: float = REFERENCE_VOLTAGE_V
    temperature_c: float = 25.0

    def __post_init__(self) -> None:
        if self.voltage_v <= 0:
            raise ValueError("supply voltage must be positive")

    @property
    def cycle_time_s(self) -> float:
        """Duration of one clock cycle."""
        return self.clock.period_s


class DynamicPowerModel:
    """Converts switching activity into energy and average power."""

    def __init__(self, library: CellLibrary, operating_point: OperatingPoint) -> None:
        self.library = library
        self.operating_point = operating_point

    def toggle_energies(self, cell_type: str) -> Tuple[float, float, float]:
        """Clock, data and combinational toggle energies (J) at the supply voltage."""
        cell = self.library.cell(cell_type)
        v = self.operating_point.voltage_v
        return (
            scale_energy_with_voltage(cell.clock_toggle_energy_j, v),
            scale_energy_with_voltage(cell.data_toggle_energy_j, v),
            scale_energy_with_voltage(cell.comb_toggle_energy_j, v),
        )

    def cycle_energy(self, cell_type: str, activity: ActivityRecord) -> float:
        """Energy in joules dissipated by one component in one cycle."""
        e_clk, e_data, e_comb = self.toggle_energies(cell_type)
        return (
            activity.clock_toggles * e_clk
            + activity.data_toggles * e_data
            + activity.comb_toggles * e_comb
        )

    def cycle_energy_array(self, cell_type: str, trace: ActivityTrace) -> np.ndarray:
        """Vector of per-cycle energies (joules) for an activity trace."""
        e_clk, e_data, e_comb = self.toggle_energies(cell_type)
        return (
            trace.clock_toggles * e_clk
            + trace.data_toggles * e_data
            + trace.comb_toggles * e_comb
        ).astype(np.float64)

    def average_power(self, cell_type: str, trace: ActivityTrace) -> float:
        """Average dynamic power in watts over an activity trace."""
        if len(trace) == 0:
            return 0.0
        energies = self.cycle_energy_array(cell_type, trace)
        return float(np.mean(energies)) / self.operating_point.cycle_time_s

    def power_per_cycle(self, cell_type: str, trace: ActivityTrace) -> np.ndarray:
        """Per-cycle average power in watts for an activity trace."""
        return self.cycle_energy_array(cell_type, trace) / self.operating_point.cycle_time_s


class StaticPowerModel:
    """Leakage power model with a mild temperature dependence.

    Leakage roughly doubles every 25 degC above the characterisation point;
    a small state-dependence term models the (tiny) increase observed in
    Table I when more registers hold alternating data.
    """

    #: Leakage doubling interval in degrees Celsius.
    TEMPERATURE_DOUBLING_C = 25.0
    #: Reference temperature of the library characterisation.
    REFERENCE_TEMPERATURE_C = 25.0
    #: Fractional leakage increase for a cell whose state toggles regularly.
    STATE_DEPENDENCE = 0.01

    def __init__(self, library: CellLibrary, operating_point: OperatingPoint) -> None:
        self.library = library
        self.operating_point = operating_point

    def _temperature_factor(self) -> float:
        delta = self.operating_point.temperature_c - self.REFERENCE_TEMPERATURE_C
        return 2.0 ** (delta / self.TEMPERATURE_DOUBLING_C)

    def cell_leakage(self, cell_type: str, active_fraction: float = 0.0) -> float:
        """Leakage power in watts of one cell of ``cell_type``.

        ``active_fraction`` is the fraction of time the cell's state is
        being exercised; it adds the small state-dependent component.
        """
        if not 0.0 <= active_fraction <= 1.0:
            raise ValueError("active_fraction must be within [0, 1]")
        cell = self.library.cell(cell_type)
        base = cell.leakage_w * self._temperature_factor()
        voltage_factor = self.operating_point.voltage_v / self.library.voltage_v
        return base * voltage_factor * (1.0 + self.STATE_DEPENDENCE * active_fraction)

    def total_leakage(self, cell_counts: dict, active_fraction: float = 0.0) -> float:
        """Leakage of a collection of cells given as ``{cell_type: count}``."""
        total = 0.0
        for cell_type, count in cell_counts.items():
            if count < 0:
                raise ValueError("cell counts must be non-negative")
            total += self.cell_leakage(cell_type, active_fraction) * count
        return total
