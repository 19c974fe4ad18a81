"""Area-overhead arithmetic of Section V (Table II).

The baseline watermark needs ``N = P_load / (P_data + P_clock)`` load
registers to produce a detectable dynamic power ``P_load`` (every load
register both flips its data and toggles its clock buffer each enabled
cycle).  The proposed clock-modulation watermark keeps only the WGC
(12 registers), so the area-overhead reduction is::

    reduction = 1 - wgc_registers / (wgc_registers + N)

which is the "Area Overhead Increase" column of Table II read from the
baseline's point of view.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence

from repro.core.load_circuit import registers_for_load_power
from repro.power.estimator import (
    PAPER_CLOCK_BUFFER_POWER_W,
    PAPER_DATA_SWITCHING_POWER_W,
)

#: Load powers evaluated in Table II of the paper (watts).
TABLE_II_LOAD_POWERS_W: Sequence[float] = (0.25e-3, 0.5e-3, 1e-3, 1.5e-3, 5e-3, 10e-3)

#: Registers of the minimal watermark generation circuit.
WGC_REGISTERS = 12


def area_overhead_reduction(load_registers: int, wgc_registers: int = WGC_REGISTERS) -> float:
    """Fractional area reduction from removing the load circuit.

    Equals the fraction of the baseline watermark's registers that the
    proposed technique no longer needs.
    """
    if load_registers < 0 or wgc_registers <= 0:
        raise ValueError("register counts must be positive")
    total = load_registers + wgc_registers
    return load_registers / total


@dataclass(frozen=True)
class OverheadRow:
    """One row of the Table II reproduction."""

    load_power_w: float
    load_registers: int
    overhead_reduction: float

@dataclass
class OverheadTable:
    """The Table II reproduction."""

    wgc_registers: int
    rows: List[OverheadRow] = field(default_factory=list)

    def row_for_power(self, load_power_w: float, tolerance: float = 1e-9) -> OverheadRow:
        """Look up the row for a given load power."""
        for row in self.rows:
            if abs(row.load_power_w - load_power_w) <= tolerance:
                return row
        raise KeyError(f"no row for load power {load_power_w} W")

    def to_text(self) -> str:
        """Render as a fixed-width text table."""
        header = f"{'Load power':>12} {'Load registers':>16} {'Area overhead reduction':>26}"
        lines = [
            f"Load circuit implementation costs (WGC = {self.wgc_registers} registers)",
            header,
            "-" * len(header),
        ]
        for row in self.rows:
            lines.append(
                f"{row.load_power_w * 1e3:>9.2f} mW {row.load_registers:>16d} "
                f"{row.overhead_reduction * 100:>24.1f}%"
            )
        return "\n".join(lines)

    def __iter__(self):
        return iter(self.rows)

    def __len__(self) -> int:
        return len(self.rows)


def load_circuit_overhead_table(
    load_powers_w: Sequence[float] = TABLE_II_LOAD_POWERS_W,
    wgc_registers: int = WGC_REGISTERS,
    clock_buffer_power_w: float = PAPER_CLOCK_BUFFER_POWER_W,
    data_switching_power_w: float = PAPER_DATA_SWITCHING_POWER_W,
) -> OverheadTable:
    """Reproduce Table II for the given sweep of detectable load powers."""
    table = OverheadTable(wgc_registers=wgc_registers)
    for load_power in load_powers_w:
        registers = registers_for_load_power(
            load_power,
            clock_buffer_power_w=clock_buffer_power_w,
            data_switching_power_w=data_switching_power_w,
        )
        table.rows.append(
            OverheadRow(
                load_power_w=load_power,
                load_registers=registers,
                overhead_reduction=area_overhead_reduction(registers, wgc_registers),
            )
        )
    return table
