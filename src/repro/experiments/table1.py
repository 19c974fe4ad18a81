"""Table I: power consumption of the placed-and-routed load circuit.

The table sweeps how many of the 1,024 registers of the clock-modulated
redundant bank switch their data when the watermark enables their clocks
(0, 256, 512, 1,024) and reports the load circuit's dynamic, static and
total power plus its share of the total watermark dynamic power.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence

from repro.core.architectures import ClockModulationWatermark
from repro.core.config import WatermarkConfig
from repro.power.estimator import PowerEstimator
from repro.power.report import PowerReport, PowerReportRow

#: Switching-register counts evaluated by the paper's Table I.
TABLE_I_SWITCHING_REGISTERS: Sequence[int] = (0, 256, 512, 1024)


@dataclass
class Table1Row:
    """One Table I row: a load-circuit implementation and its power."""

    switching_registers: int
    dynamic_w: float
    static_w: float
    share_of_watermark_dynamic: float

    @property
    def total_w(self) -> float:
        """Dynamic plus static power."""
        return self.dynamic_w + self.static_w

    @property
    def implementation(self) -> str:
        """Row label mirroring the paper's wording."""
        if self.switching_registers == 0:
            return "Clock Buffers Modulation, No Data Switching"
        return f"Clock Buffers Modulation, {self.switching_registers} Switching Registers"


@dataclass
class Table1Result:
    """The Table I reproduction."""

    rows: List[Table1Row] = field(default_factory=list)
    wgc_dynamic_w: float = 0.0

    def row(self, switching_registers: int) -> Table1Row:
        """Look up the row for a switching-register count."""
        for row in self.rows:
            if row.switching_registers == switching_registers:
                return row
        raise KeyError(f"no row for {switching_registers} switching registers")

    def dynamic_power_monotonic(self) -> bool:
        """Dynamic power must grow with the number of switching registers."""
        dynamics = [row.dynamic_w for row in self.rows]
        return all(b > a for a, b in zip(dynamics, dynamics[1:]))

    def to_power_report(self) -> PowerReport:
        """Render as a :class:`PowerReport` (Table I layout)."""
        report = PowerReport(title="Table I: power consumption of placed and routed load circuit")
        for row in self.rows:
            report.add_row(
                PowerReportRow(
                    implementation=row.implementation,
                    dynamic_w=row.dynamic_w,
                    static_w=row.static_w,
                    share_of_watermark_dynamic=row.share_of_watermark_dynamic,
                )
            )
        return report

    def to_text(self) -> str:
        """Text rendering."""
        return self.to_power_report().to_text()


def _compute_table1(
    switching_register_counts: Sequence[int], base_config: WatermarkConfig
) -> Table1Result:
    """The Table I computation (pipeline stage body)."""
    estimator = PowerEstimator.at_nominal()
    result = Table1Result()

    for switching in switching_register_counts:
        row_config = WatermarkConfig(
            architecture=base_config.architecture,
            lfsr_width=base_config.lfsr_width,
            lfsr_seed=base_config.lfsr_seed,
            num_words=base_config.num_words,
            word_width=base_config.word_width,
            switching_registers=switching,
            load_registers=base_config.load_registers,
            use_test_chip_wgc=True,
        )
        watermark = ClockModulationWatermark.from_config(row_config)

        # Dynamic power of the load (the modulated bank) during enabled cycles,
        # which is what a signoff tool reports for the placed-and-routed macro.
        load_dynamic = watermark.average_active_load_power(estimator)

        # WGC dynamic power (it is clocked every cycle).
        periodic = watermark.periodic_activity()
        wgc_dynamic = estimator.dynamic_model.average_power("dff", periodic["wgc"])

        # Leakage of the bank (registers + clock gates + local buffers).
        bank_inventory = watermark.modulated_block.cell_inventory()
        static = estimator.leakage_of(bank_inventory, active_fraction=switching / 1024.0)

        share = load_dynamic / (load_dynamic + wgc_dynamic) if load_dynamic > 0 else 0.0
        result.rows.append(
            Table1Row(
                switching_registers=switching,
                dynamic_w=load_dynamic,
                static_w=static,
                share_of_watermark_dynamic=share,
            )
        )
        result.wgc_dynamic_w = wgc_dynamic
    return result
