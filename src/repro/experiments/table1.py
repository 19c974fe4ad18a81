"""Table I: power consumption of the placed-and-routed load circuit.

The table sweeps how many of the 1,024 registers of the clock-modulated
redundant bank switch their data when the watermark enables their clocks
(0, 256, 512, 1,024) and reports the load circuit's dynamic, static and
total power plus its share of the total watermark dynamic power.  The
state-dependent part of the leakage scales with the switching fraction of
the bank's registers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence

from repro.core.architectures import ClockModulationWatermark
from repro.core.config import WatermarkConfig
from repro.power.estimator import PowerEstimator

#: Switching-register counts evaluated by the paper's Table I.
TABLE_I_SWITCHING_REGISTERS: Sequence[int] = (0, 256, 512, 1024)


def _format_power(value_w: float) -> str:
    """Human-readable power value with engineering units."""
    if value_w == 0:
        return "0 W"
    magnitude = abs(value_w)
    if magnitude >= 1e-3:
        return f"{value_w * 1e3:.2f} mW"
    if magnitude >= 1e-6:
        return f"{value_w * 1e6:.3g} uW"
    if magnitude >= 1e-9:
        return f"{value_w * 1e9:.3g} nW"
    return f"{value_w * 1e12:.3g} pW"


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

    def dynamic_power_monotonic(self) -> bool:
        """Dynamic power must grow with the number of switching registers."""
        dynamics = [row.dynamic_w for row in self.rows]
        return all(b > a for a, b in zip(dynamics, dynamics[1:]))

    def to_text(self) -> str:
        """Render as a fixed-width text table (Table I layout)."""
        header = (
            f"{'Implementation':<44} {'Dynamic':>12} {'Static':>12} "
            f"{'Total':>12} {'% WM dyn':>10}"
        )
        lines = [
            "Table I: power consumption of placed and routed load circuit",
            "=" * len(header),
            header,
            "-" * len(header),
        ]
        for row in self.rows:
            share = f"{row.share_of_watermark_dynamic * 100:.1f}%"
            lines.append(
                f"{row.implementation:<44} {_format_power(row.dynamic_w):>12} "
                f"{_format_power(row.static_w):>12} {_format_power(row.total_w):>12} "
                f"{share:>10}"
            )
        return "\n".join(lines)


def _compute_table1(
    switching_register_counts: Sequence[int], base_config: WatermarkConfig
) -> Table1Result:
    """The Table I computation (pipeline stage body)."""
    estimator = PowerEstimator()
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
        wgc_dynamic = estimator.average_power(periodic["wgc"])

        # Leakage of the bank (registers + clock gates + local buffers); the
        # state-dependent part follows the bank's switching fraction.
        bank = watermark.modulated_block
        static = estimator.leakage_of(
            bank.cell_inventory(), active_fraction=switching / bank.register_count
        )

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
