"""Power modelling: synthetic 65 nm library, estimator, traces and reports.

This package plays the role of the signoff power tool used in the paper
(Synopsys PrimeTime-PX with a TSMC 65 nm low-leakage library).  The cell
library is synthetic but calibrated to the two per-cell figures the paper
publishes (clock-buffer dynamic power of 1.476 uW and register data-switching
power of 1.126 uW per register at 10 MHz / 1.2 V), so Tables I and II are
reproduced from the same coefficients the analysis in Section V uses.
"""

from repro.power.library import CellCharacteristics, CellLibrary, TSMC65LP_LIKE
from repro.power.models import (
    DynamicPowerModel,
    StaticPowerModel,
    OperatingPoint,
    scale_energy_with_voltage,
)
from repro.power.estimator import PowerEstimator
from repro.power.trace import PowerTrace
from repro.power.report import PowerReport, PowerReportRow
from repro.power.synthesis import (
    PeriodicPowerTemplate,
    TraceSynthesizer,
    periodic_extend,
)

__all__ = [
    "CellCharacteristics",
    "CellLibrary",
    "TSMC65LP_LIKE",
    "DynamicPowerModel",
    "StaticPowerModel",
    "OperatingPoint",
    "scale_energy_with_voltage",
    "PowerEstimator",
    "PowerTrace",
    "PowerReport",
    "PowerReportRow",
    "PeriodicPowerTemplate",
    "TraceSynthesizer",
    "periodic_extend",
]
