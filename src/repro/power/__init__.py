"""Power modelling: the estimator, per-cycle traces and trace synthesis.

This package plays the role of the signoff power tool used in the paper
(Synopsys PrimeTime-PX with a TSMC 65 nm low-leakage library) at the one
operating point the paper characterises, 10 MHz / 1.2 V.  The flip-flop
toggle energies are derived from the two per-register figures the paper
publishes (clock-buffer dynamic power of 1.476 uW and register
data-switching power of 1.126 uW), so Tables I and II are reproduced from
the same coefficients the analysis in Section V uses.
"""

from repro.power.estimator import PowerEstimator
from repro.power.trace import PowerTrace
from repro.power.synthesis import (
    PeriodicPowerTemplate,
    TraceSynthesizer,
    periodic_extend,
)

__all__ = [
    "PowerEstimator",
    "PowerTrace",
    "PeriodicPowerTemplate",
    "TraceSynthesizer",
    "periodic_extend",
]
