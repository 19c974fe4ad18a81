"""Watermarking core: the paper's contribution and its baseline.

Two architectures are implemented (Fig. 1 of the paper):

* :class:`BaselineWatermark` -- the state-of-the-art power watermark
  (Becker et al. HOST'10, Ziener et al. FPT'06): a small watermark
  generation circuit (WGC) drives the shift-enable of a large *load
  circuit* whose shift activity produces the power pattern.
* :class:`ClockModulationWatermark` -- the proposed scheme: the WGC output
  modulates the enable of existing integrated clock gates (ICGs), so the
  clock tree of an existing (or redundant) clock-gated register bank
  produces the power pattern and the load circuit disappears.
"""

from repro.core.lfsr import (
    LFSR,
    max_length_taps,
    max_length_period,
)
from repro.core.wgc import WatermarkGenerationCircuit
from repro.core.load_circuit import LoadCircuit, registers_for_load_power
from repro.core.clock_modulation import ClockModulatedBank, ClockModulatedIPBlock
from repro.core.architectures import (
    WatermarkArchitecture,
    BaselineWatermark,
    ClockModulationWatermark,
)
from repro.core.config import (
    WatermarkConfig,
    MeasurementConfig,
    DetectionConfig,
    ExperimentConfig,
)
from repro.core.embedding import embed_baseline, embed_clock_modulation

__all__ = [
    "LFSR",
    "max_length_taps",
    "max_length_period",
    "WatermarkGenerationCircuit",
    "LoadCircuit",
    "registers_for_load_power",
    "ClockModulatedBank",
    "ClockModulatedIPBlock",
    "WatermarkArchitecture",
    "BaselineWatermark",
    "ClockModulationWatermark",
    "WatermarkConfig",
    "MeasurementConfig",
    "DetectionConfig",
    "ExperimentConfig",
    "embed_baseline",
    "embed_clock_modulation",
]
