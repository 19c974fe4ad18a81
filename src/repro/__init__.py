"""Reproduction of "Clock-Modulation Based Watermark for Protection of
Embedded Processors" (Kufel, Wilson, Hill, Al-Hashimi, Whatmough, Myers --
DATE 2014, DOI 10.7873/DATE.2014.053).

The package is organised as follows:

``repro.core``
    The paper's contribution: the LFSR sequence generator, the watermark
    generation circuit, the baseline load-circuit watermark, the proposed
    clock-modulation watermark (each costed in closed form from its
    configuration), and the Sec. VI embedding into a host netlist.
``repro.rtl``
    RTL substrate: registers, shift registers, integrated clock gates and
    glue logic in one flat netlist, the clock-tree buffer count and the
    per-cycle activity records.
``repro.power``
    Power modelling calibrated to the paper's 65 nm figures.
``repro.soc``
    Embedded-processor substrate: the Cortex-M0's Dhrystone activity window
    (shipped data), the idle background blocks, the chip I/II assemblies and
    the host SoC netlist of Sec. VI.
``repro.measurement``
    The shunt / probe / oscilloscope bench, modelled per clock cycle.
``repro.detection``
    Correlation Power Analysis detection, spread spectra and statistics.
``repro.analysis``
    Area, overhead and removal-attack robustness analysis.
``repro.experiments``
    The computation and result type of each paper table/figure (Fig. 2,
    3, 5, 6; Tables I, II; Section VI robustness), run as pipeline stages.
``repro.pipeline``
    The declarative scenario layer: frozen, serializable
    :class:`repro.core.spec.ScenarioSpec`, the pipeline runner
    (``ExperimentRunner.run`` / ``run_many``), typed result artifacts and
    the named-experiment registry behind ``python -m repro run``.
``repro.service``
    The signed ``/verify`` detection service over the pipeline, and its
    client.

Quickstart
----------
Every experiment runs through the scenario registry and pipeline runner:

>>> from repro.pipeline import run_scenario
>>> result = run_scenario("table2")
>>> round(result.scalars["headline_reduction"], 2)
0.98
>>> round(result.payload.headline_reduction, 2)
0.98
"""

from repro.core import (
    LFSR,
    BaselineWatermark,
    ClockModulationWatermark,
    WatermarkConfig,
    MeasurementConfig,
    DetectionConfig,
    ExperimentConfig,
    WatermarkGenerationCircuit,
)
from repro.detection import BatchCPADetector, CPADetector
from repro.measurement import AcquisitionCampaign
from repro.power import PowerEstimator
from repro.soc import build_chip_one, build_chip_two
from repro.pipeline import (
    DEFAULT_REGISTRY,
    ExperimentRunner,
    ScenarioResult,
    ScenarioSpec,
    SweepResult,
    run_scenario,
)

__version__ = "1.1.0"

__all__ = [
    "LFSR",
    "BaselineWatermark",
    "ClockModulationWatermark",
    "WatermarkConfig",
    "MeasurementConfig",
    "DetectionConfig",
    "ExperimentConfig",
    "WatermarkGenerationCircuit",
    "CPADetector",
    "BatchCPADetector",
    "AcquisitionCampaign",
    "PowerEstimator",
    "build_chip_one",
    "build_chip_two",
    "DEFAULT_REGISTRY",
    "ExperimentRunner",
    "ScenarioResult",
    "ScenarioSpec",
    "SweepResult",
    "run_scenario",
    "__version__",
]
