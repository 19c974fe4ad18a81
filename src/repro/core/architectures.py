"""The two watermark architectures compared in the paper.

Both architectures pair a :class:`WatermarkGenerationCircuit` with a power
pattern producer:

* :class:`BaselineWatermark` (Fig. 1(a)): WGC + dedicated load circuit.
* :class:`ClockModulationWatermark` (Fig. 1(b)): WGC + clock-modulated
  existing (or redundant) clock-gated logic.

Both expose the same interface so that the measurement chain, the CPA
detector and the area analysis treat them interchangeably:

``periodic_activity()``
    exact per-cycle activity of the WGC and the load over one watermark
    period, computed as array expressions of the WMARK sequence;
``activity_traces(num_cycles)``
    exact per-cycle activity for a long run, computed from one watermark
    period and tiled (the circuits are strictly periodic);
``power_trace(estimator, num_cycles)``
    the watermark's per-cycle power contribution;
``cell_inventory()``
    structural figures for the leakage analysis.
"""

from __future__ import annotations

import abc
from typing import Dict, Optional

import numpy as np

from repro.core.clock_modulation import ClockModulatedBank
from repro.core.config import ArchitectureKind, WatermarkConfig
from repro.core.load_circuit import LoadCircuit
from repro.core.wgc import WatermarkGenerationCircuit
from repro.power.estimator import PowerEstimator
from repro.power.synthesis import PeriodicPowerTemplate
from repro.power.trace import PowerTrace
from repro.rtl.activity import ActivityTrace


class WatermarkArchitecture(abc.ABC):
    """Common behaviour of both watermark architectures."""

    def __init__(self, wgc: WatermarkGenerationCircuit, name: str) -> None:
        self.wgc = wgc
        self.name = name

    # -- abstract structural/behavioural hooks -----------------------------

    @property
    @abc.abstractmethod
    def kind(self) -> ArchitectureKind:
        """Which architecture this is."""

    @abc.abstractmethod
    def _load_activity(self, wmark: np.ndarray) -> ActivityTrace:
        """Activity of the power-pattern producer under the given WMARK bits."""

    @abc.abstractmethod
    def cell_inventory(self) -> Dict[str, int]:
        """Cell counts per library class of all watermark-involved hardware.

        Used for leakage estimation: every cell whose activity the watermark
        controls contributes, including reused host cells.
        """

    # -- shared behaviour -----------------------------------------------------

    @property
    def sequence_period(self) -> int:
        """Period of the watermark sequence."""
        return self.wgc.period

    def sequence(self, length: Optional[int] = None) -> np.ndarray:
        """The watermark model sequence (the CPA vector ``X``)."""
        return self.wgc.sequence(length)

    def periodic_activity(self) -> Dict[str, ActivityTrace]:
        """Exact per-cycle activity over one full watermark period from reset.

        Returns the activity of the two watermark sub-circuits under the
        keys ``"wgc"`` and ``"load"``.  The circuits are strictly periodic
        with the sequence period, so one period fully characterises them.
        The load sees the *registered* WMARK: during cycle ``t`` its enable
        is the WGC output before that cycle's clock edge, ``sequence()[t]``,
        matching the paper's Fig. 2 waveforms.  Both traces are closed-form
        array expressions of that vector (no per-cycle stepping), so every
        call returns fresh, independent arrays.
        """
        period = self.sequence_period
        wgc = self.wgc.activity(period)
        wgc.name = f"{self.name}/wgc"
        load = self._load_activity(self.sequence(period))
        load.name = f"{self.name}/load"
        return {"wgc": wgc, "load": load}

    def activity_traces(self, num_cycles: int) -> Dict[str, ActivityTrace]:
        """Exact activity traces over ``num_cycles`` cycles (tiled periods)."""
        if num_cycles <= 0:
            raise ValueError("num_cycles must be positive")
        periodic = self.periodic_activity()
        return {key: trace.tile(num_cycles) for key, trace in periodic.items()}

    def power_template(
        self, estimator: PowerEstimator, include_leakage: bool = True
    ) -> PeriodicPowerTemplate:
        """One-period per-cycle power template of the watermark circuit."""
        traces = self.periodic_activity()
        static = estimator.leakage_of(self.cell_inventory()) if include_leakage else 0.0
        trace = estimator.combined_power_trace(traces, static_w=static, name=self.name)
        return PeriodicPowerTemplate.from_power_trace(trace)

    def power_trace(
        self,
        estimator: PowerEstimator,
        num_cycles: int,
        include_leakage: bool = True,
        phase_offset: int = 0,
    ) -> PowerTrace:
        """Per-cycle power contributed by the watermark circuit.

        Synthesized from the one-period power template by slice-copy
        extension -- bit-identical to estimating power over activity stepped
        cycle by cycle for the full acquisition length (the equivalence suite
        in ``tests/test_power_synthesis.py`` pins this against the stepping
        oracle).  ``phase_offset``
        rotates the trace like ``np.roll(power_w, -phase_offset)``, which
        models the scope trigger being unaligned with the watermark phase.
        """
        template = self.power_template(estimator, include_leakage)
        return template.extend(num_cycles, phase_offset)

    def average_active_load_power(self, estimator: PowerEstimator) -> float:
        """Average load dynamic power during WMARK-high cycles.

        This is the quantity Table I reports ("power consumption of the
        placed-and-routed load circuit"): the load's dynamic power while the
        watermark enables it.
        """
        periodic = self.periodic_activity()
        wmark = self.sequence(self.sequence_period).astype(bool)
        load_power = estimator.power_per_cycle(periodic["load"])
        active = load_power[wmark[: len(load_power)]]
        if len(active) == 0:
            return 0.0
        return float(np.mean(active))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r}, period={self.sequence_period})"


class BaselineWatermark(WatermarkArchitecture):
    """State-of-the-art watermark: WGC plus dedicated load circuit."""

    def __init__(
        self,
        wgc: Optional[WatermarkGenerationCircuit] = None,
        load: Optional[LoadCircuit] = None,
        name: str = "baseline_watermark",
    ) -> None:
        super().__init__(wgc or WatermarkGenerationCircuit.minimal(), name)
        self.load = load or LoadCircuit()

    @classmethod
    def from_config(cls, config: WatermarkConfig, name: str = "baseline_watermark") -> "BaselineWatermark":
        """Build the baseline architecture from a :class:`WatermarkConfig`."""
        wgc = (
            WatermarkGenerationCircuit.test_chip(active_width=config.lfsr_width, seed=config.lfsr_seed)
            if config.use_test_chip_wgc
            else WatermarkGenerationCircuit.minimal(width=config.lfsr_width, seed=config.lfsr_seed)
        )
        return cls(wgc=wgc, load=LoadCircuit(num_registers=config.load_registers), name=name)

    @property
    def kind(self) -> ArchitectureKind:
        return ArchitectureKind.BASELINE_LOAD_CIRCUIT

    def _load_activity(self, wmark: np.ndarray) -> ActivityTrace:
        return self.load.activity(wmark)

    def cell_inventory(self) -> Dict[str, int]:
        inventory = dict(self.wgc.cell_inventory())
        for cell_type, count in self.load.cell_inventory().items():
            inventory[cell_type] = inventory.get(cell_type, 0) + count
        return inventory


class ClockModulationWatermark(WatermarkArchitecture):
    """Proposed watermark: WGC modulating clock-gated logic."""

    def __init__(
        self,
        wgc: Optional[WatermarkGenerationCircuit] = None,
        modulated_block=None,
        name: str = "clock_modulation_watermark",
    ) -> None:
        super().__init__(wgc or WatermarkGenerationCircuit.test_chip(), name)
        self.modulated_block = modulated_block or ClockModulatedBank()

    @classmethod
    def from_config(cls, config: WatermarkConfig, name: str = "clock_modulation_watermark") -> "ClockModulationWatermark":
        """Build the proposed architecture from a :class:`WatermarkConfig`."""
        wgc = (
            WatermarkGenerationCircuit.test_chip(active_width=config.lfsr_width, seed=config.lfsr_seed)
            if config.use_test_chip_wgc
            else WatermarkGenerationCircuit.minimal(width=config.lfsr_width, seed=config.lfsr_seed)
        )
        bank = ClockModulatedBank(
            num_words=config.num_words,
            word_width=config.word_width,
            switching_registers=config.switching_registers,
        )
        return cls(wgc=wgc, modulated_block=bank, name=name)

    @property
    def kind(self) -> ArchitectureKind:
        return ArchitectureKind.CLOCK_MODULATION

    def _load_activity(self, wmark: np.ndarray) -> ActivityTrace:
        return self.modulated_block.activity(wmark)

    def cell_inventory(self) -> Dict[str, int]:
        inventory = dict(self.wgc.cell_inventory())
        for cell_type, count in self.modulated_block.cell_inventory().items():
            inventory[cell_type] = inventory.get(cell_type, 0) + count
        return inventory
