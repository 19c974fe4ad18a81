"""Acquisition campaigns: from a chip power trace to the CPA vector ``Y``.

The bench of Section IV (shunt, differential probe, 500 MS/s 8-bit scope,
50 samples averaged per 10 MHz cycle) is modelled per clock cycle: every
stage's noise is folded into one statistically equivalent per-cycle
Gaussian sigma (:meth:`AcquisitionCampaign.per_cycle_noise_sigma`) that is
added to the chip's per-cycle power.  The result is a
:class:`MeasuredTrace` whose ``values`` array is the measured per-cycle
power vector ``Y``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import numpy as np

from repro.core.config import MeasurementConfig
from repro.measurement.noise import (
    gaussian_noise,
    gaussian_noise_into,
    quantization_noise_rms,
    transient_residual_sigma,
)
from repro.power.trace import PowerTrace

#: Vertical-range headroom of the oscilloscope: the full scale is set this
#: much above the trace's peak shunt voltage, which sets the ADC's LSB.
RANGE_HEADROOM = 1.25


@dataclass
class MeasuredTrace:
    """The per-cycle measured power vector ``Y`` plus acquisition metadata."""

    name: str
    values: np.ndarray
    config: MeasurementConfig
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 1:
            raise ValueError("measured trace must be one-dimensional")

    def __len__(self) -> int:
        return len(self.values)

    @property
    def num_cycles(self) -> int:
        """Number of per-cycle values."""
        return len(self.values)

    @property
    def mean_power_w(self) -> float:
        """Mean of the measured per-cycle power."""
        if len(self.values) == 0:
            return 0.0
        return float(np.mean(self.values))

    @property
    def std_power_w(self) -> float:
        """Standard deviation of the measured per-cycle power."""
        if len(self.values) == 0:
            return 0.0
        return float(np.std(self.values))


class AcquisitionCampaign:
    """Measures chip power traces with the modelled bench setup."""

    def __init__(self, config: Optional[MeasurementConfig] = None) -> None:
        self.config = config or MeasurementConfig()

    @classmethod
    def from_spec(cls, spec) -> "AcquisitionCampaign":
        """Build the acquisition chain a :class:`ScenarioSpec` describes."""
        return cls(spec.measurement)

    # -- noise bookkeeping -----------------------------------------------------

    def per_cycle_noise_sigma(self, mean_power_w: float, full_scale_v: float) -> float:
        """Effective per-cycle noise sigma (in watts) of the whole chain."""
        spc = self.config.samples_per_cycle
        transient = transient_residual_sigma(
            mean_power_w,
            self.config.transient_noise_floor_w,
            self.config.transient_noise_fraction,
        )
        probe_power = (
            self.config.probe_noise_rms_v
            / self.config.shunt_resistance_ohm
            * self.config.supply_voltage_v
        )
        quant_power = (
            quantization_noise_rms(full_scale_v, self.config.adc_bits)
            / self.config.shunt_resistance_ohm
            * self.config.supply_voltage_v
        )
        per_sample = np.sqrt(probe_power**2 + quant_power**2)
        return float(np.sqrt(transient**2 + (per_sample**2) / spc))

    # -- measurement -------------------------------------------------------------

    def measure(self, power_trace: PowerTrace, seed: Optional[int] = None) -> MeasuredTrace:
        """Measure a chip power trace and return the CPA vector ``Y``."""
        if seed is None:
            seed = self.config.seed
        rng = np.random.default_rng(seed)
        power = power_trace.power_w
        sigma = self._trace_sigma(power_trace)
        measured = power + gaussian_noise(rng, sigma, len(power))
        return MeasuredTrace(
            name=f"{power_trace.name}/measured",
            values=measured,
            config=self.config,
            seed=seed,
        )

    def _trace_sigma(self, power_trace: PowerTrace) -> float:
        """Effective per-cycle noise sigma of the chain for one power trace.

        Shared by :meth:`measure` and :meth:`measure_rows` so the two can
        never drift apart on the acquisition-chain statistics.
        """
        power = power_trace.power_w
        mean_power = float(np.mean(power)) if len(power) else 0.0
        peak_voltage = (
            (power_trace.peak_power_w / self.config.supply_voltage_v)
            * self.config.shunt_resistance_ohm
        )
        full_scale = max(peak_voltage * RANGE_HEADROOM, 1e-6)
        return self.per_cycle_noise_sigma(mean_power, full_scale)

    def measure_rows(
        self, power_trace: PowerTrace, seeds: Sequence[Optional[int]]
    ) -> Iterator[np.ndarray]:
        """Measure the same power trace once per seed, yielding one row at a time.

        Row ``r`` is bit-identical to
        ``measure(power_trace, seed=seeds[r]).values``.  The
        acquisition-chain statistics (mean power, vertical range, effective
        noise sigma) are computed once, and every row is written into one
        reused ``num_cycles`` buffer: consume (or copy) a row before asking
        for the next.  The rows feed straight into
        :meth:`repro.detection.batch.BatchCPADetector.detect_many`, so a
        campaign never holds a repetitions x cycles matrix.
        """
        seeds = list(seeds)
        if not seeds:
            raise ValueError("at least one seed is required")
        power = power_trace.power_w
        sigma = self._trace_sigma(power_trace)

        def rows() -> Iterator[np.ndarray]:
            row = np.empty(len(power), dtype=np.float64)
            for seed in seeds:
                rng = np.random.default_rng(self.config.seed if seed is None else seed)
                # In place: noise straight into the buffer, then add the
                # shared power template -- bit-identical to
                # ``power + gaussian_noise``.
                gaussian_noise_into(rng, sigma, row)
                row += power
                yield row

        return rows()

    def measure_many(
        self, power_trace: PowerTrace, seeds: Sequence[Optional[int]]
    ) -> np.ndarray:
        """Measure the same power trace once per seed into a trial matrix.

        Returns a ``len(seeds) x num_cycles`` array whose row ``r`` is
        bit-identical to ``measure(power_trace, seed=seeds[r]).values``: the
        rows of :meth:`measure_rows` stacked.
        """
        return np.stack([row.copy() for row in self.measure_rows(power_trace, seeds)])

    # -- chip-level entry points --------------------------------------------------

    def measure_chip(
        self,
        chip,
        num_cycles: int,
        watermark_active: bool = True,
        power_seed: Optional[int] = None,
        seed: Optional[int] = None,
        watermark_phase_offset: int = 0,
    ) -> MeasuredTrace:
        """Measure a chip's total power directly (one acquisition).

        Convenience wrapper over ``chip.total_power(...)`` followed by
        :meth:`measure`; because the chip's background power is served from
        the chip-level template cache, repeated acquisitions of the same
        chip configuration skip both the M0 window simulation and the
        background block-activity draws entirely.
        """
        power = chip.total_power(
            num_cycles,
            watermark_active=watermark_active,
            seed=power_seed,
            watermark_phase_offset=watermark_phase_offset,
        )
        return self.measure(power, seed=seed)
