"""Acquisition campaigns: from a chip power trace to the CPA vector ``Y``.

Two measurement paths are provided:

* a **detailed** path that synthesises the 500 MS/s shunt-voltage waveform
  (per-cycle current expanded with a switching-transient pulse shape),
  passes it through the probe (band-limiting plus noise) and the
  oscilloscope (vertical range, 8-bit quantisation) and averages back to
  one value per clock cycle; and
* a **fast** path that applies the statistically equivalent per-cycle noise
  directly, which is what the long 300,000-cycle (and 100-repetition)
  experiments use.

Both produce a :class:`MeasuredTrace` whose ``values`` array is the
measured per-cycle power vector ``Y``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence

import numpy as np

from repro.core.config import MeasurementConfig
from repro.measurement.noise import (
    gaussian_noise,
    gaussian_noise_into,
    quantization_noise_rms,
    transient_residual_sigma,
)
from repro.measurement.oscilloscope import Oscilloscope
from repro.measurement.probe import DifferentialProbe
from repro.measurement.shunt import ShuntResistor
from repro.power.trace import PowerTrace


@dataclass
class MeasuredTrace:
    """The per-cycle measured power vector ``Y`` plus acquisition metadata."""

    name: str
    values: np.ndarray
    config: MeasurementConfig
    seed: Optional[int] = None
    detailed: bool = False

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

    #: Normalised two-spike pulse shape factors used by the detailed path:
    #: most of a cycle's charge is delivered right after the two clock edges.
    _EDGE_FRACTION = 0.35

    def __init__(self, config: Optional[MeasurementConfig] = None) -> None:
        self.config = config or MeasurementConfig()
        self.shunt = ShuntResistor(resistance_ohm=self.config.shunt_resistance_ohm)
        self.probe = DifferentialProbe(
            bandwidth_hz=self.config.probe_bandwidth_hz,
            noise_rms_v=self.config.probe_noise_rms_v,
        )
        self.oscilloscope = Oscilloscope(
            sampling_frequency_hz=self.config.sampling_frequency_hz,
            adc_bits=self.config.adc_bits,
        )

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

    # -- measurement paths --------------------------------------------------------

    def measure(
        self,
        power_trace: PowerTrace,
        seed: Optional[int] = None,
        detailed: bool = False,
    ) -> MeasuredTrace:
        """Measure a chip power trace and return the CPA vector ``Y``."""
        if seed is None:
            seed = self.config.seed
        if detailed:
            return self._measure_detailed(power_trace, seed)
        return self._measure_fast(power_trace, seed)

    def _fast_path_sigma(self, power_trace: PowerTrace) -> float:
        """Effective per-cycle noise sigma of the fast measurement path.

        Shared by :meth:`measure` and :meth:`measure_rows` so the two can
        never drift apart on the acquisition-chain statistics.
        """
        power = power_trace.power_w
        mean_power = float(np.mean(power)) if len(power) else 0.0
        peak_voltage = (
            (power_trace.peak_power_w / self.config.supply_voltage_v)
            * self.config.shunt_resistance_ohm
        )
        full_scale = max(peak_voltage * self.oscilloscope.range_headroom, 1e-6)
        return self.per_cycle_noise_sigma(mean_power, full_scale)

    def _measure_fast(self, power_trace: PowerTrace, seed: Optional[int]) -> MeasuredTrace:
        rng = np.random.default_rng(seed)
        power = power_trace.power_w
        sigma = self._fast_path_sigma(power_trace)
        measured = power + gaussian_noise(rng, sigma, len(power))
        return MeasuredTrace(
            name=f"{power_trace.name}/measured",
            values=measured,
            config=self.config,
            seed=seed,
            detailed=False,
        )

    def measure_rows(
        self, power_trace: PowerTrace, seeds: Sequence[Optional[int]]
    ) -> Iterator[np.ndarray]:
        """Measure the same power trace once per seed, yielding one row at a time.

        Row ``r`` is bit-identical to
        ``measure(power_trace, seed=seeds[r]).values`` on the fast path.  The
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
        sigma = self._fast_path_sigma(power_trace)

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
        self,
        power_trace: PowerTrace,
        seeds: Sequence[Optional[int]],
        detailed: bool = False,
    ) -> np.ndarray:
        """Measure the same power trace once per seed into a trial matrix.

        Returns a ``len(seeds) x num_cycles`` array whose row ``r`` is
        bit-identical to ``measure(power_trace, seed=seeds[r]).values``: the
        rows of :meth:`measure_rows` stacked.  The detailed path falls back
        to per-row measurement.
        """
        if detailed:
            return np.stack(
                [self.measure(power_trace, seed=seed, detailed=True).values for seed in seeds]
            )
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
        detailed: bool = False,
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
        return self.measure(power, seed=seed, detailed=detailed)

    def _measure_detailed(self, power_trace: PowerTrace, seed: Optional[int]) -> MeasuredTrace:
        rng = np.random.default_rng(seed)
        spc = self.config.samples_per_cycle
        supply = self.config.supply_voltage_v
        current_per_cycle = power_trace.power_w / supply

        # Expand each cycle into `spc` samples with a two-spike pulse shape
        # whose per-cycle mean equals the cycle's average current.
        pulse = self._pulse_shape(spc)
        samples = np.repeat(current_per_cycle, spc) * np.tile(pulse, len(current_per_cycle))

        # Cycle-to-cycle transient variability that the averaging later does
        # not remove (di/dt spikes, board resonances); applied per sample so
        # the detailed and fast paths agree statistically after reduction.
        mean_power = float(np.mean(power_trace.power_w)) if len(power_trace) else 0.0
        transient_sigma_cycle = transient_residual_sigma(
            mean_power,
            self.config.transient_noise_floor_w,
            self.config.transient_noise_fraction,
        )
        transient_sigma_sample = transient_sigma_cycle * np.sqrt(spc) / supply
        samples = samples + gaussian_noise(rng, transient_sigma_sample, len(samples))

        shunt_voltage = self.shunt.voltage_from_current(samples)
        probed = self.probe.apply(shunt_voltage, self.config.sampling_frequency_hz, rng=rng)
        capture = self.oscilloscope.capture(probed, samples_per_cycle=spc)
        measured_current = self.shunt.current_from_voltage(capture.per_cycle_average)
        measured_power = measured_current * supply
        return MeasuredTrace(
            name=f"{power_trace.name}/measured",
            values=measured_power,
            config=self.config,
            seed=seed,
            detailed=True,
        )

    @staticmethod
    def _pulse_shape(samples_per_cycle: int) -> np.ndarray:
        """Two-spike, mean-one pulse shape representing edge-triggered current."""
        if samples_per_cycle <= 0:
            raise ValueError("samples_per_cycle must be positive")
        shape = np.ones(samples_per_cycle, dtype=np.float64)
        if samples_per_cycle >= 8:
            edge_width = max(1, samples_per_cycle // 10)
            rising = np.arange(edge_width)
            decay = np.exp(-rising / max(1.0, edge_width / 2.0))
            boost = np.zeros(samples_per_cycle)
            boost[:edge_width] += decay
            half = samples_per_cycle // 2
            boost[half:half + edge_width] += decay
            shape = shape + 4.0 * boost
        return shape / shape.mean()
