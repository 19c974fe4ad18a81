"""Sample-level model of the bench measurement chain (test oracle).

The library measures per clock cycle: :class:`repro.measurement.AcquisitionCampaign`
adds one statistically equivalent per-cycle Gaussian to the chip's power.
This module keeps the bench it stands for, stage by stage, so the tests can
check the per-cycle model against it:

* the chip's supply current flows through a 270 mOhm shunt resistor
  (:class:`ShuntResistor`);
* an active differential probe (Agilent 1130A) band-limits the shunt
  voltage and adds input-referred noise (:class:`DifferentialProbe`);
* an 8-bit oscilloscope (MSO6032A) samples it at 500 MS/s and quantises
  it over an auto-ranged vertical scale (:class:`Oscilloscope`);
* the 50 samples of each 10 MHz clock cycle are averaged into one value
  (:meth:`Oscilloscope.capture`), the reduction of Section III.

:func:`measure_chain` runs a per-cycle power trace through all of it.

It also keeps the per-cycle repetition stream the library no longer
draws: :func:`measure_rows` measures one power trace once per seed,
cycle by cycle, which is the oracle that
:meth:`repro.measurement.AcquisitionCampaign.measure_folded` is checked
against in distribution (``tests/test_sufficient_statistics.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import numpy as np
from scipy import signal

from repro.core.config import MeasurementConfig
from repro.measurement.acquisition import AcquisitionCampaign
from repro.measurement.noise import gaussian_noise, transient_residual_sigma
from repro.power.trace import PowerTrace


@dataclass(frozen=True)
class ShuntResistor:
    """A current-sense resistor in the chip's supply path (0.270 ohm on the
    paper's test board)."""

    resistance_ohm: float = 0.270

    def __post_init__(self) -> None:
        if self.resistance_ohm <= 0:
            raise ValueError("shunt resistance must be positive")

    def voltage_from_current(self, current_a: np.ndarray) -> np.ndarray:
        """Voltage drop across the shunt for the given current samples."""
        return np.asarray(current_a, dtype=np.float64) * self.resistance_ohm

    def current_from_voltage(self, voltage_v: np.ndarray) -> np.ndarray:
        """Current inferred from a measured shunt voltage."""
        return np.asarray(voltage_v, dtype=np.float64) / self.resistance_ohm


@dataclass(frozen=True)
class DifferentialProbe:
    """An active differential voltage probe.

    Attributes
    ----------
    bandwidth_hz:
        -3 dB bandwidth of the probe/front-end combination.
    noise_rms_v:
        Input-referred RMS voltage noise per sample.
    """

    bandwidth_hz: float = 120e6
    noise_rms_v: float = 2.0e-3

    def __post_init__(self) -> None:
        if self.bandwidth_hz <= 0:
            raise ValueError("probe bandwidth must be positive")
        if self.noise_rms_v < 0:
            raise ValueError("probe noise must be non-negative")

    def apply(
        self,
        voltage_v: np.ndarray,
        sampling_frequency_hz: float,
        rng: Optional[np.random.Generator] = None,
    ) -> np.ndarray:
        """Band-limit and add noise to a sampled voltage waveform."""
        if sampling_frequency_hz <= 0:
            raise ValueError("sampling frequency must be positive")
        samples = np.asarray(voltage_v, dtype=np.float64)
        nyquist = sampling_frequency_hz / 2.0
        if self.bandwidth_hz < nyquist and len(samples) > 12:
            normalized_cutoff = self.bandwidth_hz / nyquist
            b, a = signal.butter(2, normalized_cutoff, btype="low")
            samples = signal.lfilter(b, a, samples)
        if rng is not None and self.noise_rms_v > 0:
            samples = samples + gaussian_noise(rng, self.noise_rms_v, len(samples))
        return samples


@dataclass(frozen=True)
class Oscilloscope:
    """An N-bit digitising oscilloscope channel that auto-ranges its
    vertical scale to the waveform's peak plus headroom."""

    adc_bits: int = 8
    range_headroom: float = 1.25

    def __post_init__(self) -> None:
        if self.adc_bits < 4:
            raise ValueError("ADC resolution below 4 bits is not supported")
        if self.range_headroom < 1.0:
            raise ValueError("range headroom must be at least 1.0")

    def vertical_full_scale(self, samples: np.ndarray) -> float:
        """Full-scale range chosen to contain the waveform with headroom."""
        peak = float(np.max(np.abs(samples))) if len(samples) else 0.0
        if peak == 0.0:
            return 1.0
        return peak * self.range_headroom

    def digitize(self, samples: np.ndarray) -> np.ndarray:
        """Quantise a waveform to the ADC's steps over the auto-ranged scale."""
        samples = np.asarray(samples, dtype=np.float64)
        lsb = (2.0 * self.vertical_full_scale(samples)) / (2 ** self.adc_bits)
        return np.round(samples / lsb) * lsb

    def capture(self, samples: np.ndarray, samples_per_cycle: int) -> np.ndarray:
        """Digitise a waveform and reduce it to per-cycle averages."""
        if samples_per_cycle <= 0:
            raise ValueError("samples_per_cycle must be positive")
        digitised = self.digitize(samples)
        usable = (len(digitised) // samples_per_cycle) * samples_per_cycle
        if usable == 0:
            raise ValueError("capture shorter than one clock cycle")
        return digitised[:usable].reshape(-1, samples_per_cycle).mean(axis=1)


def pulse_shape(samples_per_cycle: int) -> np.ndarray:
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


def measure_chain(
    config: MeasurementConfig,
    power_trace: PowerTrace,
    seed: Optional[int],
) -> np.ndarray:
    """Measure a per-cycle power trace sample by sample; returns ``Y`` in watts.

    Each cycle's current is expanded into ``samples_per_cycle`` samples with
    a two-spike pulse shape, per-sample transient noise is added, and the
    waveform passes the shunt, the probe and the oscilloscope before the
    per-cycle average is converted back to power.
    """
    rng = np.random.default_rng(seed)
    spc = config.samples_per_cycle
    supply = config.supply_voltage_v
    current_per_cycle = power_trace.power_w / supply
    samples = np.repeat(current_per_cycle, spc) * np.tile(pulse_shape(spc), len(current_per_cycle))

    # Cycle-to-cycle transient variability that the averaging later does not
    # remove (di/dt spikes, board resonances), applied per sample so that it
    # matches the per-cycle model after reduction.
    mean_power = float(np.mean(power_trace.power_w)) if len(power_trace) else 0.0
    transient_sigma_cycle = transient_residual_sigma(
        mean_power, config.transient_noise_floor_w, config.transient_noise_fraction
    )
    transient_sigma_sample = transient_sigma_cycle * np.sqrt(spc) / supply
    samples = samples + gaussian_noise(rng, transient_sigma_sample, len(samples))

    shunt = ShuntResistor(resistance_ohm=config.shunt_resistance_ohm)
    probe = DifferentialProbe(noise_rms_v=config.probe_noise_rms_v)
    scope = Oscilloscope(adc_bits=config.adc_bits)
    probed = probe.apply(shunt.voltage_from_current(samples), config.sampling_frequency_hz, rng=rng)
    per_cycle = scope.capture(probed, samples_per_cycle=spc)
    return shunt.current_from_voltage(per_cycle) * supply


def gaussian_noise_into(rng: np.random.Generator, rms: float, out: np.ndarray) -> np.ndarray:
    """Fill ``out`` with zero-mean Gaussian noise of the given RMS, in place.

    Bit-identical to :func:`repro.measurement.noise.gaussian_noise` for the
    same generator state (``standard_normal`` scaled by ``rms`` is the draw
    ``normal`` performs internally); like it, an ``rms`` of zero consumes
    no random draws.
    """
    if rms < 0:
        raise ValueError("noise RMS must be non-negative")
    if rms == 0:
        out[...] = 0.0
        return out
    rng.standard_normal(out=out, dtype=out.dtype)
    out *= rms
    return out


def measure_rows(
    campaign: AcquisitionCampaign, power_trace: PowerTrace, seeds: Sequence[Optional[int]]
) -> Iterator[np.ndarray]:
    """Measure the same power trace once per seed, yielding one row at a time.

    Row ``r`` is bit-identical to
    ``campaign.measure(power_trace, seed=seeds[r]).values``.  Every row is
    written into one reused ``num_cycles`` buffer: consume (or copy) a row
    before asking for the next.
    """
    seeds = list(seeds)
    if not seeds:
        raise ValueError("at least one seed is required")
    power = power_trace.power_w
    sigma = campaign._trace_sigma(power_trace)

    def rows() -> Iterator[np.ndarray]:
        row = np.empty(len(power), dtype=np.float64)
        for seed in seeds:
            rng = np.random.default_rng(campaign.config.seed if seed is None else seed)
            gaussian_noise_into(rng, sigma, row)
            row += power
            yield row

    return rows()
