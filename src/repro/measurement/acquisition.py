"""Acquisition campaigns: from a chip power trace to the CPA vector ``Y``.

The bench of Section IV (shunt, differential probe, 500 MS/s 8-bit scope,
50 samples averaged per 10 MHz cycle) is modelled per clock cycle: every
stage's noise is folded into one statistically equivalent per-cycle
Gaussian sigma (:meth:`AcquisitionCampaign.per_cycle_noise_sigma`) that is
added to the chip's per-cycle power.  The result is a
:class:`MeasuredTrace` whose ``values`` array is the measured per-cycle
power vector ``Y``.

Acquisitions that only feed a detection decision (each Fig. 5 panel's
one acquisition and the Fig. 6 repetitions) never materialise their rows:
the detector reads only each row's phase fold and energy, and
:meth:`AcquisitionCampaign.measure_folded` draws exactly those from their
joint distribution with ``period + 2`` draws per acquisition instead of
``num_cycles``.  :meth:`AcquisitionCampaign.measure` draws the per-cycle
row for callers that display it (Fig. 3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.core.config import MeasurementConfig
from repro.core.seeds import stream
from repro.detection.batch import PhaseFold, fold_by_phase, sum_of_squares
from repro.measurement.noise import (
    gaussian_noise,
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
        """Measure a chip power trace and return the CPA vector ``Y``.

        The noise is drawn from the ``"noise"`` stream of ``seed``.
        """
        if seed is None:
            seed = self.config.seed
        power = power_trace.power_w
        sigma = self._trace_sigma(power_trace)
        measured = power + gaussian_noise(stream(seed, "noise"), sigma, len(power))
        return MeasuredTrace(
            name=f"{power_trace.name}/measured",
            values=measured,
            config=self.config,
            seed=seed,
        )

    def _trace_sigma(self, power_trace: PowerTrace) -> float:
        """Effective per-cycle noise sigma of the chain for one power trace.

        Shared by :meth:`measure` and :meth:`measure_folded` so the two can
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

    def measure_many(
        self, power_trace: PowerTrace, seeds: Sequence[Optional[int]]
    ) -> np.ndarray:
        """Measure the same power trace once per seed into a trial matrix.

        Returns a ``len(seeds) x num_cycles`` array whose row ``r`` is
        ``measure(power_trace, seed=seeds[r]).values``.
        """
        seeds = list(seeds)
        if not seeds:
            raise ValueError("at least one seed is required")
        return np.stack([self.measure(power_trace, seed=seed).values for seed in seeds])

    def measure_folded(
        self, power_trace: PowerTrace, seeds: Sequence[Optional[int]], period: int
    ) -> PhaseFold:
        """Measure the same power trace once per seed, as the detector reads it.

        Returns the :class:`~repro.detection.batch.PhaseFold` (per-phase
        sums and ``row @ row``) of one ``measure(power_trace, seed)`` row
        per seed: equal to it in distribution, not bit for bit, and drawn
        with ``period + 2`` draws per seed instead of ``num_cycles``.

        Every row is ``s + n``: the shared power ``s`` plus i.i.d.
        ``N(0, sigma^2)`` noise ``n``.  With ``k`` the cycles per phase,
        ``m = fold(s) / k`` and the within-phase residual
        ``r = s - tile(m)`` (computed once), ``n`` splits into its phase
        sums and a residual that is isotropic in the ``N - P`` dimensions
        orthogonal to the phases.  Each seed's ``"noise"`` stream draws, in
        this order:

        * ``fold(n) = sigma * sqrt(k) * standard_normal(P)``;
        * ``z = standard_normal()``, the residual noise along ``r``;
        * ``chi2 = chisquare(N - P - 1)``, the residual energy orthogonal
          to ``r``.

        The row's statistics are ``folded = fold(s) + fold(n)`` and
        ``sum_yy = s.s + 2 (m.fold(n) + sigma |r| z) + sum(fold(n)^2 / k)
        + sigma^2 (z^2 + chi2)``.  With ``N = P`` there is no residual (no
        ``z``, no ``chi2``) and with ``N = P + 1`` no ``chi2``; a zero
        sigma draws nothing and gives exactly ``fold(s)`` and ``s.s``.
        """
        seeds = list(seeds)
        if not seeds:
            raise ValueError("at least one seed is required")
        power = power_trace.power_w
        num_cycles = len(power)
        power_fold, counts = fold_by_phase(power, period)
        means = power_fold[0] / counts
        residual = power - np.resize(means, num_cycles)
        residual_norm = np.sqrt(sum_of_squares(residual))
        residual_dims = num_cycles - period
        sigma = self._trace_sigma(power_trace)

        noise_folds = np.zeros((len(seeds), period))
        along_residual = np.zeros(len(seeds))
        chi2 = np.zeros(len(seeds))
        if sigma > 0:
            for index, seed in enumerate(seeds):
                rng = stream(self.config.seed if seed is None else seed, "noise")
                rng.standard_normal(out=noise_folds[index])
                if residual_dims >= 1:
                    along_residual[index] = rng.standard_normal()
                if residual_dims >= 2:
                    chi2[index] = rng.chisquare(residual_dims - 1)
        noise_folds *= sigma * np.sqrt(counts)
        power_dot_noise = (noise_folds * means).sum(axis=1) + sigma * residual_norm * along_residual
        noise_dot_noise = (noise_folds * noise_folds / counts).sum(axis=1) + sigma * sigma * (
            along_residual * along_residual + chi2
        )
        sum_yy = sum_of_squares(power) + 2.0 * power_dot_noise + noise_dot_noise
        return PhaseFold(power_fold + noise_folds, sum_yy, num_cycles)
