"""Acquisition campaigns: from a chip power trace to the CPA vector ``Y``.

The bench of Section IV (shunt, differential probe, 500 MS/s 8-bit scope,
50 samples averaged per 10 MHz cycle) is modelled per clock cycle: every
stage's noise is folded into one statistically equivalent per-cycle
Gaussian sigma (:meth:`AcquisitionCampaign.per_cycle_noise_sigma`) that is
added to the chip's per-cycle power, in quadrature with the trace's own
Gaussian per-cycle fluctuation (``PowerTrace.fluctuation_w``).  The result
is the measured per-cycle power vector ``Y``.  The bench is fixed, so its
figures are the constants below; :class:`MeasurementConfig` holds only the
acquisition length and the noise knobs.

Acquisitions that only feed a detection decision (each Fig. 5 panel's
one acquisition and the Fig. 6 repetitions) never materialise their rows:
the detector reads only each row's phase fold and energy, and
:meth:`AcquisitionCampaign.measure_folded` draws exactly those from their
joint distribution with ``period + 2`` draws per acquisition instead of
``num_cycles``.  :meth:`AcquisitionCampaign.measure` draws the per-cycle
row for callers that display it (Fig. 3).
"""

from __future__ import annotations

import math
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
from repro.power.estimator import SUPPLY_VOLTAGE_V
from repro.power.trace import PowerTrace

#: Oscilloscope samples averaged into one per-cycle power value: 500 MS/s
#: over the chips' 10 MHz clock.
SAMPLES_PER_CYCLE = 50
#: The shunt resistor the chip's supply current flows through (ohm).
SHUNT_RESISTANCE_OHM = 0.270
#: Resolution of the oscilloscope's ADC.
ADC_BITS = 8
#: Vertical-range headroom of the oscilloscope: the full scale is set this
#: much above the trace's peak shunt voltage, which sets the ADC's LSB.
RANGE_HEADROOM = 1.25


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
        transient = transient_residual_sigma(
            mean_power_w,
            self.config.transient_noise_floor_w,
            self.config.transient_noise_fraction,
        )
        probe_power = self.config.probe_noise_rms_v / SHUNT_RESISTANCE_OHM * SUPPLY_VOLTAGE_V
        quant_power = (
            quantization_noise_rms(full_scale_v, ADC_BITS)
            / SHUNT_RESISTANCE_OHM
            * SUPPLY_VOLTAGE_V
        )
        per_sample = np.sqrt(probe_power**2 + quant_power**2)
        return float(np.sqrt(transient**2 + (per_sample**2) / SAMPLES_PER_CYCLE))

    # -- measurement -------------------------------------------------------------

    def measure(self, power_trace: PowerTrace, seed: int) -> np.ndarray:
        """Measure a chip power trace and return the CPA vector ``Y``.

        The noise is drawn from the ``"noise"`` stream of ``seed``.
        """
        power = power_trace.power_w
        sigma = self._trace_sigma(power_trace)
        return power + gaussian_noise(stream(seed, "noise"), sigma, len(power))

    def _trace_sigma(self, power_trace: PowerTrace) -> float:
        """Effective per-cycle noise sigma of one power trace's acquisition.

        The chain's sigma, set by the mean and peak of ``power_w``, in
        quadrature with the trace's own Gaussian ``fluctuation_w``.  Shared
        by :meth:`measure` and :meth:`measure_folded` so the two can never
        drift apart on the acquisition-chain statistics.
        """
        power = power_trace.power_w
        mean_power = float(np.mean(power)) if len(power) else 0.0
        peak_voltage = (power_trace.peak_power_w / SUPPLY_VOLTAGE_V) * SHUNT_RESISTANCE_OHM
        full_scale = max(peak_voltage * RANGE_HEADROOM, 1e-6)
        return math.hypot(
            self.per_cycle_noise_sigma(mean_power, full_scale), power_trace.fluctuation_w
        )

    def measure_many(self, power_trace: PowerTrace, seeds: Sequence[int]) -> np.ndarray:
        """Measure the same power trace once per seed into a trial matrix.

        Returns a ``len(seeds) x num_cycles`` array whose row ``r`` is
        ``measure(power_trace, seeds[r])``.
        """
        seeds = list(seeds)
        if not seeds:
            raise ValueError("at least one seed is required")
        return np.stack([self.measure(power_trace, seed) for seed in seeds])

    def measure_folded(
        self, power_trace: PowerTrace, seeds: Sequence[int], period: int
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

        The row's statistics are ``folded = fold(s) + fold(n)`` and its
        energy.  A row is ``tile(folded / k)`` plus its part orthogonal to
        the phases: ``r``, plus ``sigma z`` along ``r``, plus energy
        ``sigma^2 chi2`` orthogonal to both, so
        ``sum_yy = sum(folded^2 / k) + (|r| + sigma z)^2 + sigma^2 chi2``.
        With ``N = P`` there is no residual (no ``z``, no ``chi2``) and with
        ``N = P + 1`` no ``chi2``; a zero sigma draws nothing and gives
        exactly ``fold(s)`` and ``s.s``.
        """
        seeds = list(seeds)
        if not seeds:
            raise ValueError("at least one seed is required")
        power = power_trace.power_w
        num_cycles = len(power)
        power_fold, counts = fold_by_phase(power, period)
        sigma = self._trace_sigma(power_trace)
        if sigma == 0.0:
            folded = np.repeat(power_fold, len(seeds), axis=0)
            return PhaseFold(folded, np.full(len(seeds), sum_of_squares(power)), num_cycles)

        # r = s - tile(m), built one period at a time.
        means = power_fold[0] / counts
        residual = power.copy()
        full = num_cycles - num_cycles % period
        blocks = residual[:full].reshape(-1, period)
        blocks -= means
        residual[full:] -= means[: num_cycles - full]
        residual_norm = np.sqrt(sum_of_squares(residual))
        residual_dims = num_cycles - period
        folded = np.empty((len(seeds), period))
        along_residual = np.zeros(len(seeds))
        chi2 = np.zeros(len(seeds))
        for index, seed in enumerate(seeds):
            rng = stream(seed, "noise")
            rng.standard_normal(out=folded[index])
            if residual_dims >= 1:
                along_residual[index] = rng.standard_normal()
            if residual_dims >= 2:
                chi2[index] = rng.chisquare(residual_dims - 1)
        folded *= sigma * np.sqrt(counts)
        folded += power_fold
        # einsum sums each row in one fixed order, whatever the batch size.
        sum_yy = np.einsum("ij,ij,j->i", folded, folded, 1.0 / counts)
        along_r = residual_norm + sigma * along_residual
        sum_yy += along_r * along_r + sigma * sigma * chi2
        return PhaseFold(folded, sum_yy, num_cycles)
