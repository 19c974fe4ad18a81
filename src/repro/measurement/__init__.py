"""Measurement: from a chip's per-cycle power to the measured vector ``Y``.

Models the bench setup of Section IV per clock cycle: the chip's supply
current flows through a 270 mOhm shunt resistor, an active differential
probe senses the shunt voltage, an oscilloscope samples it at 500 MS/s and
50 samples are averaged into one value per 10 MHz clock cycle.  The chain's
noise (probe, 8-bit quantisation, unsettled switching transients) is
applied as its statistically equivalent per-cycle Gaussian, producing the
measured power vector ``Y`` the CPA detector consumes.  The bench's
figures (samples per cycle, shunt, ADC bits) are the constants of
:mod:`repro.measurement.acquisition`; the chips' clock and supply are
:mod:`repro.power.estimator`'s operating point.
"""

from repro.measurement.noise import (
    gaussian_noise,
    transient_residual_sigma,
    quantization_noise_rms,
)
from repro.measurement.acquisition import AcquisitionCampaign

__all__ = [
    "gaussian_noise",
    "transient_residual_sigma",
    "quantization_noise_rms",
    "AcquisitionCampaign",
]
