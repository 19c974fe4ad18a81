"""Measurement: from a chip's per-cycle power to the measured vector ``Y``.

Models the bench setup of Section IV per clock cycle: the chip's supply
current flows through a 270 mOhm shunt resistor, an active differential
probe senses the shunt voltage, an oscilloscope samples it at 500 MS/s and
50 samples are averaged into one value per 10 MHz clock cycle.  The chain's
noise (probe, 8-bit quantisation, unsettled switching transients) is
applied as its statistically equivalent per-cycle Gaussian, producing the
measured power vector ``Y`` the CPA detector consumes.
"""

from repro.measurement.noise import (
    gaussian_noise,
    transient_residual_sigma,
    quantization_noise_rms,
)
from repro.measurement.acquisition import AcquisitionCampaign, MeasuredTrace

__all__ = [
    "gaussian_noise",
    "transient_residual_sigma",
    "quantization_noise_rms",
    "AcquisitionCampaign",
    "MeasuredTrace",
]
