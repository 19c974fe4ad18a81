"""Noise models of the acquisition chain."""

from __future__ import annotations

from typing import Optional

import numpy as np


def gaussian_noise(
    rng: np.random.Generator, rms: float, size: int
) -> np.ndarray:
    """Zero-mean Gaussian noise with the given RMS value."""
    if rms < 0:
        raise ValueError("noise RMS must be non-negative")
    if size < 0:
        raise ValueError("size must be non-negative")
    if rms == 0:
        return np.zeros(size)
    return rng.normal(0.0, rms, size=size)


def quantization_noise_rms(full_scale: float, bits: int) -> float:
    """RMS quantisation noise of an ideal ``bits``-bit ADC.

    The classic ``LSB / sqrt(12)`` result for a uniform quantiser.
    """
    if full_scale <= 0:
        raise ValueError("full scale must be positive")
    if bits <= 0:
        raise ValueError("bit count must be positive")
    lsb = full_scale / (2 ** bits)
    return lsb / np.sqrt(12.0)


def transient_residual_sigma(
    mean_power_w: float,
    floor_w: float,
    fraction: float,
) -> float:
    """Per-cycle residual noise of unsettled switching transients.

    Averaging 50 oscilloscope samples per clock cycle does not remove the
    cycle-to-cycle variability of the switching-current transients (di/dt
    spikes, package/board resonances, vertical-range scaling of the scope).
    The residual is modelled as ``floor + fraction * mean_power``: a fixed
    floor plus a component proportional to the chip's mean power, because a
    chip that draws more current forces a larger oscilloscope vertical
    range and proportionally larger front-end/transient noise.

    The default values in :class:`repro.core.config.MeasurementConfig` are
    calibrated so that the resulting correlation amplitudes match the
    silicon measurements of the paper's Fig. 5.
    """
    if mean_power_w < 0:
        raise ValueError("mean power must be non-negative")
    if floor_w < 0 or fraction < 0:
        raise ValueError("noise parameters must be non-negative")
    return floor_w + fraction * mean_power_w
