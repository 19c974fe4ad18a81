"""Detection-quality metrics and sizing helpers."""

from __future__ import annotations

import numpy as np


def expected_correlation(watermark_amplitude_w: float, noise_sigma_w: float, duty: float = 0.5) -> float:
    """Expected peak correlation for a binary watermark in Gaussian noise.

    For a 0/1 watermark of amplitude ``a`` and duty cycle ``d`` added to
    noise of standard deviation ``sigma``, the population correlation is
    ``a * sqrt(d (1 - d)) / sqrt(a^2 d (1 - d) + sigma^2)``.
    """
    if not 0.0 < duty < 1.0:
        raise ValueError("duty cycle must be in (0, 1)")
    if noise_sigma_w < 0 or watermark_amplitude_w < 0:
        raise ValueError("amplitude and noise must be non-negative")
    signal_std = watermark_amplitude_w * np.sqrt(duty * (1.0 - duty))
    total_std = np.sqrt(signal_std**2 + noise_sigma_w**2)
    if total_std == 0:
        return 0.0
    return float(signal_std / total_std)


def estimate_required_cycles(
    expected_rho: float,
    num_rotations: int,
    confidence_sigma: float = 4.0,
) -> int:
    """Number of cycles needed to resolve a correlation peak.

    The off-peak correlation of ``N`` independent cycles has standard
    deviation ``1/sqrt(N)``; the peak is resolvable when
    ``expected_rho >= confidence_sigma / sqrt(N)`` with margin for the
    maximum over ``num_rotations`` rotations (approximated via the usual
    sqrt(2 ln R) extreme-value factor).
    """
    if not 0.0 < expected_rho < 1.0:
        raise ValueError("expected correlation must be in (0, 1)")
    if num_rotations < 2:
        raise ValueError("need at least two rotations")
    if confidence_sigma <= 0:
        raise ValueError("confidence must be positive")
    extreme_factor = np.sqrt(2.0 * np.log(num_rotations))
    required_sigma = confidence_sigma + extreme_factor
    return int(np.ceil((required_sigma / expected_rho) ** 2))
