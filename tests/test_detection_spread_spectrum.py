"""Unit tests for repro.detection.spread_spectrum."""

import numpy as np
import pytest
from paper_values import single_resolvable_peak

from repro.detection.spread_spectrum import SpreadSpectrum


def make_spectrum(peak_value=0.02, peak_rotation=100, size=4095, noise=0.002, seed=0):
    rng = np.random.default_rng(seed)
    correlations = rng.normal(0, noise, size)
    correlations[min(peak_rotation, size - 1)] = peak_value
    return SpreadSpectrum(label="test", correlations=correlations)


class TestSpreadSpectrum:
    def test_peak_properties(self):
        spectrum = make_spectrum(peak_value=0.02, peak_rotation=1234)
        assert spectrum.peak_rotation == 1234
        assert spectrum.peak_correlation == pytest.approx(0.02)
        assert len(spectrum) == 4095

    # The Fig. 5 "single resolvable peak" criterion the experiment tests
    # assert with (tests/paper_values.py).
    def test_single_resolvable_peak(self):
        assert single_resolvable_peak(make_spectrum(peak_value=0.02).correlations)

    def test_no_peak_in_noise_only_spectrum(self):
        rng = np.random.default_rng(1)
        assert not single_resolvable_peak(rng.normal(0, 0.002, 4095))

    def test_two_peaks_not_single(self):
        correlations = make_spectrum(peak_value=0.02).correlations.copy()
        correlations[2000] = 0.019
        assert not single_resolvable_peak(correlations)

    def test_validation(self):
        with pytest.raises(ValueError):
            SpreadSpectrum("bad", np.zeros((2, 2)))
        with pytest.raises(ValueError):
            SpreadSpectrum("bad", np.array([0.1]))
