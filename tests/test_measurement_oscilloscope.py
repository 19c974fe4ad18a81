"""Unit tests for the oscilloscope of the measurement-chain oracle."""

import numpy as np
import pytest

from measurement_chain import Oscilloscope


class TestDigitize:
    def test_quantisation_step(self):
        scope = Oscilloscope(adc_bits=8)
        signal = np.linspace(-1, 1, 100)
        full_scale = scope.vertical_full_scale(signal)
        lsb = 2.0 * full_scale / 256
        assert full_scale == pytest.approx(1.25)
        digitised = scope.digitize(signal)
        # Quantisation error bounded by half an LSB.
        assert np.max(np.abs(digitised - signal)) <= lsb / 2 + 1e-12

    def test_auto_range_includes_headroom(self):
        scope = Oscilloscope(range_headroom=1.25)
        assert scope.vertical_full_scale(np.array([0.0, 2.0, -1.0])) == pytest.approx(2.5)

    def test_auto_range_of_zero_signal(self):
        assert Oscilloscope().vertical_full_scale(np.zeros(4)) == 1.0

    def test_higher_resolution_reduces_error(self):
        signal = np.linspace(-0.9, 0.9, 1000)
        low = Oscilloscope(adc_bits=6).digitize(signal)
        high = Oscilloscope(adc_bits=12).digitize(signal)
        assert np.abs(high - signal).max() < np.abs(low - signal).max()


class TestCapture:
    def test_per_cycle_average_shape(self):
        scope = Oscilloscope()
        samples = np.tile(np.linspace(0, 1, 50), 10)
        per_cycle = scope.capture(samples, samples_per_cycle=50)
        assert len(per_cycle) == 10
        assert np.allclose(per_cycle, per_cycle[0])

    def test_partial_last_cycle_dropped(self):
        scope = Oscilloscope()
        assert len(scope.capture(np.ones(130), samples_per_cycle=50)) == 2

    def test_capture_shorter_than_cycle_rejected(self):
        with pytest.raises(ValueError):
            Oscilloscope().capture(np.ones(10), samples_per_cycle=50)

    def test_invalid_samples_per_cycle_rejected(self):
        with pytest.raises(ValueError):
            Oscilloscope().capture(np.ones(100), samples_per_cycle=0)

    def test_invalid_configuration_rejected(self):
        with pytest.raises(ValueError):
            Oscilloscope(adc_bits=2)
        with pytest.raises(ValueError):
            Oscilloscope(range_headroom=0.5)
