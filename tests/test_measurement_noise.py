"""Unit tests for repro.measurement.noise."""

import numpy as np
import pytest

from measurement_chain import gaussian_noise_into
from repro.measurement.noise import (
    gaussian_noise,
    quantization_noise_rms,
    transient_residual_sigma,
)


class TestGaussianNoise:
    def test_statistics(self):
        rng = np.random.default_rng(0)
        noise = gaussian_noise(rng, rms=2.0, size=200_000)
        assert noise.mean() == pytest.approx(0.0, abs=0.02)
        assert noise.std() == pytest.approx(2.0, rel=0.02)

    def test_zero_rms_returns_zeros(self):
        rng = np.random.default_rng(0)
        assert np.all(gaussian_noise(rng, 0.0, 10) == 0)

    def test_invalid_arguments(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            gaussian_noise(rng, -1.0, 10)
        with pytest.raises(ValueError):
            gaussian_noise(rng, 1.0, -1)


class TestGaussianNoiseInto:
    """The per-cycle oracle's in-place draw is the library's noise draw."""

    def test_bit_identical_to_allocating_variant(self):
        expected = gaussian_noise(np.random.default_rng(42), 1.7e-3, 5000)
        out = np.empty(5000)
        result = gaussian_noise_into(np.random.default_rng(42), 1.7e-3, out)
        assert result is out
        assert np.array_equal(out, expected)

    def test_row_of_matrix_filled_in_place(self):
        matrix = np.full((3, 1000), np.nan)
        gaussian_noise_into(np.random.default_rng(1), 2.0, matrix[1])
        assert np.all(np.isnan(matrix[0]))
        assert np.all(np.isfinite(matrix[1]))
        assert np.array_equal(matrix[1], gaussian_noise(np.random.default_rng(1), 2.0, 1000))

    def test_zero_rms_zeroes_without_consuming_draws(self):
        rng = np.random.default_rng(3)
        out = np.ones(10)
        gaussian_noise_into(rng, 0.0, out)
        assert np.all(out == 0)
        # The generator state is untouched, exactly like gaussian_noise.
        assert np.array_equal(
            rng.standard_normal(4), np.random.default_rng(3).standard_normal(4)
        )

    def test_negative_rms_rejected(self):
        with pytest.raises(ValueError):
            gaussian_noise_into(np.random.default_rng(0), -1.0, np.empty(4))


class TestQuantizationNoise:
    def test_lsb_over_sqrt12(self):
        assert quantization_noise_rms(1.0, 8) == pytest.approx((1.0 / 256) / np.sqrt(12))

    def test_more_bits_less_noise(self):
        assert quantization_noise_rms(1.0, 12) < quantization_noise_rms(1.0, 8)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            quantization_noise_rms(0.0, 8)
        with pytest.raises(ValueError):
            quantization_noise_rms(1.0, 0)


class TestTransientResidual:
    def test_floor_plus_proportional(self):
        assert transient_residual_sigma(10e-3, floor_w=0.04, fraction=0.8) == pytest.approx(0.048)

    def test_zero_power_gives_floor(self):
        assert transient_residual_sigma(0.0, floor_w=0.04, fraction=0.8) == pytest.approx(0.04)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            transient_residual_sigma(-1.0, 0.04, 0.8)
        with pytest.raises(ValueError):
            transient_residual_sigma(1.0, -0.04, 0.8)
