"""Unit tests for repro.detection.metrics."""

import numpy as np
import pytest

from repro.detection.metrics import estimate_required_cycles, expected_correlation


class TestSNRAndExpectedCorrelation:
    def test_expected_correlation_formula(self):
        # a = 2, sigma = 1, duty 0.5 -> signal std 1 -> rho = 1/sqrt(2)
        assert expected_correlation(2.0, 1.0) == pytest.approx(1 / np.sqrt(2))

    def test_expected_correlation_small_signal_limit(self):
        rho = expected_correlation(1.5e-3, 44e-3)
        assert rho == pytest.approx(0.5 * 1.5e-3 / 44e-3, rel=0.01)

    def test_expected_correlation_validation(self):
        with pytest.raises(ValueError):
            expected_correlation(1.0, 1.0, duty=0.0)

    def test_expected_correlation_matches_simulation(self):
        rng = np.random.default_rng(0)
        duty = 0.5
        wmark = (rng.random(200_000) < duty).astype(float)
        y = 2.0 * wmark + rng.normal(0, 5.0, len(wmark))
        simulated = np.corrcoef(wmark, y)[0, 1]
        assert expected_correlation(2.0, 5.0, duty) == pytest.approx(simulated, abs=0.01)


class TestRequiredCycles:
    def test_paper_operating_point_is_feasible(self):
        # With the calibrated rho ~ 0.017 the paper's 300,000 cycles suffice.
        required = estimate_required_cycles(0.017, num_rotations=4095)
        assert required < 300_000

    def test_smaller_correlation_needs_more_cycles(self):
        assert estimate_required_cycles(0.005, 4095) > estimate_required_cycles(0.02, 4095)

    def test_validation(self):
        with pytest.raises(ValueError):
            estimate_required_cycles(0.0, 4095)
        with pytest.raises(ValueError):
            estimate_required_cycles(0.5, 1)
        with pytest.raises(ValueError):
            estimate_required_cycles(0.5, 4095, confidence_sigma=0.0)

