"""Unit tests for repro.detection.cpa, against the literal CPA oracle."""

import numpy as np
import pytest
from trial_oracle import fold_rows, naive_rotation_correlations, pearson_correlation

from repro.core.config import DetectionConfig
from repro.core.lfsr import LFSR
from repro.detection.cpa import CPADetector, rotation_correlations


def make_measurement(period=63, num_cycles=5000, amplitude=1.0, noise=5.0, offset=17, seed=0):
    """A binary watermark embedded in Gaussian noise, rotated by ``offset``."""
    rng = np.random.default_rng(seed)
    sequence = LFSR(width=int(np.log2(period + 1)), seed=1).sequence()
    tiled = np.tile(sequence, int(np.ceil((num_cycles + offset) / period)))
    watermark = tiled[offset : offset + num_cycles].astype(float) * amplitude
    measured = 10.0 + watermark + rng.normal(0, noise, num_cycles)
    return sequence, measured


class TestPearsonCorrelation:
    def test_perfect_correlation(self):
        x = np.array([0.0, 1.0, 2.0, 3.0])
        assert pearson_correlation(x, 2 * x + 1) == pytest.approx(1.0)

    def test_perfect_anticorrelation(self):
        x = np.array([0.0, 1.0, 2.0, 3.0])
        assert pearson_correlation(x, -x) == pytest.approx(-1.0)

    def test_zero_variance_returns_zero(self):
        assert pearson_correlation(np.ones(10), np.arange(10)) == 0.0

    def test_independent_noise_near_zero(self):
        rng = np.random.default_rng(1)
        rho = pearson_correlation(rng.normal(size=100_000), rng.normal(size=100_000))
        assert abs(rho) < 0.02

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            pearson_correlation(np.ones(3), np.ones(4))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            pearson_correlation(np.array([]), np.array([]))

    def test_matches_numpy_corrcoef(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=1000)
        y = 0.3 * x + rng.normal(size=1000)
        assert pearson_correlation(x, y) == pytest.approx(np.corrcoef(x, y)[0, 1])


class TestRotationCorrelations:
    def test_fft_matches_naive(self):
        sequence, measured = make_measurement(period=63, num_cycles=2000)
        fft_result = rotation_correlations(sequence, measured)
        naive_result = naive_rotation_correlations(sequence, measured)
        assert np.allclose(fft_result, naive_result, atol=1e-10)

    def test_fft_matches_naive_non_multiple_length(self):
        sequence, measured = make_measurement(period=63, num_cycles=2017)
        assert np.allclose(
            rotation_correlations(sequence, measured),
            naive_rotation_correlations(sequence, measured),
            atol=1e-10,
        )

    def test_peak_at_injected_offset(self):
        sequence, measured = make_measurement(offset=17, noise=1.0)
        correlations = rotation_correlations(sequence, measured)
        assert int(np.argmax(correlations)) == 17

    def test_number_of_rotations_equals_period(self):
        sequence, measured = make_measurement(period=31, num_cycles=1000)
        assert len(rotation_correlations(sequence, measured)) == 31

    def test_clean_signal_gives_unity_peak(self):
        sequence = LFSR(width=6, seed=1).sequence()
        measured = np.tile(sequence, 10).astype(float)
        correlations = rotation_correlations(sequence, measured)
        assert correlations[0] == pytest.approx(1.0)

    def test_correlations_bounded(self):
        sequence, measured = make_measurement()
        correlations = rotation_correlations(sequence, measured)
        assert np.all(np.abs(correlations) <= 1.0 + 1e-12)

    def test_short_measurement_rejected(self):
        sequence = LFSR(width=8, seed=1).sequence()
        with pytest.raises(ValueError):
            rotation_correlations(sequence, np.ones(10))

    def test_non_binary_sequence_supported(self):
        rng = np.random.default_rng(3)
        sequence = rng.normal(size=63)
        measured = np.tile(sequence, 40) + rng.normal(0, 0.1, 63 * 40)
        fft_result = rotation_correlations(sequence, measured)
        naive_result = naive_rotation_correlations(sequence, measured)
        assert np.allclose(fft_result, naive_result, atol=1e-10)
        assert int(np.argmax(fft_result)) == 0


class TestCPADetector:
    def test_detects_embedded_watermark(self):
        sequence, measured = make_measurement(num_cycles=20_000, amplitude=1.0, noise=4.0, offset=29)
        result = CPADetector().detect(sequence, measured)
        assert result.detected
        assert result.peak_rotation == 29
        assert result.z_score > 4.0

    def test_does_not_detect_pure_noise(self):
        rng = np.random.default_rng(5)
        sequence = LFSR(width=8, seed=1).sequence()
        detections = []
        for i in range(5):
            measured = rng.normal(10.0, 3.0, 30_000)
            detections.append(CPADetector().detect(sequence, measured).detected)
        assert sum(detections) == 0

    def test_negative_watermark_not_reported_as_detected(self):
        sequence, measured = make_measurement(num_cycles=20_000, amplitude=1.0, noise=2.0)
        inverted = 2 * np.mean(measured) - measured
        result = CPADetector().detect(sequence, inverted)
        assert result.peak_correlation < 0
        assert not result.detected

    def test_threshold_configurable(self):
        sequence, measured = make_measurement(num_cycles=8_000, amplitude=0.6, noise=5.0)
        lenient = CPADetector(DetectionConfig(detection_threshold=1.0, uniqueness_margin=1.0))
        strict = CPADetector(DetectionConfig(detection_threshold=50.0))
        assert lenient.detect(sequence, measured).z_score == strict.detect(sequence, measured).z_score
        assert not strict.detect(sequence, measured).detected

    def test_detect_reads_a_one_row_phase_fold(self):
        sequence, measured = make_measurement(num_cycles=20_000, noise=4.0, offset=29)
        from_trace = CPADetector().detect(sequence, measured)
        from_fold = CPADetector().detect(sequence, fold_rows([measured], len(sequence)))
        assert np.array_equal(from_fold.correlations, from_trace.correlations)
        assert from_fold.z_score == from_trace.z_score
        assert from_fold.detected and from_fold.peak_rotation == 29

    def test_detect_rejects_more_than_one_trace(self):
        sequence, measured = make_measurement()
        two = np.stack([measured, measured])
        with pytest.raises(ValueError, match="one 1-D trace or a one-row phase fold"):
            CPADetector().detect(sequence, two)
        with pytest.raises(ValueError, match="one 1-D trace or a one-row phase fold"):
            CPADetector().detect(sequence, fold_rows(two, len(sequence)))

    def test_evaluate_requires_enough_rotations(self):
        with pytest.raises(ValueError):
            CPADetector().evaluate(np.array([0.1, 0.2]))

    def test_result_summary_string(self):
        sequence, measured = make_measurement(num_cycles=20_000, noise=2.0)
        result = CPADetector().detect(sequence, measured)
        assert "rho" in result.summary()
        assert len(result.correlations) == 63

    def test_summary_formats_infinite_z_score(self):
        # Zero noise floor (all off-peak correlations identical) drives the
        # z-score to infinity; the summary must stay readable.
        spectrum = np.zeros(5)
        spectrum[2] = 0.7
        result = CPADetector().evaluate(spectrum)
        assert np.isinf(result.z_score)
        summary = result.summary()
        assert "zero noise floor" in summary
        assert "z=inf" in summary
