"""Unit tests for repro.detection.statistics."""

import numpy as np
import pytest

from repro.detection.statistics import (
    BoxPlotStats,
    RepetitionStatistics,
    detection_z_score,
)


def make_runs(num_runs=20, period=255, peak_rotation=40, peak_value=0.02, noise=0.002, seed=0):
    rng = np.random.default_rng(seed)
    runs = []
    for _ in range(num_runs):
        run = rng.normal(0, noise, period)
        run[peak_rotation] = peak_value + rng.normal(0, noise)
        runs.append(run)
    return runs


class TestScores:
    def test_detection_z_score(self):
        correlations = np.zeros(100)
        correlations[10] = 0.5
        assert detection_z_score(correlations) == float("inf")

    def test_detection_z_score_with_noise(self):
        rng = np.random.default_rng(0)
        correlations = rng.normal(0, 0.01, 1000)
        correlations[5] = 0.1
        assert detection_z_score(correlations) > 5

    def test_z_score_needs_three_values(self):
        with pytest.raises(ValueError):
            detection_z_score(np.array([0.1, 0.2]))

class TestBoxPlotStats:
    def test_from_samples(self):
        stats = BoxPlotStats.from_samples(np.linspace(0, 1, 101))
        assert stats.median == pytest.approx(0.5)
        assert stats.q1 == pytest.approx(0.25)
        assert stats.q3 == pytest.approx(0.75)

    def test_whiskers_cover_95_percent(self):
        rng = np.random.default_rng(0)
        stats = BoxPlotStats.from_samples(rng.normal(0, 1, 10_000))
        assert stats.whisker_low == pytest.approx(-1.96, abs=0.1)
        assert stats.whisker_high == pytest.approx(1.96, abs=0.1)

    def test_outliers_identified(self):
        samples = list(np.zeros(99)) + [100.0]
        stats = BoxPlotStats.from_samples(samples)
        assert 100.0 in stats.outliers

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            BoxPlotStats.from_samples([])


class TestRepetitionStatistics:
    def test_peak_rotation_identified(self):
        stats = RepetitionStatistics.from_correlation_runs("chip", make_runs())
        assert stats.peak_rotation == 40
        assert stats.repetitions == 20

    def test_peak_and_off_peak_separated(self):
        stats = RepetitionStatistics.from_correlation_runs("chip", make_runs())
        assert stats.peak_box().whisker_low > stats.off_peak_box().whisker_high
        assert stats.peak_box().median > stats.off_peak_box().median

    def test_detection_rate_with_flags(self):
        runs = make_runs(num_runs=10)
        stats = RepetitionStatistics.from_correlation_runs(
            "chip", runs, detected_flags=[True] * 8 + [False] * 2
        )
        assert stats.detection_rate == pytest.approx(0.8)

    @pytest.mark.parametrize("count", [0, 9, 11])
    def test_detection_flags_must_match_repetitions(self, count):
        # Regression: flags of any length were accepted, so the detection
        # rate was silently taken over the wrong number of repetitions.
        with pytest.raises(ValueError, match="one detection flag per repetition"):
            RepetitionStatistics.from_correlation_runs(
                "chip", make_runs(num_runs=10), detected_flags=[True] * count
            )

    def test_detection_rate_computed_from_z_scores(self):
        stats = RepetitionStatistics.from_correlation_runs("chip", make_runs(peak_value=0.05))
        assert stats.detection_rate == 1.0

    def test_requires_runs(self):
        with pytest.raises(ValueError):
            RepetitionStatistics.from_correlation_runs("chip", [])

    def test_no_separation_for_noise_only_runs(self):
        rng = np.random.default_rng(3)
        runs = [rng.normal(0, 0.002, 255) for _ in range(10)]
        stats = RepetitionStatistics.from_correlation_runs("chip", runs)
        assert stats.peak_box().whisker_low - stats.off_peak_box().whisker_high < 0.002
