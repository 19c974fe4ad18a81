"""Unit tests for repro.detection.campaign."""

import numpy as np
import pytest

from repro.core.lfsr import LFSR
from repro.core.seeds import stream
from repro.detection.batch import BatchCPADetector
from repro.detection.campaign import (
    DetectionOperatingPoint,
    run_detection_probability_campaign,
)
from repro.detection.metrics import estimate_required_cycles, expected_correlation
from repro.pipeline import run_scenario
from repro.power.synthesis import TraceSynthesizer

# Golden values for one small operating point (7-bit LFSR, 1.5 mW watermark,
# 15 mW noise, 12 trials, seed 42), drawn as trial folds.  Any change to the
# campaign's random stream or to the detection maths shows up here as a hard
# failure.
_GOLDEN_SEED = 42
_GOLDEN_POINTS = [
    # (num_cycles, detections, mean_peak_correlation, mean_z_score)
    (1_000, 0, 0.034169867036946605, 2.7851807499179286),
    (4_000, 1, 0.021236306108472495, 3.293647324267203),
    (16_000, 12, 0.051879790201471127, 6.563121113628828),
]


def _golden_curve():
    sequence = LFSR(width=7, seed=0x41).sequence()
    return run_detection_probability_campaign(
        sequence,
        watermark_amplitude_w=1.5e-3,
        noise_sigma_w=15e-3,
        cycle_counts=tuple(point[0] for point in _GOLDEN_POINTS),
        trials_per_point=12,
        seed=_GOLDEN_SEED,
    )


@pytest.fixture(scope="module")
def sequence():
    return LFSR(width=8, seed=0x2D).sequence()


class TestDetectionOperatingPoint:
    def test_probability(self):
        point = DetectionOperatingPoint(
            num_cycles=1000, trials=20, detections=15, mean_peak_correlation=0.1, mean_z_score=5.0
        )
        assert point.detection_probability == pytest.approx(0.75)

    def test_zero_trials(self):
        point = DetectionOperatingPoint(0, 0, 0, 0.0, 0.0)
        assert point.detection_probability == 0.0


class TestCampaign:
    @pytest.fixture(scope="class")
    def curve(self, sequence):
        return run_detection_probability_campaign(
            sequence,
            watermark_amplitude_w=1.5e-3,
            noise_sigma_w=20e-3,
            cycle_counts=(2_000, 10_000, 40_000),
            trials_per_point=15,
            seed=1,
        )

    def test_curve_has_all_points(self, curve):
        assert [p.num_cycles for p in curve.points] == [2_000, 10_000, 40_000]
        assert all(p.trials == 15 for p in curve.points)

    def test_probability_increases_with_cycles(self, curve):
        probabilities = [p.detection_probability for p in curve.points]
        assert probabilities[-1] > probabilities[0]
        assert probabilities[-1] == 1.0
        assert all(b >= a - 0.15 for a, b in zip(probabilities, probabilities[1:]))

    def test_analytical_estimate_consistent_with_empirical(self, curve):
        empirical = curve.empirical_required_cycles(target_probability=0.95)
        assert empirical is not None
        # The analytical estimate must land within the evaluated range and be
        # of the same order as the empirical crossover.
        assert curve.analytical_required_cycles < 200_000
        assert empirical <= 40_000

    def test_expected_rho(self, curve):
        assert 0.02 < curve.expected_rho < 0.06

    def test_text_rendering(self, curve):
        text = curve.to_text()
        assert "P(detect)" in text
        assert "analytical" in text

    def test_empirical_required_cycles_none_when_unreachable(self, sequence):
        curve = run_detection_probability_campaign(
            sequence,
            watermark_amplitude_w=0.05e-3,
            noise_sigma_w=50e-3,
            cycle_counts=(1_000,),
            trials_per_point=5,
            seed=2,
        )
        assert curve.empirical_required_cycles() is None

    def test_invalid_target_probability(self, curve):
        with pytest.raises(ValueError):
            curve.empirical_required_cycles(target_probability=0.0)


class TestSeedDeterminism:
    """Same seed -> identical curve, pinned against golden values."""

    def test_campaign_reproduces_golden_points(self):
        curve = _golden_curve()
        assert len(curve.points) == len(_GOLDEN_POINTS)
        for point, (cycles, detections, mean_peak, mean_z) in zip(
            curve.points, _GOLDEN_POINTS
        ):
            assert point.num_cycles == cycles
            assert point.trials == 12
            # Detection counts are exact; the float means are pinned at a
            # tolerance loose enough to survive BLAS/FFT kernel differences
            # across numpy versions and CPUs.
            assert point.detections == detections
            assert point.mean_peak_correlation == pytest.approx(mean_peak, rel=1e-9, abs=1e-12)
            assert point.mean_z_score == pytest.approx(mean_z, rel=1e-9)

    def test_two_runs_are_identical(self):
        first = _golden_curve()
        second = _golden_curve()
        for a, b in zip(first.points, second.points):
            assert a == b

    def test_campaign_matches_its_trial_folds(self):
        # Each point draws its trials' phase folds from the one seeded
        # stream and detects them in one batched pass.
        sequence = LFSR(width=7, seed=0x41).sequence()
        curve = _golden_curve()
        synthesizer = TraceSynthesizer(
            sequence, watermark_amplitude_w=1.5e-3, noise_sigma_w=15e-3
        )
        detector = BatchCPADetector()
        rng = stream(_GOLDEN_SEED, "detection-probability")
        for point in curve.points:
            folds = synthesizer.trial_folds(12, point.num_cycles, rng)
            batch = detector.detect_many(sequence, folds)
            assert point.detections == batch.detection_count
            assert point.mean_peak_correlation == float(batch.peak_correlations.sum()) / 12
            assert point.mean_z_score == float(batch.z_scores.sum()) / 12


class TestPaperScaleCurve:
    """The registry's paper-scale curve against the analytical model."""

    @pytest.fixture(scope="class")
    def curve(self):
        return run_scenario("detection-probability").payload

    def test_analytical_model_is_unchanged(self, curve):
        rho = expected_correlation(1.5e-3, 25e-3)
        assert curve.expected_rho == rho
        assert curve.analytical_required_cycles == estimate_required_cycles(rho, 255) == 59737

    def test_paper_level_claims(self, curve):
        probabilities = {p.num_cycles: p.detection_probability for p in curve.points}
        assert probabilities[80_000] == probabilities[160_000] == 1.0
        assert probabilities[5_000] <= 0.2
        assert curve.empirical_required_cycles() == 80_000

    def test_every_point_agrees_with_the_analytical_model(self, curve):
        rho = curve.expected_rho
        required = curve.analytical_required_cycles
        threshold = 4.0  # the default detection threshold, in off-peak sigmas
        for point in curve.points:
            # The true rotation's correlation has mean rho and standard
            # deviation ~1/sqrt(N) per trial.
            true_peak_z = rho * np.sqrt(point.num_cycles)
            if point.num_cycles >= required:
                assert point.detection_probability >= 0.95, point
                spread = 1.0 / np.sqrt(point.num_cycles * point.trials)
                assert abs(point.mean_peak_correlation - rho) <= 4.0 * spread, point
                assert point.mean_z_score >= threshold, point
            elif true_peak_z <= threshold - 1.0:
                assert point.detection_probability <= 0.2, point
                assert point.mean_z_score < threshold, point
            else:
                # Between the threshold and the sufficient length the true
                # peak clears the threshold in some trials, not all.
                assert 0.2 <= point.detection_probability < 0.95, point


class TestValidation:
    def test_short_sequence_rejected(self):
        with pytest.raises(ValueError):
            run_detection_probability_campaign([1, 0], 1e-3, 1e-3, (100,))

    def test_negative_amplitude_rejected(self, sequence):
        with pytest.raises(ValueError):
            run_detection_probability_campaign(sequence, -1e-3, 1e-3, (1000,))

    def test_empty_cycle_counts_rejected(self, sequence):
        with pytest.raises(ValueError):
            run_detection_probability_campaign(sequence, 1e-3, 1e-3, ())

    def test_acquisition_shorter_than_period_rejected(self, sequence):
        with pytest.raises(ValueError):
            run_detection_probability_campaign(sequence, 1e-3, 1e-3, (10,))

    def test_invalid_trials_rejected(self, sequence):
        with pytest.raises(ValueError):
            run_detection_probability_campaign(sequence, 1e-3, 1e-3, (1000,), trials_per_point=0)
