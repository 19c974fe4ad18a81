"""Unit tests for repro.analysis.masking."""

import numpy as np
import pytest

from repro.analysis.masking import run_noise_masking_study, run_starvation_study
from repro.core.lfsr import LFSR
from repro.detection.batch import BatchCPADetector
from repro.pipeline import run_scenario
from repro.power.synthesis import TraceSynthesizer


@pytest.fixture(scope="module")
def sequence():
    return LFSR(width=10, seed=0x155).sequence()


class TestNoiseMaskingStudy:
    @pytest.fixture(scope="class")
    def study(self, sequence):
        return run_noise_masking_study(
            sequence,
            watermark_amplitude_w=1.5e-3,
            base_noise_sigma_w=30e-3,
            masking_noise_levels_w=(0.0, 60e-3, 500e-3),
            num_cycles=120_000,
            seed=3,
        )

    def test_unmasked_watermark_detected(self, study):
        assert study.points[0].masking_noise_w == 0.0
        assert study.points[0].detected

    def test_enough_masking_defeats_detection(self, study):
        defeated = study.detection_defeated_at()
        assert defeated is not None
        assert defeated.masking_noise_w >= 60e-3
        assert not study.still_detected_everywhere()

    def test_peak_correlation_decreases_with_masking(self, study):
        peaks = [p.peak_correlation for p in study.points]
        assert peaks[0] > peaks[-1]

    def test_masking_cost_is_large_relative_to_watermark(self, study):
        # Defeating CPA requires masking activity orders of magnitude larger
        # than the 1.5 mW watermark itself -- masking is an expensive attack.
        defeated = study.detection_defeated_at()
        assert defeated.masking_noise_w > 10 * study.watermark_amplitude_w

    def test_text_rendering(self, study):
        text = study.to_text()
        assert "masking noise" in text
        assert "detected" in text

    def test_negative_masking_rejected(self, sequence):
        with pytest.raises(ValueError):
            run_noise_masking_study(sequence, masking_noise_levels_w=(-1.0,), num_cycles=2000)


class TestStarvationStudy:
    @pytest.fixture(scope="class")
    def study(self, sequence):
        return run_starvation_study(
            sequence,
            watermark_amplitude_w=1.5e-3,
            base_noise_sigma_w=30e-3,
            enable_duties=(1.0, 0.5, 0.02),
            # At the paper's acquisition length the peak ordering below held
            # for all of 300 seeds; at 120k cycles, for only ~87% of them.
            num_cycles=300_000,
            seed=4,
        )

    def test_full_duty_detected(self, study):
        assert study.points[0].enable_duty == 1.0
        assert study.points[0].detected

    def test_heavy_starvation_defeats_detection(self, study):
        assert not study.points[-1].detected

    def test_peak_scales_with_duty(self, study):
        peaks = [p.peak_correlation for p in study.points]
        assert peaks[0] > peaks[1] > peaks[2]

    def test_invalid_duty_rejected(self, sequence):
        with pytest.raises(ValueError):
            run_starvation_study(sequence, enable_duties=(1.5,), num_cycles=2000)


class TestMonteCarloMasking:
    def test_multiple_trials_per_point(self, sequence):
        study = run_noise_masking_study(
            sequence,
            watermark_amplitude_w=1.5e-3,
            base_noise_sigma_w=30e-3,
            masking_noise_levels_w=(0.0, 500e-3),
            num_cycles=60_000,
            seed=5,
            trials_per_point=4,
        )
        for point in study.points:
            assert point.trials == 4
            assert 0 <= point.detections <= 4
            assert point.detection_probability == point.detections / 4
        assert study.points[0].detection_probability == 1.0
        assert study.points[-1].detection_probability < 1.0

    def test_single_trial_point_probability(self, sequence):
        study = run_starvation_study(
            sequence,
            watermark_amplitude_w=1.5e-3,
            base_noise_sigma_w=30e-3,
            enable_duties=(1.0,),
            num_cycles=60_000,
            seed=6,
        )
        point = study.points[0]
        assert point.trials == 1
        assert point.detection_probability in (0.0, 1.0)
        assert point.detection_probability == float(point.detected)

    def test_invalid_trials_rejected(self, sequence):
        with pytest.raises(ValueError):
            run_noise_masking_study(sequence, num_cycles=2000, trials_per_point=0)
        with pytest.raises(ValueError):
            run_starvation_study(sequence, num_cycles=2000, trials_per_point=-1)

    def test_sweep_matches_its_trial_folds(self, sequence):
        # The sweep draws every (level, trial) fold in one call and detects
        # them in one batched pass.
        levels = (0.0, 60e-3, 500e-3)
        study = run_noise_masking_study(
            sequence,
            watermark_amplitude_w=1.5e-3,
            base_noise_sigma_w=30e-3,
            masking_noise_levels_w=levels,
            num_cycles=30_000,
            seed=8,
            trials_per_point=3,
        )
        synthesizer = TraceSynthesizer.from_sequence(
            sequence, watermark_amplitude_w=1.5e-3, noise_sigma_w=0.0
        )
        sigmas = np.repeat([np.sqrt(30e-3**2 + level**2) for level in levels], 3)
        folds = synthesizer.trial_folds(
            len(sigmas), 30_000, np.random.default_rng(8), noise_sigmas=sigmas
        )
        batch = BatchCPADetector().detect_many(sequence, folds)
        for index, point in enumerate(study.points):
            rows = slice(3 * index, 3 * index + 3)
            assert point.detections == int(np.count_nonzero(batch.detected[rows]))
            assert point.peak_correlation == float(batch.peak_correlations[rows].mean())
            assert point.z_score == float(batch.z_scores[rows].mean())

    def test_empty_sweep_has_no_points(self, sequence):
        study = run_starvation_study(sequence, enable_duties=(), num_cycles=2000)
        assert study.points == []
        assert study.detection_defeated_at() is None

    def test_text_rendering_includes_probability(self, sequence):
        study = run_noise_masking_study(
            sequence,
            masking_noise_levels_w=(0.0,),
            num_cycles=2_048,
            trials_per_point=2,
        )
        assert "P(detect)" in study.to_text()


class TestPaperScaleSweeps:
    """The registry's paper-scale sweeps keep the paper-level outcomes."""

    def test_noise_masking(self):
        study = run_scenario("masking-noise").payload
        detected = {round(p.masking_noise_w * 1e3): p.detected for p in study.points}
        assert detected[0] and detected[50]
        assert not detected[400]

    def test_starvation(self):
        study = run_scenario("masking-starvation").payload
        detected = {p.enable_duty: p.detected for p in study.points}
        assert detected[1.0]
        assert not detected[0.1] and not detected[0.02]
