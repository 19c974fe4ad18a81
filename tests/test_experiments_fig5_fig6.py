"""Tests for the Fig. 5 and Fig. 6 experiments, run through the pipeline (reduced length).

The reduced-length runs keep the suite fast; the benchmark harness runs the
full 300,000-cycle, 100-repetition campaigns.  To keep detection reliable
at the shorter trace length the tests use a shorter watermark sequence
(fewer rotations) and correspondingly lower acquisition noise.
"""

import numpy as np
import pytest
from paper_values import single_resolvable_peak

from repro.core.config import (
    DetectionConfig,
    ExperimentConfig,
    MeasurementConfig,
    WatermarkConfig,
)
from repro.detection.cpa import CPADetector
from repro.measurement.acquisition import AcquisitionCampaign
from repro.pipeline import ExperimentRunner, ScenarioSpec, run_scenario


@pytest.fixture(scope="module")
def reduced_config() -> ExperimentConfig:
    return ExperimentConfig(
        watermark=WatermarkConfig(lfsr_width=9, lfsr_seed=0x1AB),
        measurement=MeasurementConfig(
            num_cycles=60_000,
            transient_noise_floor_w=0.020,
            transient_noise_fraction=0.4,
            seed=11,
        ),
        detection=DetectionConfig(),
    )


def make_spec(kind, config, **fields):
    return ScenarioSpec(
        kind=kind,
        watermark=config.watermark,
        measurement=config.measurement,
        detection=config.detection,
        m0_window_cycles=2048,
        **fields,
    )


def run(kind, config, **fields):
    return run_scenario(make_spec(kind, config, **fields)).payload


def fig5_panel_spec(chip_name, watermark_active, config, phase_offset=None):
    return make_spec(
        "fig5_panel",
        config,
        name=f"fig5/{chip_name}-{'active' if watermark_active else 'inactive'}",
        chip=chip_name,
        watermark_active=watermark_active,
        seed=100,
        phase_offset=phase_offset,
    )


def fig5_panel(chip_name, watermark_active, config, phase_offset=None):
    return run_scenario(
        fig5_panel_spec(chip_name, watermark_active, config, phase_offset)
    ).payload


def planted_spectrum(peak_value=0.02, peak_rotation=100, size=4095, noise=0.002, seed=0):
    """Gaussian off-peak correlations with one planted peak."""
    rng = np.random.default_rng(seed)
    correlations = rng.normal(0, noise, size)
    correlations[min(peak_rotation, size - 1)] = peak_value
    return correlations


class TestPanelSpectrum:
    """A panel's spread spectrum is its ``CPAResult``'s correlations."""

    def test_peak_properties(self):
        cpa = CPADetector().evaluate(planted_spectrum(peak_value=0.02, peak_rotation=1234))
        assert cpa.peak_rotation == 1234
        assert cpa.peak_correlation == pytest.approx(0.02)
        assert len(cpa.correlations) == 4095

    # The Fig. 5 "single resolvable peak" criterion the experiment tests
    # assert with (tests/paper_values.py).
    def test_single_resolvable_peak(self):
        assert single_resolvable_peak(planted_spectrum(peak_value=0.02))

    def test_no_peak_in_noise_only_spectrum(self):
        rng = np.random.default_rng(1)
        assert not single_resolvable_peak(rng.normal(0, 0.002, 4095))

    def test_two_peaks_not_single(self):
        correlations = planted_spectrum(peak_value=0.02)
        correlations[2000] = 0.019
        assert not single_resolvable_peak(correlations)

    def test_validation(self):
        with pytest.raises(ValueError):
            CPADetector().evaluate(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            CPADetector().evaluate(np.array([0.1]))


class TestFig5Panels:
    def test_chip1_active_detected(self, reduced_config):
        panel = fig5_panel("chip1", True, reduced_config)
        assert panel.cpa.detected
        assert single_resolvable_peak(panel.cpa.correlations)

    def test_panel_decides_from_one_measured_phase_fold(self, reduced_config):
        # The panel's spectrum is, bit for bit, the single-trace detection of
        # one measure_folded draw of the chip's total power under the panel seed.
        spec = fig5_panel_spec("chip1", True, reduced_config, phase_offset=123)
        runner = ExperimentRunner()
        panel = runner.run(spec).payload
        chip = runner.chip_for(spec)
        sequence = chip.watermark_sequence()
        power = chip.total_power(
            spec.measurement.num_cycles,
            watermark_active=True,
            seed=spec.seed,
            watermark_phase_offset=spec.phase_offset,
        )
        fold = AcquisitionCampaign(spec.measurement).measure_folded(
            power, [spec.seed], len(sequence)
        )
        expected = CPADetector(spec.detection).detect(sequence, fold)
        assert np.array_equal(panel.cpa.correlations, expected.correlations)
        assert panel.cpa.detected == expected.detected
        assert panel.cpa.z_score == expected.z_score

    def test_chip1_inactive_not_detected(self, reduced_config):
        panel = fig5_panel("chip1", False, reduced_config)
        assert not panel.cpa.detected
        assert abs(panel.cpa.peak_correlation) < 0.02

    def test_peak_appears_at_requested_phase(self, reduced_config):
        panel = fig5_panel("chip1", True, reduced_config, phase_offset=123)
        assert panel.cpa.peak_rotation == 123

    def test_chip2_peak_lower_than_chip1(self, reduced_config):
        chip1 = fig5_panel("chip1", True, reduced_config)
        chip2 = fig5_panel("chip2", True, reduced_config)
        assert chip2.cpa.peak_correlation < chip1.cpa.peak_correlation
        assert chip2.cpa.detected

    def test_full_figure_runner(self, reduced_config):
        result = run("fig5", reduced_config, name="fig5", seed=100)
        assert len(result.panels) == 4
        assert result.all_active_panels_detected
        assert result.no_inactive_panel_detected
        assert "chip1" in result.to_text()

    def test_panel_lookup(self, reduced_config):
        result = run("fig5", reduced_config, name="fig5", seed=100)
        panel = result.panels["chip2/inactive"]
        assert panel.chip_name == "chip2"
        assert not panel.watermark_active
        assert sorted(result.panels) == [
            "chip1/active", "chip1/inactive", "chip2/active", "chip2/inactive"
        ]


class TestFig6ReducedCampaign:
    def test_repeatability_statistics(self, reduced_config):
        result = run(
            "fig6_chip", reduced_config, name="fig6/chip1", chip="chip1", seed=1000, repetitions=12
        )
        assert result.statistics.repetitions == 12
        assert result.detection_rate == 1.0
        assert result.peak_separated
        assert result.peak_box.median > result.off_peak_box.median

    def test_invalid_repetitions_rejected(self, reduced_config):
        with pytest.raises(ValueError):
            run(
                "fig6_chip", reduced_config, name="fig6/chip1", chip="chip1", seed=1000, repetitions=0
            )
