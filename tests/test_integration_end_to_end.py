"""End-to-end integration tests across all subsystems.

These tests walk the full pipeline the paper describes: build a watermarked
SoC model, run the workload, measure the supply power through the modelled
bench setup, and detect (or correctly fail to detect) the watermark with
CPA -- plus the structural embedding/attack loop.
"""

import numpy as np
import pytest
from cpu_programs import background_power_running, idle_loop_program, memcopy_program

from repro.core.architectures import BaselineWatermark, ClockModulationWatermark
from repro.core.config import (
    DetectionConfig,
    ExperimentConfig,
    MeasurementConfig,
    WatermarkConfig,
)
from repro.detection.cpa import CPADetector
from repro.measurement.acquisition import AcquisitionCampaign
from repro.soc.chip import build_chip_one, build_chip_two


@pytest.fixture(scope="module")
def pipeline_config() -> ExperimentConfig:
    return ExperimentConfig(
        watermark=WatermarkConfig(lfsr_width=9, lfsr_seed=0x155),
        measurement=MeasurementConfig(
            num_cycles=50_000,
            transient_noise_floor_w=0.018,
            transient_noise_fraction=0.4,
            seed=3,
        ),
    )


class TestFullDetectionPipeline:
    def test_clock_modulation_watermark_detected_through_full_chain(self, pipeline_config):
        watermark = ClockModulationWatermark.from_config(pipeline_config.watermark)
        chip = build_chip_one(watermark=watermark, m0_window_cycles=2048)
        power = chip.total_power(
            pipeline_config.measurement.num_cycles, watermark_active=True, seed=1,
            watermark_phase_offset=200,
        )
        measured = AcquisitionCampaign(pipeline_config.measurement).measure(power, seed=2)
        result = CPADetector(pipeline_config.detection).detect(chip.watermark_sequence(), measured.values)
        assert result.detected
        assert result.peak_rotation == 200

    def test_baseline_watermark_also_detectable(self, pipeline_config):
        config = pipeline_config.watermark
        baseline = BaselineWatermark.from_config(
            WatermarkConfig(
                architecture=config.architecture,
                lfsr_width=config.lfsr_width,
                lfsr_seed=config.lfsr_seed,
                load_registers=576,
            )
        )
        chip = build_chip_one(watermark=baseline, m0_window_cycles=2048)
        power = chip.total_power(pipeline_config.measurement.num_cycles, seed=4)
        measured = AcquisitionCampaign(pipeline_config.measurement).measure(power, seed=5)
        result = CPADetector().detect(chip.watermark_sequence(), measured.values)
        assert result.detected

    def test_wrong_sequence_is_not_detected(self, pipeline_config):
        # A different seed of the same maximum-length LFSR only rotates the
        # sequence (and is therefore still detected -- CPA is phase blind),
        # so a genuinely wrong model must come from a different generator.
        watermark = ClockModulationWatermark.from_config(pipeline_config.watermark)
        chip = build_chip_one(watermark=watermark, m0_window_cycles=2048)
        power = chip.total_power(pipeline_config.measurement.num_cycles, seed=6)
        measured = AcquisitionCampaign(pipeline_config.measurement).measure(power, seed=7)
        rng = np.random.default_rng(99)
        wrong = (rng.random(len(chip.watermark_sequence())) < 0.5).astype(float)
        result = CPADetector().detect(wrong, measured.values)
        assert not result.detected

    def test_detection_works_under_different_workloads(self, pipeline_config):
        num_cycles = pipeline_config.measurement.num_cycles
        watermark = ClockModulationWatermark.from_config(pipeline_config.watermark)
        chip = build_chip_one(watermark=watermark, m0_window_cycles=2048)
        for program_factory in (idle_loop_program, memcopy_program):
            background = background_power_running(chip, program_factory(), num_cycles, seed=8)
            power = background.add(chip.watermark_power(num_cycles))
            measured = AcquisitionCampaign(pipeline_config.measurement).measure(power, seed=9)
            result = CPADetector().detect(chip.watermark_sequence(), measured.values)
            assert result.detected, program_factory.__name__

    def test_chip2_background_reduces_peak_but_not_detection(self, pipeline_config):
        watermark1 = ClockModulationWatermark.from_config(pipeline_config.watermark)
        watermark2 = ClockModulationWatermark.from_config(pipeline_config.watermark)
        chip1 = build_chip_one(watermark=watermark1, m0_window_cycles=2048)
        chip2 = build_chip_two(watermark=watermark2, m0_window_cycles=2048)
        campaign = AcquisitionCampaign(pipeline_config.measurement)
        detector = CPADetector()
        results = {}
        for name, chip in (("chip1", chip1), ("chip2", chip2)):
            power = chip.total_power(pipeline_config.measurement.num_cycles, seed=10)
            measured = campaign.measure(power, seed=11)
            results[name] = detector.detect(chip.watermark_sequence(), measured.values)
        assert results["chip1"].detected and results["chip2"].detected
        assert results["chip2"].peak_correlation < results["chip1"].peak_correlation

    def test_more_cycles_improve_confidence(self, pipeline_config):
        watermark = ClockModulationWatermark.from_config(pipeline_config.watermark)
        chip = build_chip_one(watermark=watermark, m0_window_cycles=2048)
        campaign = AcquisitionCampaign(pipeline_config.measurement)
        detector = CPADetector()
        z_scores = []
        for cycles in (15_000, 60_000):
            power = chip.total_power(cycles, seed=12)
            measured = campaign.measure(power, seed=13)
            z_scores.append(detector.detect(chip.watermark_sequence(), measured.values).z_score)
        assert z_scores[1] > z_scores[0]
