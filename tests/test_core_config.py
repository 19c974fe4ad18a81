"""Unit tests for repro.core.config."""

import dataclasses

import pytest

from repro.core.config import (
    ArchitectureKind,
    DetectionConfig,
    ExperimentConfig,
    MeasurementConfig,
    WatermarkConfig,
)


class TestWatermarkConfig:
    def test_paper_defaults(self):
        config = WatermarkConfig()
        assert config.architecture is ArchitectureKind.CLOCK_MODULATION
        assert config.lfsr_width == 12
        assert config.sequence_period == 4095
        assert config.num_words * config.word_width == 1024

    def test_invalid_lfsr_width(self):
        with pytest.raises(ValueError):
            WatermarkConfig(lfsr_width=1)

    def test_zero_seed_rejected(self):
        with pytest.raises(ValueError):
            WatermarkConfig(lfsr_seed=0)

    def test_switching_registers_bound(self):
        with pytest.raises(ValueError):
            WatermarkConfig(num_words=2, word_width=8, switching_registers=17)

    def test_negative_switching_rejected(self):
        with pytest.raises(ValueError):
            WatermarkConfig(switching_registers=-1)

    def test_invalid_load_registers(self):
        with pytest.raises(ValueError):
            WatermarkConfig(load_registers=0)


class TestMeasurementConfig:
    def test_paper_defaults(self):
        config = MeasurementConfig()
        assert config.clock_frequency_hz == 10e6
        assert config.sampling_frequency_hz == 500e6
        assert config.num_cycles == 300_000
        assert config.samples_per_cycle == 50
        assert config.shunt_resistance_ohm == pytest.approx(0.270)

    def test_sampling_must_exceed_clock(self):
        with pytest.raises(ValueError):
            MeasurementConfig(clock_frequency_hz=500e6, sampling_frequency_hz=10e6)

    def test_negative_noise_rejected(self):
        with pytest.raises(ValueError):
            MeasurementConfig(transient_noise_floor_w=-1.0)
        with pytest.raises(ValueError):
            MeasurementConfig(probe_noise_rms_v=-1e-3)

    def test_low_resolution_adc_rejected(self):
        with pytest.raises(ValueError):
            MeasurementConfig(adc_bits=2)

    def test_invalid_cycle_count(self):
        with pytest.raises(ValueError):
            MeasurementConfig(num_cycles=0)


class TestDetectionConfig:
    def test_defaults(self):
        config = DetectionConfig()
        assert config.detection_threshold == 4.0
        assert 0 < config.uniqueness_margin <= 1.0
        assert [field.name for field in dataclasses.fields(config)] == [
            "detection_threshold",
            "uniqueness_margin",
        ]

    def test_invalid_threshold(self):
        with pytest.raises(ValueError):
            DetectionConfig(detection_threshold=0.0)

    def test_invalid_uniqueness_margin(self):
        with pytest.raises(ValueError):
            DetectionConfig(uniqueness_margin=1.5)


class TestExperimentConfig:
    def test_paper_defaults_bundle(self):
        config = ExperimentConfig()
        assert config.measurement.num_cycles == 300_000
        assert config.watermark.lfsr_width == 12
