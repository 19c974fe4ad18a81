"""Unit tests for repro.core.config."""

import dataclasses
import enum

import pytest

from repro.core.config import (
    ArchitectureKind,
    DetectionConfig,
    ExperimentConfig,
    MeasurementConfig,
    WatermarkConfig,
    _config_to_dict,
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


class TestConfigToDict:
    """The shallow field walk gives what ``dataclasses.asdict`` gives."""

    @pytest.mark.parametrize(
        "config",
        [
            WatermarkConfig(),
            WatermarkConfig(
                architecture=ArchitectureKind.BASELINE_LOAD_CIRCUIT,
                lfsr_width=8,
                lfsr_seed=0x2D,
                num_words=16,
                switching_registers=100,
                load_registers=64,
                use_test_chip_wgc=False,
            ),
            MeasurementConfig(),
            MeasurementConfig(num_cycles=12_345, probe_noise_rms_v=0.0, adc_bits=12, seed=7),
            DetectionConfig(),
            DetectionConfig(detection_threshold=5.5, uniqueness_margin=0.8),
        ],
        ids=[
            "watermark-default", "watermark-custom",
            "measurement-default", "measurement-custom",
            "detection-default", "detection-custom",
        ],
    )
    def test_matches_asdict_with_the_enum_as_its_value(self, config):
        expected = {
            key: value.value if isinstance(value, enum.Enum) else value
            for key, value in dataclasses.asdict(config).items()
        }
        payload = _config_to_dict(config)
        assert payload == expected
        assert list(payload) == list(expected)
        assert [type(value) for value in payload.values()] == [
            type(value) for value in expected.values()
        ]
        assert type(config).from_dict(payload) == config
