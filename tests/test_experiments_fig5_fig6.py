"""Tests for the Fig. 5 and Fig. 6 experiments, run through the pipeline (reduced length).

The reduced-length runs keep the suite fast; the benchmark harness runs the
full 300,000-cycle, 100-repetition campaigns.  To keep detection reliable
at the shorter trace length the tests use a shorter watermark sequence
(fewer rotations) and correspondingly lower acquisition noise.
"""

import numpy as np
import pytest

from repro.core.config import (
    DetectionConfig,
    ExperimentConfig,
    MeasurementConfig,
    WatermarkConfig,
)
from repro.pipeline import ScenarioSpec, run_scenario


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


def run(kind, config, **fields):
    spec = ScenarioSpec(
        kind=kind,
        watermark=config.watermark,
        measurement=config.measurement,
        detection=config.detection,
        m0_window_cycles=2048,
        **fields,
    )
    return run_scenario(spec).payload


def fig5_panel(chip_name, watermark_active, config, phase_offset=None):
    return run(
        "fig5_panel",
        config,
        name=f"fig5/{chip_name}-{'active' if watermark_active else 'inactive'}",
        chip=chip_name,
        watermark_active=watermark_active,
        seed=100,
        phase_offset=phase_offset,
    )


class TestFig5Panels:
    def test_chip1_active_detected(self, reduced_config):
        panel = fig5_panel("chip1", True, reduced_config)
        assert panel.cpa.detected
        assert panel.spectrum.has_single_resolvable_peak()

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
        panel = result.panel("chip2", watermark_active=False)
        assert panel.chip_name == "chip2"
        with pytest.raises(KeyError):
            result.panel("chip3", True)


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
