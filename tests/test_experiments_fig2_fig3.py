"""Tests for the Fig. 2 and Fig. 3 experiments, run through the pipeline."""

import numpy as np
import pytest

from repro.core.config import MeasurementConfig
from repro.pipeline import ScenarioSpec, run_scenario


def simulate_fig2(num_cycles=64):
    spec = ScenarioSpec(
        kind="fig2",
        name="fig2",
        seed=0b1001,
        params={"num_cycles": num_cycles, "register_count": 8, "lfsr_width": 4},
    )
    return run_scenario(spec).payload


class TestFig2:
    def test_waveform_lengths(self):
        result = simulate_fig2(num_cycles=64)
        assert result.num_cycles == 64
        assert len(result.wmark) == 64
        assert len(result.baseline_toggles) == 64
        assert len(result.clock_modulation_toggles) == 64

    def test_both_architectures_idle_when_wmark_low(self):
        assert simulate_fig2().idle_when_wmark_low

    def test_clock_modulation_switches_more_per_register(self):
        result = simulate_fig2()
        assert (
            result.clock_modulation_toggles_per_active_register
            > result.baseline_toggles_per_active_register
        )

    def test_wmark_drives_both_loads(self):
        result = simulate_fig2(num_cycles=60)
        high = result.wmark.astype(bool)
        assert np.all(result.baseline_toggles[high] > 0)
        assert np.all(result.clock_modulation_toggles[high] > 0)

    def test_text_rendering(self):
        text = simulate_fig2().to_text()
        assert "WMARK" in text
        assert "clock modulation" in text

    def test_invalid_cycles_rejected(self):
        with pytest.raises(ValueError):
            simulate_fig2(num_cycles=0)


class TestFig3:
    @pytest.fixture(scope="class")
    def result(self):
        spec = ScenarioSpec(
            kind="fig3",
            name="fig3",
            chip="chip1",
            measurement=MeasurementConfig(num_cycles=2048),
            seed=7,
            params={"num_cycles": 2048},
        )
        return run_scenario(spec).payload

    def test_total_is_sum_of_components(self, result):
        assert np.allclose(
            result.total_power.power_w,
            result.system_power.power_w + result.watermark_power.power_w,
        )

    def test_watermark_much_smaller_than_system(self, result):
        assert result.watermark_power.average_power_w < result.system_power.average_power_w

    def test_modulation_amplitude_matches_load_power(self, result):
        # The modulation amplitude is the clock-modulated bank's active power
        # (paper: ~1.5 mW) plus a small enable-logic contribution.
        assert 1.3e-3 < result.watermark_amplitude_w < 1.9e-3

    def test_deeply_embedded(self, result):
        assert result.deeply_embedded
        assert result.relative_amplitude < 0.5

    def test_text_rendering(self, result):
        text = result.to_text()
        assert "watermark power signal" in text
        assert "deeply embedded" in text
