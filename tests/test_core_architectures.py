"""Unit tests for repro.core.architectures."""

import numpy as np
import pytest
from rtl_oracle import SteppedWatermark

from repro.core.architectures import BaselineWatermark, ClockModulationWatermark
from repro.core.config import ArchitectureKind, WatermarkConfig
from repro.core.load_circuit import LoadCircuit
from repro.core.wgc import WatermarkGenerationCircuit


@pytest.fixture
def small_config() -> WatermarkConfig:
    return WatermarkConfig(lfsr_width=6, lfsr_seed=0x21, num_words=4, word_width=8, load_registers=32)


class TestBaselineWatermark:
    def test_kind(self):
        assert BaselineWatermark().kind is ArchitectureKind.BASELINE_LOAD_CIRCUIT

    def test_from_config(self, small_config):
        watermark = BaselineWatermark.from_config(small_config)
        assert watermark.load.register_count == 32
        assert watermark.sequence_period == 63

    def test_added_registers_equal_load_size(self):
        watermark = BaselineWatermark(load=LoadCircuit(num_registers=576))
        assert watermark.load.register_count == 576

    def test_load_activity_follows_wmark(self, small_config):
        watermark = BaselineWatermark.from_config(small_config)
        traces = watermark.activity_traces(small_config.sequence_period)
        wmark = watermark.sequence(small_config.sequence_period).astype(bool)
        load_toggles = traces["load"].total_toggles
        assert np.all(load_toggles[~wmark] == 0)
        assert np.all(load_toggles[wmark] > 0)


class TestClockModulationWatermark:
    def test_kind(self):
        assert ClockModulationWatermark().kind is ArchitectureKind.CLOCK_MODULATION

    def test_from_config_bank_size(self, small_config):
        watermark = ClockModulationWatermark.from_config(small_config)
        assert watermark.modulated_block.register_count == 32  # 4 words x 8 bits (redundant bank)

    def test_cell_inventory_combines_wgc_and_block(self, small_config):
        watermark = ClockModulationWatermark.from_config(small_config)
        inventory = watermark.cell_inventory()
        assert inventory["dff"] >= 32
        assert "icg" in inventory


class TestSharedBehaviour:
    def test_sequence_period(self, small_config):
        watermark = ClockModulationWatermark.from_config(small_config)
        assert watermark.sequence_period == 63
        assert len(watermark.sequence()) == 63

    def test_periodic_activity_length(self, small_config):
        watermark = ClockModulationWatermark.from_config(small_config)
        periodic = watermark.periodic_activity()
        assert len(periodic["wgc"]) == 63
        assert len(periodic["load"]) == 63

    def test_activity_traces_tile_exactly(self, small_config):
        watermark = BaselineWatermark.from_config(small_config)
        period = small_config.sequence_period
        traces = watermark.activity_traces(3 * period)
        one_period = traces["load"].total_toggles[:period]
        assert np.array_equal(traces["load"].total_toggles[period : 2 * period], one_period)

    def test_step_matches_periodic_activity(self, small_config):
        watermark = ClockModulationWatermark.from_config(small_config)
        periodic = watermark.periodic_activity()
        stepping = SteppedWatermark(watermark)
        stepped = [stepping.step() for _ in range(10)]
        for cycle, record in enumerate(stepped):
            assert record["load"] == periodic["load"][cycle]

    def test_power_trace_has_watermark_shape(self, small_config, nominal_estimator):
        watermark = ClockModulationWatermark.from_config(small_config)
        period = small_config.sequence_period
        power = watermark.power_trace(nominal_estimator, 2 * period)
        wmark = watermark.sequence(2 * period).astype(bool)
        assert power.power_w[wmark].mean() > power.power_w[~wmark].mean()

    def test_average_active_load_power_positive(self, small_config, nominal_estimator):
        watermark = ClockModulationWatermark.from_config(small_config)
        assert watermark.average_active_load_power(nominal_estimator) > 0

    def test_invalid_cycle_count_rejected(self, small_config):
        watermark = BaselineWatermark.from_config(small_config)
        with pytest.raises(ValueError):
            watermark.activity_traces(0)
