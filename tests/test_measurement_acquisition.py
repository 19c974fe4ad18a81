"""Unit tests for repro.measurement.acquisition."""

import numpy as np
import pytest

from measurement_chain import Oscilloscope, measure_chain, pulse_shape
from repro.core.config import MeasurementConfig
from repro.measurement.acquisition import RANGE_HEADROOM, AcquisitionCampaign, MeasuredTrace
from repro.power.trace import PowerTrace
from repro.rtl.signals import Clock


@pytest.fixture
def clock() -> Clock:
    return Clock("clk", 10e6)


@pytest.fixture
def campaign() -> AcquisitionCampaign:
    return AcquisitionCampaign(MeasurementConfig(num_cycles=2000))


def make_power_trace(clock, num_cycles=2000, amplitude=1.5e-3, base=4e-3) -> PowerTrace:
    wmark = (np.arange(num_cycles) % 63 < 32).astype(float)
    return PowerTrace("test", clock, base + amplitude * wmark)


class TestMeasuredTrace:
    def test_statistics(self, clock):
        trace = MeasuredTrace("m", np.array([1.0, 3.0]), MeasurementConfig())
        assert trace.mean_power_w == pytest.approx(2.0)
        assert trace.std_power_w == pytest.approx(1.0)
        assert trace.num_cycles == 2

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            MeasuredTrace("m", np.zeros((2, 2)), MeasurementConfig())


class TestFastPath:
    def test_preserves_length_and_mean(self, campaign, clock):
        power = make_power_trace(clock)
        measured = campaign.measure(power, seed=1)
        assert len(measured) == len(power)
        assert measured.mean_power_w == pytest.approx(power.average_power_w, abs=5e-3)

    def test_reproducible_with_seed(self, campaign, clock):
        power = make_power_trace(clock)
        a = campaign.measure(power, seed=3)
        b = campaign.measure(power, seed=3)
        assert np.array_equal(a.values, b.values)

    def test_noise_level_matches_model(self, campaign, clock):
        power = PowerTrace("const", clock, np.full(50_000, 5e-3))
        measured = campaign.measure(power, seed=0)
        expected_sigma = campaign.per_cycle_noise_sigma(5e-3, 1e-3)
        assert measured.std_power_w == pytest.approx(expected_sigma, rel=0.05)


class TestMeasurementChainOracle:
    """The per-cycle model against the sample-level bench chain it stands for."""

    def test_detailed_and_fast_statistically_consistent(self, clock):
        config = MeasurementConfig(num_cycles=3000)
        campaign = AcquisitionCampaign(config)
        power = PowerTrace("const", clock, np.full(3000, 5e-3))
        fast = campaign.measure(power, seed=4)
        detailed = MeasuredTrace("chain", measure_chain(config, power, seed=4), config)
        # Both see the same underlying signal; their means agree within the
        # statistical uncertainty of a 3,000-cycle average and their noise
        # levels are of the same order.
        assert len(detailed) == len(fast)
        sigma_of_mean = fast.std_power_w / np.sqrt(len(fast))
        assert detailed.mean_power_w == pytest.approx(fast.mean_power_w, abs=4 * sigma_of_mean)
        assert detailed.std_power_w == pytest.approx(fast.std_power_w, rel=0.35)

    def test_range_headroom_matches_the_scope(self):
        assert RANGE_HEADROOM == Oscilloscope().range_headroom

    def test_pulse_shape_mean_one(self):
        shape = pulse_shape(50)
        assert shape.mean() == pytest.approx(1.0)
        assert shape.max() > 1.0

    def test_pulse_shape_invalid(self):
        with pytest.raises(ValueError):
            pulse_shape(0)


class TestMeasureRows:
    def test_rows_reuse_one_buffer(self, campaign, clock):
        power = make_power_trace(clock)
        rows = [row for row in campaign.measure_rows(power, seeds=[10, 11, 12])]
        assert len(rows) == 3
        assert all(row is rows[0] for row in rows)

    def test_rows_equal_per_seed_measure_and_differ_per_seed(self, campaign, clock):
        power = make_power_trace(clock)
        rows = [row.copy() for row in campaign.measure_rows(power, seeds=[10, 11])]
        for row, seed in zip(rows, [10, 11]):
            assert np.array_equal(row, campaign.measure(power, seed=seed).values)
        # Different noise realisations per repetition.
        assert not np.array_equal(rows[0], rows[1])

    def test_requires_at_least_one_seed_when_called(self, campaign, clock):
        with pytest.raises(ValueError):
            campaign.measure_rows(make_power_trace(clock), seeds=[])


class TestMeasureMany:
    def test_rows_bit_identical_to_per_seed_measure(self, campaign, clock):
        power = make_power_trace(clock)
        seeds = [3, 4, 5]
        matrix = campaign.measure_many(power, seeds=seeds)
        assert matrix.shape == (len(seeds), len(power))
        for row, seed in enumerate(seeds):
            assert np.array_equal(matrix[row], campaign.measure(power, seed=seed).values)

    def test_requires_at_least_one_seed(self, campaign, clock):
        with pytest.raises(ValueError):
            campaign.measure_many(make_power_trace(clock), seeds=[])


class TestMeasureChip:
    """Chip-level entry points routed through the cached background templates."""

    @pytest.fixture(scope="class")
    def chip(self):
        from repro.core.architectures import ClockModulationWatermark
        from repro.core.config import WatermarkConfig
        from repro.soc.chip import build_chip_one

        watermark = ClockModulationWatermark.from_config(
            WatermarkConfig(lfsr_width=8, lfsr_seed=0x2D)
        )
        return build_chip_one(watermark=watermark, m0_window_cycles=512)

    def test_measure_chip_equals_manual_chain(self, campaign, chip):
        power = chip.total_power(
            2000, watermark_active=True, seed=6, watermark_phase_offset=40
        )
        expected = campaign.measure(power, seed=9)
        measured = campaign.measure_chip(
            chip, 2000, power_seed=6, seed=9, watermark_phase_offset=40
        )
        assert np.array_equal(measured.values, expected.values)

    def test_measure_rows_of_chip_power_equal_measure_chip(self, campaign, chip):
        seeds = [11, 12, 13]
        power = chip.total_power(
            2000, watermark_active=True, seed=6, watermark_phase_offset=40
        )
        rows = [row.copy() for row in campaign.measure_rows(power, seeds=seeds)]
        for row, seed in zip(rows, seeds):
            single = campaign.measure_chip(
                chip, 2000, power_seed=6, seed=seed, watermark_phase_offset=40
            )
            assert np.array_equal(row, single.values)

    def test_measure_chip_without_watermark(self, campaign, chip):
        active = campaign.measure_chip(chip, 1000, power_seed=2, seed=3)
        inactive = campaign.measure_chip(
            chip, 1000, watermark_active=False, power_seed=2, seed=3
        )
        assert active.values.mean() > inactive.values.mean()
