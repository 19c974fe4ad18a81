"""Unit tests for repro.measurement.acquisition."""

import numpy as np
import pytest

from measurement_chain import Oscilloscope, measure_chain, measure_rows, pulse_shape
from repro.core.config import MeasurementConfig
from repro.measurement.acquisition import RANGE_HEADROOM, AcquisitionCampaign, MeasuredTrace
from repro.power.trace import PowerTrace


@pytest.fixture
def campaign() -> AcquisitionCampaign:
    return AcquisitionCampaign(MeasurementConfig(num_cycles=2000))


def make_power_trace(num_cycles=2000, amplitude=1.5e-3, base=4e-3) -> PowerTrace:
    wmark = (np.arange(num_cycles) % 63 < 32).astype(float)
    return PowerTrace("test", base + amplitude * wmark)


class TestMeasuredTrace:
    def test_statistics(self):
        trace = MeasuredTrace("m", np.array([1.0, 3.0]), MeasurementConfig())
        assert np.mean(trace.values) == pytest.approx(2.0)
        assert trace.num_cycles == 2

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            MeasuredTrace("m", np.zeros((2, 2)), MeasurementConfig())


class TestFastPath:
    def test_preserves_length_and_mean(self, campaign):
        power = make_power_trace()
        measured = campaign.measure(power, seed=1)
        assert len(measured) == len(power)
        assert np.mean(measured.values) == pytest.approx(power.average_power_w, abs=5e-3)

    def test_reproducible_with_seed(self, campaign):
        power = make_power_trace()
        a = campaign.measure(power, seed=3)
        b = campaign.measure(power, seed=3)
        assert np.array_equal(a.values, b.values)

    def test_noise_level_matches_model(self, campaign):
        power = PowerTrace("const", np.full(50_000, 5e-3))
        measured = campaign.measure(power, seed=0)
        expected_sigma = campaign.per_cycle_noise_sigma(5e-3, 1e-3)
        assert np.std(measured.values) == pytest.approx(expected_sigma, rel=0.05)


class TestMeasurementChainOracle:
    """The per-cycle model against the sample-level bench chain it stands for."""

    def test_detailed_and_fast_statistically_consistent(self):
        config = MeasurementConfig(num_cycles=3000)
        campaign = AcquisitionCampaign(config)
        power = PowerTrace("const", np.full(3000, 5e-3))
        fast = campaign.measure(power, seed=4)
        detailed = MeasuredTrace("chain", measure_chain(config, power, seed=4), config)
        # Both see the same underlying signal; their means agree within the
        # statistical uncertainty of a 3,000-cycle average and their noise
        # levels are of the same order.
        assert len(detailed) == len(fast)
        sigma_of_mean = np.std(fast.values) / np.sqrt(len(fast))
        assert np.mean(detailed.values) == pytest.approx(np.mean(fast.values), abs=4 * sigma_of_mean)
        assert np.std(detailed.values) == pytest.approx(np.std(fast.values), rel=0.35)

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
    """The per-cycle repetition oracle is the library's ``measure``, row by row."""

    def test_rows_reuse_one_buffer(self, campaign):
        power = make_power_trace()
        rows = [row for row in measure_rows(campaign, power, seeds=[10, 11, 12])]
        assert len(rows) == 3
        assert all(row is rows[0] for row in rows)

    def test_rows_equal_per_seed_measure_and_differ_per_seed(self, campaign):
        power = make_power_trace()
        rows = [row.copy() for row in measure_rows(campaign, power, seeds=[10, 11])]
        for row, seed in zip(rows, [10, 11]):
            assert np.array_equal(row, campaign.measure(power, seed=seed).values)
        # Different noise realisations per repetition.
        assert not np.array_equal(rows[0], rows[1])

    def test_requires_at_least_one_seed_when_called(self, campaign):
        with pytest.raises(ValueError):
            measure_rows(campaign, make_power_trace(), seeds=[])


class TestMeasureMany:
    def test_rows_bit_identical_to_per_seed_measure(self, campaign):
        power = make_power_trace()
        seeds = [3, 4, 5]
        matrix = campaign.measure_many(power, seeds=seeds)
        assert matrix.shape == (len(seeds), len(power))
        for row, seed in enumerate(seeds):
            assert np.array_equal(matrix[row], campaign.measure(power, seed=seed).values)

    def test_requires_at_least_one_seed(self, campaign):
        with pytest.raises(ValueError):
            campaign.measure_many(make_power_trace(), seeds=[])


def measure_chip(campaign, chip, num_cycles, power_seed, seed, **power_options):
    """One acquisition of a chip: ``chip.total_power`` and then ``measure``."""
    power = chip.total_power(num_cycles, seed=power_seed, **power_options)
    return campaign.measure(power, seed=seed)


class TestMeasureChip:
    """Per-cycle acquisitions of a chip's total power."""

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
        # The chip power is redrawn from its seed, and the noise from its own.
        measured = measure_chip(
            campaign, chip, 2000, power_seed=6, seed=9, watermark_phase_offset=40
        )
        assert np.array_equal(measured.values, expected.values)
        other_power = measure_chip(
            campaign, chip, 2000, power_seed=7, seed=9, watermark_phase_offset=40
        )
        assert not np.array_equal(other_power.values, expected.values)

    def test_measure_rows_of_chip_power_equal_measure_chip(self, campaign, chip):
        seeds = [11, 12, 13]
        power = chip.total_power(
            2000, watermark_active=True, seed=6, watermark_phase_offset=40
        )
        rows = [row.copy() for row in measure_rows(campaign, power, seeds=seeds)]
        for row, seed in zip(rows, seeds):
            single = measure_chip(
                campaign, chip, 2000, power_seed=6, seed=seed, watermark_phase_offset=40
            )
            assert np.array_equal(row, single.values)

    def test_measure_chip_without_watermark(self, campaign, chip):
        active = measure_chip(campaign, chip, 1000, power_seed=2, seed=3)
        inactive = measure_chip(
            campaign, chip, 1000, power_seed=2, seed=3, watermark_active=False
        )
        assert active.values.mean() > inactive.values.mean()
