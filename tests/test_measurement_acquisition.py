"""Unit tests for repro.measurement.acquisition."""

import numpy as np
import pytest

from measurement_chain import Oscilloscope, measure_chain, measure_rows, pulse_shape
from repro.core.config import MeasurementConfig
from repro.measurement.acquisition import RANGE_HEADROOM, AcquisitionCampaign
from repro.power.trace import PowerTrace


@pytest.fixture
def campaign() -> AcquisitionCampaign:
    return AcquisitionCampaign(MeasurementConfig(num_cycles=2000))


def make_power_trace(num_cycles=2000, amplitude=1.5e-3, base=4e-3) -> PowerTrace:
    wmark = (np.arange(num_cycles) % 63 < 32).astype(float)
    return PowerTrace("test", base + amplitude * wmark)


class TestMeasuredTrace:
    """``measure`` returns the measured vector ``Y`` itself, one float per cycle."""

    def test_statistics(self):
        # A bench with only the 8-bit scope's quantisation noise left.
        quiet = AcquisitionCampaign(
            MeasurementConfig(
                probe_noise_rms_v=0.0, transient_noise_floor_w=0.0, transient_noise_fraction=0.0
            )
        )
        measured = quiet.measure(PowerTrace("m", np.array([1.0, 3.0])), 0)
        assert measured.shape == (2,) and measured.dtype == np.float64
        assert np.mean(measured) == pytest.approx(2.0, abs=0.01)


class TestFastPath:
    def test_preserves_length_and_mean(self, campaign):
        power = make_power_trace()
        measured = campaign.measure(power, 1)
        assert measured.shape == (len(power),)
        assert measured.dtype == np.float64
        assert np.mean(measured) == pytest.approx(power.average_power_w, abs=5e-3)

    def test_reproducible_with_seed(self, campaign):
        power = make_power_trace()
        a = campaign.measure(power, 3)
        b = campaign.measure(power, 3)
        assert np.array_equal(a, b)

    def test_sigma_follows_the_bench_constants(self):
        # 2 mV probe noise and the 8-bit LSB over a 270 mOhm shunt at 1.2 V,
        # averaged over 50 samples, in quadrature with the transient term.
        mean_power, full_scale = 5e-3, 0.1
        probe = 2.0e-3 / 0.270 * 1.2
        quantization = full_scale / 2**8 / np.sqrt(12.0) / 0.270 * 1.2
        transient = 0.040 + 0.75 * mean_power
        expected = np.sqrt(transient**2 + (probe**2 + quantization**2) / 50)
        sigma = AcquisitionCampaign(MeasurementConfig()).per_cycle_noise_sigma(
            mean_power, full_scale
        )
        assert sigma == pytest.approx(expected, rel=1e-12)

    def test_noise_level_matches_model(self, campaign):
        power = PowerTrace("const", np.full(50_000, 5e-3))
        measured = campaign.measure(power, 0)
        expected_sigma = campaign.per_cycle_noise_sigma(5e-3, 1e-3)
        assert np.std(measured) == pytest.approx(expected_sigma, rel=0.05)


class TestMeasurementChainOracle:
    """The per-cycle model against the sample-level bench chain it stands for."""

    def test_detailed_and_fast_statistically_consistent(self):
        config = MeasurementConfig(num_cycles=3000)
        campaign = AcquisitionCampaign(config)
        power = PowerTrace("const", np.full(3000, 5e-3))
        fast = campaign.measure(power, 4)
        detailed = measure_chain(config, power, seed=4)
        # Both see the same underlying signal; their means agree within the
        # statistical uncertainty of a 3,000-cycle average and their noise
        # levels are of the same order.
        assert len(detailed) == len(fast)
        sigma_of_mean = np.std(fast) / np.sqrt(len(fast))
        assert np.mean(detailed) == pytest.approx(np.mean(fast), abs=4 * sigma_of_mean)
        assert np.std(detailed) == pytest.approx(np.std(fast), rel=0.35)

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
            assert np.array_equal(row, campaign.measure(power, seed))
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
            assert np.array_equal(matrix[row], campaign.measure(power, seed))

    def test_requires_at_least_one_seed(self, campaign):
        with pytest.raises(ValueError):
            campaign.measure_many(make_power_trace(), seeds=[])


def measure_chip(campaign, chip, num_cycles, power_seed, seed, **power_options):
    """One acquisition of a chip: ``chip.total_power`` and then ``measure``."""
    power = chip.total_power(num_cycles, seed=power_seed, **power_options)
    return campaign.measure(power, seed)


class TestMeasureChip:
    """Per-cycle acquisitions of a chip's total power."""

    # Longer than the shipped M0 window, so the power seed draws its shifts.
    CHIP_CYCLES = 20_000

    @pytest.fixture(scope="class")
    def chip(self):
        from repro.core.architectures import ClockModulationWatermark
        from repro.core.config import WatermarkConfig
        from repro.soc.chip import build_chip_one

        watermark = ClockModulationWatermark.from_config(
            WatermarkConfig(lfsr_width=8, lfsr_seed=0x2D)
        )
        return build_chip_one(watermark=watermark)

    def test_measure_chip_equals_manual_chain(self, campaign, chip):
        power = chip.total_power(
            self.CHIP_CYCLES, watermark_active=True, seed=6, watermark_phase_offset=40
        )
        expected = campaign.measure(power, 9)
        # The chip power is redrawn from its seed, and the noise from its own.
        measured = measure_chip(
            campaign, chip, self.CHIP_CYCLES, power_seed=6, seed=9, watermark_phase_offset=40
        )
        assert np.array_equal(measured, expected)
        other_power = measure_chip(
            campaign, chip, self.CHIP_CYCLES, power_seed=7, seed=9, watermark_phase_offset=40
        )
        assert not np.array_equal(other_power, expected)

    def test_measure_rows_of_chip_power_equal_measure_chip(self, campaign, chip):
        seeds = [11, 12, 13]
        power = chip.total_power(
            self.CHIP_CYCLES, watermark_active=True, seed=6, watermark_phase_offset=40
        )
        rows = [row.copy() for row in measure_rows(campaign, power, seeds=seeds)]
        for row, seed in zip(rows, seeds):
            single = measure_chip(
                campaign, chip, self.CHIP_CYCLES, power_seed=6, seed=seed, watermark_phase_offset=40
            )
            assert np.array_equal(row, single)

    def test_measure_chip_without_watermark(self, campaign, chip):
        active = measure_chip(campaign, chip, 1000, power_seed=2, seed=3)
        inactive = measure_chip(
            campaign, chip, 1000, power_seed=2, seed=3, watermark_active=False
        )
        assert active.mean() > inactive.mean()
