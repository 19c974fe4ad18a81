"""Unit tests for repro.soc.chip."""

import numpy as np
import pytest
from background_oracle import background_activity, background_power

from repro.core.architectures import ClockModulationWatermark
from repro.core.config import WatermarkConfig
from repro.core.seeds import stream
from repro.power.estimator import PowerEstimator
from repro.soc import chip as chip_module
from repro.soc.chip import ChipDescription, ChipModel, build_chip_one, build_chip_two


@pytest.fixture(scope="module")
def small_watermark():
    config = WatermarkConfig(lfsr_width=8, lfsr_seed=0x2D, num_words=8, word_width=16)
    return ClockModulationWatermark.from_config(config)


@pytest.fixture(scope="module")
def chip1(small_watermark):
    return build_chip_one(watermark=small_watermark, m0_window_cycles=1024)


@pytest.fixture(scope="module")
def chip2(small_watermark):
    return build_chip_two(watermark=small_watermark, m0_window_cycles=1024)


class TestChipDescription:
    def test_validation(self):
        with pytest.raises(ValueError):
            ChipDescription(name="x", has_a5_subsystem=False, m0_window_cycles=0)
        with pytest.raises(ValueError):
            ChipDescription(name="x", has_a5_subsystem=False, sram_bytes=0)


class TestChipComposition:
    def test_chip1_has_no_a5(self, chip1):
        assert chip1.a5_subsystem is None
        assert chip1.name == "chip1"

    def test_chip2_has_a5(self, chip2):
        assert chip2.a5_subsystem is not None
        assert chip2.name == "chip2"

    def test_chip2_has_more_registers(self, chip1, chip2):
        assert chip2.system_register_count() > chip1.system_register_count()

    def test_watermark_sequence_exposed(self, chip1):
        assert len(chip1.watermark_sequence()) == 255

    def test_chip_without_watermark_raises(self):
        chip = build_chip_one(watermark=None, m0_window_cycles=512)
        with pytest.raises(ValueError):
            chip.watermark_power(100)
        with pytest.raises(ValueError):
            chip.watermark_sequence()


class TestActivityAndPower:
    def test_m0_activity_window_tiling(self, chip1):
        trace = chip1.m0_activity(3000, seed=1)
        assert len(trace) == 3000
        assert trace.total_toggles.min() > 0

    def test_background_activity_contributors(self, chip1, chip2):
        traces1 = background_activity(chip1, 500)
        traces2 = background_activity(chip2, 500)
        assert set(traces1) == {"m0", "peripherals"}
        assert set(traces2) == {"m0", "peripherals", "a5"}

    def test_background_power_chip2_higher(self, chip1, chip2):
        p1 = chip1.background_power(500, seed=3)
        p2 = chip2.background_power(500, seed=3)
        assert p2.average_power_w > p1.average_power_w

    def test_total_power_with_watermark_is_higher(self, chip1):
        with_wm = chip1.total_power(500, watermark_active=True, seed=4)
        without = chip1.total_power(500, watermark_active=False, seed=4)
        assert with_wm.average_power_w > without.average_power_w

    def test_watermark_phase_offset_rolls_modulation(self, chip1):
        period = len(chip1.watermark_sequence())
        base = chip1.total_power(2 * period, watermark_active=True, seed=5, watermark_phase_offset=0)
        shifted = chip1.total_power(2 * period, watermark_active=True, seed=5, watermark_phase_offset=10)
        background = chip1.total_power(2 * period, watermark_active=False, seed=5)
        wm_base = base.power_w - background.power_w
        wm_shifted = shifted.power_w - background.power_w
        assert np.allclose(np.roll(wm_base, -10)[:period], wm_shifted[:period], atol=1e-12)

    def test_background_power_reproducible_for_same_seed(self, chip1):
        a = chip1.background_power(400, seed=11)
        b = chip1.background_power(400, seed=11)
        assert np.array_equal(a.power_w, b.power_w)

    def test_background_power_realistic_magnitude(self, chip1):
        power = chip1.background_power(500, seed=2)
        # A 65 nm microcontroller SoC at 10 MHz: single-digit milliwatts.
        assert 0.5e-3 < power.average_power_w < 20e-3

    def test_background_static_uses_full_cell_inventory(self, chip1):
        # Regression: static leakage used to be computed from
        # {"dff": system_register_count()} only, undercounting the comb and
        # SRAM cells that system_cell_inventory() itself reports (and that
        # the watermark architectures and Table I include via
        # leakage_of(cell_inventory())).
        background = chip1.background_power(64, seed=9, use_cache=False)
        traces = background_activity(chip1, 64, seed=9)
        dynamic = np.zeros(64)
        for trace in traces.values():
            dynamic += PowerEstimator().power_per_cycle(trace)
        static = background.power_w - dynamic
        expected = PowerEstimator().leakage_of(chip1.system_cell_inventory())
        assert np.allclose(static, expected, rtol=1e-9, atol=0)
        dff_only = PowerEstimator().leakage_of({"dff": chip1.system_register_count()})
        assert expected > dff_only


class TestBackgroundOracle:
    """Background power straight in watts equals the activity path byte for byte."""

    @pytest.fixture(scope="class")
    def chips(self):
        return {"chip1": build_chip_one(), "chip2": build_chip_two()}

    @pytest.fixture(autouse=True)
    def fresh_templates(self):
        chip_module.clear_background_template_cache()
        yield
        chip_module.clear_background_template_cache()

    @pytest.mark.parametrize("use_cache", [True, False])
    @pytest.mark.parametrize("seed", [0, 7, 2014])
    @pytest.mark.parametrize("num_cycles", [1, 100, 16_384, 16_385, 40_000, 300_001])
    @pytest.mark.parametrize("chip_name", ["chip1", "chip2"])
    def test_background_power_equals_oracle(self, chips, chip_name, num_cycles, seed, use_cache):
        chip = chips[chip_name]
        actual = chip.background_power(num_cycles, seed=seed, use_cache=use_cache)
        expected = background_power(chip, num_cycles, seed=seed, use_cache=use_cache)
        assert actual.power_w.dtype == expected.power_w.dtype
        assert actual.power_w.tobytes() == expected.power_w.tobytes()


class TestM0ActivityGather:
    """The slice-copy tiling must reproduce the np.roll tiling exactly."""

    def test_fixed_seed_yields_identical_trace_as_legacy_tiling(self):
        chip = build_chip_one(m0_window_cycles=256)
        num_cycles = 1500
        seed = 97

        # Reference: simulate the window, then tile it with one np.roll per
        # repetition, using the shifts of the seed's "m0" stream.
        window = min(num_cycles, chip.description.m0_window_cycles)
        window_trace = chip.cpu.run_cycles(window)
        shifts = stream(seed, "m0").integers(0, window, size=-(-num_cycles // window))
        arrays = {
            "clock_toggles": window_trace.clock_toggles,
            "data_toggles": window_trace.data_toggles,
            "comb_toggles": window_trace.comb_toggles,
        }
        tiled = {
            key: [np.roll(values, shift) for shift in shifts]
            for key, values in arrays.items()
        }
        expected = {key: np.concatenate(parts)[:num_cycles] for key, parts in tiled.items()}

        actual = chip.m0_activity(num_cycles, seed=seed)
        assert np.array_equal(actual.clock_toggles, expected["clock_toggles"])
        assert np.array_equal(actual.data_toggles, expected["data_toggles"])
        assert np.array_equal(actual.comb_toggles, expected["comb_toggles"])

    def test_short_acquisition_returns_unshifted_window(self):
        chip = build_chip_one(m0_window_cycles=256)
        trace = chip.m0_activity(100, seed=1)
        assert len(trace) == 100

    def test_gathered_trace_reproducible(self):
        chip = build_chip_one(m0_window_cycles=128)
        a = chip.m0_activity(1000, seed=5)
        b = chip.m0_activity(1000, seed=5)
        assert np.array_equal(a.total_toggles, b.total_toggles)
