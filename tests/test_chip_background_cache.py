"""Cache-correctness suite for the chip-level background subsystem.

Pins the contract of the two module-level caches of the chip background:

* the loaded M0 window (:mod:`repro.soc.cpu`) -- the shipped window file
  is read once per process, and every chip and window length is served a
  read-only prefix of it;
* the background-power template cache (:mod:`repro.soc.chip`) -- one
  per-cycle background template per (chip configuration, seed,
  acquisition length).

Every fast path must be bit-identical to the cache-bypassing computation.
"""

import numpy as np
import pytest

from repro.core.architectures import ClockModulationWatermark
from repro.core.config import WatermarkConfig
from repro.soc import chip as chip_module
from repro.soc import cpu as cpu_module
from repro.soc.chip import build_chip_one, build_chip_two

FIELDS = ("clock_toggles", "data_toggles", "comb_toggles")


@pytest.fixture(autouse=True)
def fresh_caches():
    """Each test starts from empty module-level caches."""
    cpu_module.clear_m0_window_cache()
    chip_module.clear_background_template_cache()
    yield
    cpu_module.clear_m0_window_cache()
    chip_module.clear_background_template_cache()


def _trace_equal(a, b) -> bool:
    return all(np.array_equal(getattr(a, field), getattr(b, field)) for field in FIELDS)


class TestM0WindowCache:
    def test_cached_trace_bit_identical_to_uncached(self):
        chip = build_chip_one(m0_window_cycles=512)
        cached = chip.m0_activity(2000, seed=13)
        cpu_module.clear_m0_window_cache()
        reloaded = chip.m0_activity(2000, seed=13)
        assert _trace_equal(cached, reloaded)

    def test_window_loaded_once_across_instances(self):
        first = build_chip_one(m0_window_cycles=512)
        second = build_chip_one(m0_window_cycles=512)
        first.m0_activity(1500, seed=1)
        assert cpu_module.m0_window_cache_stats() == {"hits": 0, "misses": 1}
        second.m0_activity(1500, seed=2)
        second.m0_activity(3000, seed=3)
        assert cpu_module.m0_window_cache_stats() == {"hits": 2, "misses": 1}

    def test_different_windows_share_one_load(self):
        chip_small = build_chip_one(m0_window_cycles=256)
        chip_large = build_chip_one(m0_window_cycles=512)
        small = chip_small.m0_activity(600, seed=1)
        chip_large.m0_activity(600, seed=1)
        assert cpu_module.m0_window_cache_stats() == {"hits": 1, "misses": 1}
        assert len(small) == 600

    def test_both_chips_read_the_same_window(self):
        # No shifts are drawn up to the window length: this is the window.
        one = build_chip_one(seed=1).m0_activity(4096)
        two = build_chip_two(seed=2).m0_activity(4096)
        assert _trace_equal(one, two)
        assert all(np.shares_memory(getattr(one, field), getattr(two, field)) for field in FIELDS)
        assert cpu_module.m0_window_cache_stats() == {"hits": 1, "misses": 1}

    @pytest.mark.parametrize("num_cycles", [1, 64, 4096, cpu_module.M0_WINDOW_CYCLES])
    def test_shorter_window_is_a_prefix_of_the_full_window(self, num_cycles):
        full = cpu_module.m0_window(cpu_module.M0_WINDOW_CYCLES)
        window = cpu_module.m0_window(num_cycles)
        assert len(window) == num_cycles
        for field in FIELDS:
            assert getattr(window, field).dtype == np.int64
            assert np.array_equal(getattr(window, field), getattr(full, field)[:num_cycles])

    @pytest.mark.parametrize("num_cycles", [0, cpu_module.M0_WINDOW_CYCLES + 1])
    def test_window_outside_the_shipped_length_is_rejected(self, num_cycles):
        with pytest.raises(ValueError, match=str(cpu_module.M0_WINDOW_CYCLES)):
            cpu_module.m0_window(num_cycles)
        with pytest.raises(ValueError, match=str(cpu_module.M0_WINDOW_CYCLES)):
            build_chip_one(m0_window_cycles=num_cycles)

    def test_short_acquisition_window_also_cached(self):
        chip = build_chip_one(m0_window_cycles=4096)
        a = chip.m0_activity(100, seed=1)
        b = chip.m0_activity(100, seed=1)
        assert _trace_equal(a, b)
        assert cpu_module.m0_window_cache_stats() == {"hits": 1, "misses": 1}

    def test_cached_arrays_are_read_only(self):
        chip = build_chip_one(m0_window_cycles=256)
        trace = chip.m0_activity(256, seed=1)
        for field in FIELDS:
            with pytest.raises(ValueError):
                getattr(trace, field)[0] = 0
        full = cpu_module.m0_window(cpu_module.M0_WINDOW_CYCLES)
        with pytest.raises(ValueError):
            full.comb_toggles[-1] = 0

    def test_clear_resets_cache_and_counters(self):
        chip = build_chip_one(m0_window_cycles=256)
        chip.m0_activity(300, seed=1)
        chip.m0_activity(300, seed=1)
        cpu_module.clear_m0_window_cache()
        assert cpu_module.m0_window_cache_stats() == {"hits": 0, "misses": 0}
        chip.m0_activity(300, seed=1)
        assert cpu_module.m0_window_cache_stats() == {"hits": 0, "misses": 1}


class TestBackgroundTemplateCache:
    @pytest.fixture()
    def chip(self):
        watermark = ClockModulationWatermark.from_config(
            WatermarkConfig(lfsr_width=8, lfsr_seed=0x2D)
        )
        return build_chip_one(watermark=watermark, m0_window_cycles=512)

    def test_cached_power_bit_identical_to_uncached(self, chip):
        warm = chip.background_power(4000, seed=21)
        again = chip.background_power(4000, seed=21)
        reference = chip.background_power(4000, seed=21, use_cache=False)
        assert np.array_equal(warm.power_w, reference.power_w)
        assert np.array_equal(again.power_w, reference.power_w)
        stats = chip_module.background_template_cache_stats()
        assert stats["misses"] == 1
        assert stats["hits"] == 1

    def test_total_power_bit_identical_through_cache(self, chip):
        cold = chip.total_power(4000, seed=5, watermark_phase_offset=17)
        warm = chip.total_power(4000, seed=5, watermark_phase_offset=17)
        reference = chip.total_power(
            4000, seed=5, watermark_phase_offset=17, use_cache=False
        )
        assert np.array_equal(cold.power_w, reference.power_w)
        assert np.array_equal(warm.power_w, reference.power_w)

    def test_different_seed_misses(self, chip):
        chip.background_power(1000, seed=1)
        chip.background_power(1000, seed=2)
        assert chip_module.background_template_cache_stats()["misses"] == 2

    def test_different_num_cycles_misses(self, chip):
        # Each acquisition length is its own cache class: the number of
        # window shifts drawn, and the cut of the last tiled window,
        # depend on the length.
        chip.background_power(1000, seed=1)
        chip.background_power(2000, seed=1)
        assert chip_module.background_template_cache_stats()["misses"] == 2

    def test_different_chip_configuration_misses(self, chip):
        chip.background_power(1000, seed=1)
        chip2 = build_chip_two(m0_window_cycles=512)
        chip2.background_power(1000, seed=1)
        assert chip_module.background_template_cache_stats()["misses"] == 2

    def test_shared_across_equivalent_instances(self, chip):
        chip.background_power(1000, seed=1)
        sibling = build_chip_one(m0_window_cycles=512)  # watermark is irrelevant
        sibling.background_power(1000, seed=1)
        stats = chip_module.background_template_cache_stats()
        assert stats["misses"] == 1
        assert stats["hits"] == 1

    def test_default_seed_resolves_to_chip_seed(self):
        a = build_chip_one(m0_window_cycles=256, seed=77)
        b = build_chip_one(m0_window_cycles=256, seed=77)
        explicit = a.background_power(500)
        implicit = b.background_power(500, seed=77)
        assert np.array_equal(explicit.power_w, implicit.power_w)
        assert chip_module.background_template_cache_stats()["hits"] == 1

    def test_cached_template_is_read_only(self, chip):
        power = chip.background_power(500, seed=3)
        with pytest.raises(ValueError):
            power.power_w[0] = 0.0

    def test_seed_is_no_key_when_no_shifts_are_drawn(self, chip):
        # At the window length no shift is drawn, so the seed changes nothing.
        first = chip.background_power(512, seed=1)
        second = chip.background_power(512, seed=2)
        assert chip_module.background_template_cache_stats() == {
            "hits": 1,
            "misses": 1,
            "evictions": 0,
            "entries": 1,
        }
        for seed, power in ((1, first), (2, second)):
            reference = chip.background_power(512, seed=seed, use_cache=False)
            assert np.array_equal(power.power_w, reference.power_w)

    def test_lru_bound_evicts_oldest(self, chip, monkeypatch):
        monkeypatch.setattr(chip_module, "BACKGROUND_TEMPLATE_CACHE_MAX_ENTRIES", 2)
        for seed in (1, 2, 3):
            chip.background_power(600, seed=seed)
        stats = chip_module.background_template_cache_stats()
        assert stats["entries"] == 2
        assert stats["evictions"] == 1

    def test_clear_resets_cache_and_counters(self, chip):
        chip.background_power(200, seed=1)
        chip_module.clear_background_template_cache()
        assert chip_module.background_template_cache_stats() == {
            "hits": 0,
            "misses": 0,
            "evictions": 0,
            "entries": 0,
        }
