"""Unit tests for repro.core.clock_modulation."""

import pytest
import rtl_oracle

from repro.core.clock_modulation import ClockModulatedBank, ClockModulatedIPBlock


class TestClockModulatedBank:
    def test_paper_geometry_defaults(self):
        bank = ClockModulatedBank()
        assert bank.register_count == 1024
        assert bank.num_words == 32
        assert bank.switching_registers == 0

    def test_cell_inventory(self):
        bank = ClockModulatedBank()
        inventory = bank.cell_inventory()
        assert inventory["dff"] == 1024
        assert inventory["icg"] == 32
        assert inventory["clk_buf"] >= 1

    def test_wmark_high_produces_clock_activity(self):
        bank = ClockModulatedBank(num_words=4, word_width=8)
        activity = bank.activity([1])[0]
        assert activity.clock_toggles >= 2 * 32

    def test_wmark_low_still_clocks_the_gate_tree_only(self):
        bank = ClockModulatedBank(num_words=4, word_width=8)
        active, idle = bank.activity([1, 0])
        # The tree above the ICGs keeps running, but the gated registers stop,
        # so the modulated (detectable) component is the difference.
        assert idle.clock_toggles < active.clock_toggles
        assert idle.data_toggles == 0

    def test_switching_registers_add_data_activity(self):
        no_switching = ClockModulatedBank(num_words=4, word_width=8, switching_registers=0)
        switching = ClockModulatedBank(num_words=4, word_width=8, switching_registers=32)
        assert switching.activity([1])[0].data_toggles == 32
        assert no_switching.activity([1])[0].data_toggles == 0

    def test_modulation_amplitude_near_paper_value(self, nominal_estimator):
        bank = ClockModulatedBank()  # 1,024 registers, no data switching
        active, idle = nominal_estimator.power_per_cycle(bank.activity([1, 0]))
        amplitude = active - idle
        # The paper's placed-and-routed figure is 1.51 mW; the activity model
        # adds the ICG cells themselves, so allow a modest margin.
        assert 1.4e-3 < amplitude < 1.75e-3

    def test_expected_active_activity_close_to_step(self):
        # An enabled cycle from reset, in closed form and stepped: 4 words of
        # 8 register pins plus their gate roots, the ICG-level tree (4 pins,
        # 1 buffer), 4 enable latches and the rounded enable glue.
        bank = ClockModulatedBank(num_words=4, word_width=8)
        expected = bank.activity([1])[0]
        assert expected == rtl_oracle.stepped_producer(bank).step(1)
        assert expected.clock_toggles == 2 * (4 * 9 + 4 + 1)
        assert expected.comb_toggles == 4


class TestClockModulatedIPBlock:
    def test_adds_no_registers(self):
        block = ClockModulatedIPBlock(modulated_registers=2048)
        assert block.register_count == 0

    def test_idle_when_wmark_low(self):
        block = ClockModulatedIPBlock(modulated_registers=256)
        assert block.activity([0])[0].total_toggles == 0

    def test_clock_activity_scales_with_block_size(self):
        small = ClockModulatedIPBlock(modulated_registers=128)
        large = ClockModulatedIPBlock(modulated_registers=1024)
        assert large.activity([1])[0].clock_toggles > small.activity([1])[0].clock_toggles

    def test_data_activity_factor(self):
        block = ClockModulatedIPBlock(modulated_registers=100, data_activity_factor=0.25)
        assert block.activity([1])[0].data_toggles == 25

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            ClockModulatedIPBlock(modulated_registers=0)
        with pytest.raises(ValueError):
            ClockModulatedIPBlock(modulated_registers=8, data_activity_factor=2.0)

    def test_inventory_lists_reused_cells(self):
        block = ClockModulatedIPBlock(modulated_registers=512)
        inventory = block.cell_inventory()
        assert inventory["dff"] == 512
        assert inventory["icg"] >= 1
