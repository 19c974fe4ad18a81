"""Unit tests for repro.core.load_circuit."""

import pytest
import rtl_oracle

from repro.core.load_circuit import LoadCircuit, registers_for_load_power


class TestSizingRule:
    @pytest.mark.parametrize(
        "load_power_mw, expected_registers",
        [(0.25, 96), (0.5, 192), (1.0, 384), (1.5, 576), (5.0, 1921), (10.0, 3843)],
    )
    def test_table_ii_register_counts(self, load_power_mw, expected_registers):
        assert registers_for_load_power(load_power_mw * 1e-3) == expected_registers

    def test_invalid_power_rejected(self):
        with pytest.raises(ValueError):
            registers_for_load_power(0.0)


class TestLoadCircuit:
    def test_word_partitioning(self):
        # Words of 8, 8 and 5 bits: the odd trailing word flips 4 of its 5.
        load = LoadCircuit(num_registers=21, word_width=8)
        assert load.register_count == 21
        assert [w.width for w in rtl_oracle.stepped_producer(load).words] == [8, 8, 5]
        assert load.activity([1])[0].data_toggles == 8 + 8 + 4

    def test_idle_when_wmark_low(self):
        load = LoadCircuit(num_registers=16)
        assert load.activity([0])[0].total_toggles == 0

    def test_full_switching_when_wmark_high(self):
        load = LoadCircuit(num_registers=16, word_width=8)
        activity = load.activity([1])[0]
        assert activity.data_toggles == 16
        assert activity.clock_toggles == 32

    def test_expected_active_activity_matches_step(self):
        load = LoadCircuit(num_registers=64, word_width=8)
        assert load.activity([1])[0] == rtl_oracle.stepped_producer(load).step(1)

    def test_cell_inventory(self):
        load = LoadCircuit(num_registers=100)
        assert load.cell_inventory() == {"dff": 100}

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            LoadCircuit(num_registers=0)
        with pytest.raises(ValueError):
            LoadCircuit(num_registers=8, word_width=0)

    def test_active_power_matches_paper_per_register_figure(self, nominal_estimator):
        load = LoadCircuit(num_registers=576, word_width=8)
        power = nominal_estimator.power_per_cycle(load.activity([1]))[0]
        # 576 x (1.476 uW + 1.126 uW) ~ 1.5 mW: the Table II operating point.
        assert power == pytest.approx(576 * 2.602e-6, rel=1e-3)
