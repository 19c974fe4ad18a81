"""Unit tests for repro.rtl.components.

The per-cycle ``step`` behaviour tested here is that of the stepping
twins in ``rtl_oracle``, which subclass the library components (its
register bank is built from them); the closed form those twins stand for
is checked against them in ``test_closed_form_activity``.
"""

import pytest

from rtl_oracle import ClockGate, CombinationalBlock, Register, RegisterBank, ShiftRegister

from repro.core.clock_modulation import ClockModulatedBank
from repro.core.load_circuit import LoadCircuit
from repro.rtl import components
from repro.rtl.components import CLOCK_EDGES_PER_CYCLE


class TestRegister:
    def test_enabled_register_burns_clock_power_even_when_holding(self):
        register = Register("r", width=8, reset_value=0x3C)
        activity = register.step(next_value=0x3C)
        assert activity.clock_toggles == CLOCK_EDGES_PER_CYCLE * 8
        assert activity.data_toggles == 0
        assert register.value == 0x3C

    def test_data_toggles_equal_hamming_distance(self):
        register = Register("r", width=8, reset_value=0x00)
        activity = register.step(next_value=0x0F)
        assert activity.data_toggles == 4

    def test_register_counts(self):
        register = components.Register("r", width=16)
        assert register.register_count == 16
        assert register.cell_count == 16

    def test_invalid_width_rejected(self):
        with pytest.raises(ValueError):
            components.Register("r", width=0)

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            components.Register("", width=1)


class TestShiftRegister:
    def test_alternating_initialisation(self):
        sr = ShiftRegister("sr", width=8)
        assert sr.value == 0b10101010

    def test_shift_flips_every_bit(self):
        sr = ShiftRegister("sr", width=8)
        activity = sr.shift()
        assert activity.data_toggles == 8
        assert activity.clock_toggles == CLOCK_EDGES_PER_CYCLE * 8

    @pytest.mark.parametrize("width, toggles", [(1, 0), (2, 2), (3, 2), (7, 6), (8, 8)])
    def test_toggles_per_shift_counts_odd_widths(self, width, toggles):
        # Stepped, and in the closed form of a one-word load circuit.
        assert ShiftRegister("sr", width=width).shift().data_toggles == toggles
        load = LoadCircuit(num_registers=width, word_width=width)
        assert load.activity([1]).data_toggles[0] == toggles

    def test_circular_shift_returns_after_two_steps(self):
        sr = ShiftRegister("sr", width=8)
        initial = sr.value
        sr.shift()
        sr.shift()
        assert sr.value == initial


class TestClockGate:
    def test_enabled_gate_propagates_clock(self):
        gate = ClockGate("icg")
        activity = gate.step(enable=True)
        assert activity.clock_toggles == CLOCK_EDGES_PER_CYCLE

    def test_disabled_gate_stops_clock(self):
        gate = ClockGate("icg")
        activity = gate.step(enable=False)
        assert activity.clock_toggles == 0

    def test_enable_change_costs_latch_toggle(self):
        gate = ClockGate("icg")
        first = gate.step(enable=True)
        second = gate.step(enable=True)
        assert first.comb_toggles == 1
        assert second.comb_toggles == 0


class TestCombinationalBlock:
    def test_activity_factor_estimate(self):
        block = CombinationalBlock("comb", gate_count=100, activity_factor=0.25)
        assert block.step(active=True).comb_toggles == 25

    def test_active_toggles_is_the_rounded_estimate(self):
        assert components.CombinationalBlock("c", gate_count=24, activity_factor=0.1).active_toggles == 2
        assert components.CombinationalBlock("c", gate_count=4, activity_factor=0.1).active_toggles == 0

    def test_inactive_block_idle(self):
        block = CombinationalBlock("comb", gate_count=100)
        assert block.step(active=False).total_toggles == 0

    def test_invalid_activity_factor_rejected(self):
        with pytest.raises(ValueError):
            components.CombinationalBlock("comb", gate_count=4, activity_factor=1.5)


class TestRegisterBank:
    def test_paper_geometry(self):
        bank = RegisterBank("bank", num_words=32, word_width=32)
        assert bank.total_registers == 1024
        assert len(bank.clock_gates) == 32

    def test_disabled_bank_is_idle(self):
        bank = RegisterBank("bank", num_words=4, word_width=8)
        assert bank.step(enable=False).total_toggles == 0

    def test_enabled_bank_clock_power(self):
        bank = RegisterBank("bank", num_words=4, word_width=8, switching_registers=0)
        activity = bank.step(enable=True)
        assert activity.clock_toggles >= CLOCK_EDGES_PER_CYCLE * 32
        assert activity.data_toggles == 0

    def test_switching_registers_add_data_toggles(self):
        bank = RegisterBank("bank", num_words=4, word_width=8, switching_registers=16)
        activity = bank.step(enable=True)
        assert activity.data_toggles == 16

    def test_switching_register_bound_validated(self):
        with pytest.raises(ValueError):
            ClockModulatedBank(num_words=2, word_width=8, switching_registers=17)
        with pytest.raises(ValueError):
            ClockModulatedBank(num_words=0, word_width=8)
