"""Unit tests for repro.soc.multicore."""

import numpy as np
import pytest

from repro.power.estimator import CLOCK_TOGGLE_ENERGY_J, CYCLE_TIME_S
from repro.soc.multicore import A5_SUBSYSTEM, PERIPHERALS, IdleBlock

# The Cortex-A5-class geometry that A5_SUBSYSTEM's flip-flop count stands for.
_CORE_REGISTERS = 22_000
_L1_SIZE_BYTES = 16 * 1024
_L1_LINE_BYTES = 32
_L1_WAYS = 4
_L1_LINES = _L1_SIZE_BYTES // _L1_LINE_BYTES
_L1_SETS = _L1_LINES // _L1_WAYS
_L1_TAG_BITS = 32 - (_L1_LINE_BYTES - 1).bit_length() - (_L1_SETS - 1).bit_length()


class TestIdleBlockParameters:
    def test_the_two_parameter_sets(self):
        assert (A5_SUBSYSTEM.register_count, A5_SUBSYSTEM.clocked_registers) == (89_056, 16_030)
        assert (PERIPHERALS.register_count, PERIPHERALS.clocked_registers) == (6_000, 2_100)


class TestIdleDualCoreA5Like:
    def test_register_count_scale(self):
        # Dual-core plus caches: must dwarf a Cortex-M0-class core (~1k registers).
        assert A5_SUBSYSTEM.register_count > 20_000
        assert A5_SUBSYSTEM.clocked_registers < A5_SUBSYSTEM.register_count

    def test_l1_cache_geometry(self):
        # Each of the four L1 caches (instruction and data, per core) holds
        # 16 KiB in 32-byte lines, 4 ways: 512 lines in 128 sets.
        assert _L1_SETS * _L1_WAYS * _L1_LINE_BYTES == _L1_SIZE_BYTES
        assert _L1_LINES == _L1_SETS * _L1_WAYS == 512
        # What the caches add to the A5 count, beyond the 22,000 flip-flops
        # of each core, is a whole number of flip-flops per line.
        per_cache = (A5_SUBSYSTEM.register_count - 2 * _CORE_REGISTERS) // 4
        assert per_cache * 4 == A5_SUBSYSTEM.register_count - 2 * _CORE_REGISTERS
        assert per_cache % _L1_LINES == 0

    def test_l1_tag_bits(self):
        # A 32-bit address less 5 offset and 7 index bits leaves a 20-bit
        # tag; each line of the A5 count holds that tag and 2 state bits.
        assert _L1_TAG_BITS == 20 > 0
        per_cache = (A5_SUBSYSTEM.register_count - 2 * _CORE_REGISTERS) // 4
        assert per_cache // _L1_LINES == _L1_TAG_BITS + 2

    def test_register_count_is_two_cores_plus_l1_caches(self):
        # Per core 22,000 flip-flops plus L1 instruction and data caches of
        # 512 lines, each a 20-bit tag and 2 state bits.
        registers = 2 * _CORE_REGISTERS + 2 * 2 * _L1_LINES * (_L1_TAG_BITS + 2)
        assert A5_SUBSYSTEM.register_count == registers
        # 18% of the clock tree stays ungated while the cores idle.
        assert A5_SUBSYSTEM.clocked_registers == round(registers * 0.18)

    def test_power_shape_and_determinism(self):
        first = A5_SUBSYSTEM.draw_power(500, np.random.default_rng(3))
        second = A5_SUBSYSTEM.draw_power(500, np.random.default_rng(3))
        assert first.shape == (500,)
        assert first.tobytes() == second.tobytes()

    def test_different_seeds_differ(self):
        assert not np.array_equal(
            A5_SUBSYSTEM.draw_power(500, np.random.default_rng(1)),
            A5_SUBSYSTEM.draw_power(500, np.random.default_rng(2)),
        )

    def test_clock_component_is_constant(self):
        # A block with no data activity draws only its ungated clock tree,
        # 2 edges per clocked register every cycle, except in the rare
        # housekeeping bursts.
        block = IdleBlock(
            register_count=4000, clocked_registers=1000,
            mean_data_activity=0.0, data_activity_std=0.0,
        )
        power = block.draw_power(2000, np.random.default_rng(0))
        floor = 2 * block.clocked_registers * CLOCK_TOGGLE_ENERGY_J / CYCLE_TIME_S
        assert power.min() == floor
        assert np.all(power >= floor)
        assert np.count_nonzero(power == floor) >= 1950

    def test_invalid_cycle_count_rejected(self):
        with pytest.raises(ValueError):
            A5_SUBSYSTEM.draw_power(0, np.random.default_rng(0))


class TestBackgroundIPBlocks:
    def test_smaller_than_a5(self):
        assert PERIPHERALS.clocked_registers < A5_SUBSYSTEM.clocked_registers

    def test_power_nonnegative(self):
        # Clipped activity: no cycle draws less than the clock tree alone.
        power = PERIPHERALS.draw_power(1000, np.random.default_rng(5))
        floor = 2 * PERIPHERALS.clocked_registers * CLOCK_TOGGLE_ENERGY_J / CYCLE_TIME_S
        assert power.min() >= floor > 0
