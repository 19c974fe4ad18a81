"""Unit tests for repro.soc.multicore."""

import numpy as np
import pytest
from background_oracle import draw_idle_power

from repro.power.estimator import (
    CLOCK_TOGGLE_ENERGY_J,
    COMB_TOGGLE_ENERGY_J,
    CYCLE_TIME_S,
    DATA_TOGGLE_ENERGY_J,
)
from repro.soc.multicore import A5_SUBSYSTEM, PERIPHERALS, IdleBlock

# The Cortex-A5-class geometry that A5_SUBSYSTEM's flip-flop count stands for.
_CORE_REGISTERS = 22_000
_L1_SIZE_BYTES = 16 * 1024
_L1_LINE_BYTES = 32
_L1_WAYS = 4
_L1_LINES = _L1_SIZE_BYTES // _L1_LINE_BYTES
_L1_SETS = _L1_LINES // _L1_WAYS
_L1_TAG_BITS = 32 - (_L1_LINE_BYTES - 1).bit_length() - (_L1_SETS - 1).bit_length()

#: Draws of the per-cycle oracle law behind each closed-form moment check,
#: taken in chunks to bound memory.  At 10^7 the sampled standard
#: deviation's relative error is ~3e-4 (the bursts make the law
#: heavy-tailed), well inside the 1e-3 tolerance.
_ORACLE_DRAWS = 10_000_000
_ORACLE_CHUNK = 1_000_000


def _clock_floor_w(block: IdleBlock) -> float:
    return 2 * block.clocked_registers * CLOCK_TOGGLE_ENERGY_J / CYCLE_TIME_S


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
        # The oracle law is reproducible, so the moment checks are too.
        first = draw_idle_power(A5_SUBSYSTEM, 500, np.random.default_rng(3))
        second = draw_idle_power(A5_SUBSYSTEM, 500, np.random.default_rng(3))
        assert first.shape == (500,)
        assert first.tobytes() == second.tobytes()

    def test_different_seeds_differ(self):
        assert not np.array_equal(
            draw_idle_power(A5_SUBSYSTEM, 500, np.random.default_rng(1)),
            draw_idle_power(A5_SUBSYSTEM, 500, np.random.default_rng(2)),
        )

    def test_clock_component_is_constant(self):
        # A block with no data activity draws only its ungated clock tree,
        # 2 edges per clocked register every cycle, except in the rare
        # housekeeping bursts; its closed-form moments are those of the
        # bursts alone.
        block = IdleBlock(
            register_count=4000, clocked_registers=1000,
            mean_data_activity=0.0, data_activity_std=0.0,
        )
        power = draw_idle_power(block, 2000, np.random.default_rng(0))
        floor = _clock_floor_w(block)
        assert power.min() == floor
        assert np.all(power >= floor)
        assert np.count_nonzero(power == floor) >= 1950
        watts_per_toggle = (DATA_TOGGLE_ENERGY_J + 0.6 * COMB_TOGGLE_ENERGY_J) / CYCLE_TIME_S
        burst_mean = 0.002 * 224.5
        burst_square = 0.002 * (224.5**2 + (350**2 - 1) / 12)
        assert block.mean_power_w == pytest.approx(floor + burst_mean * watts_per_toggle, rel=1e-12)
        assert block.fluctuation_w == pytest.approx(
            np.sqrt(burst_square - burst_mean**2) * watts_per_toggle, rel=1e-12
        )

    def test_invalid_cycle_count_rejected(self):
        with pytest.raises(ValueError):
            draw_idle_power(A5_SUBSYSTEM, 0, np.random.default_rng(0))


@pytest.mark.parametrize("block", [PERIPHERALS, A5_SUBSYSTEM], ids=["peripherals", "a5"])
def test_closed_form_moments_match_the_per_cycle_law(block):
    rng = np.random.default_rng(20_141)
    total = total_square = 0.0
    for _ in range(_ORACLE_DRAWS // _ORACLE_CHUNK):
        power = draw_idle_power(block, _ORACLE_CHUNK, rng)
        total += power.sum()
        total_square += np.einsum("i,i->", power, power)
    mean = total / _ORACLE_DRAWS
    std = np.sqrt(total_square / _ORACLE_DRAWS - mean * mean)
    assert block.mean_power_w == pytest.approx(mean, rel=1e-3)
    assert block.fluctuation_w == pytest.approx(std, rel=1e-3)


class TestBackgroundIPBlocks:
    def test_smaller_than_a5(self):
        assert PERIPHERALS.clocked_registers < A5_SUBSYSTEM.clocked_registers

    def test_power_nonnegative(self):
        # Clipped activity: no cycle draws less than the clock tree alone.
        power = draw_idle_power(PERIPHERALS, 1000, np.random.default_rng(5))
        floor = _clock_floor_w(PERIPHERALS)
        assert power.min() >= floor > 0
        assert PERIPHERALS.mean_power_w > floor
        assert PERIPHERALS.fluctuation_w > 0
