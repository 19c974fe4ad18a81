"""Unit tests for repro.soc.multicore."""

import numpy as np
import pytest

from repro.power.estimator import CLOCK_TOGGLE_ENERGY_J, CYCLE_TIME_S
from repro.soc.multicore import (
    BackgroundIPBlocks,
    IdleBlockParameters,
    IdleDualCoreA5Like,
    _IdleActivitySource,
)


class TestIdleBlockParameters:
    def test_validation(self):
        with pytest.raises(ValueError):
            IdleBlockParameters("x", register_count=0, ungated_fraction=0.2, mean_data_activity=1, data_activity_std=1)
        with pytest.raises(ValueError):
            IdleBlockParameters("x", register_count=10, ungated_fraction=1.5, mean_data_activity=1, data_activity_std=1)
        with pytest.raises(ValueError):
            IdleBlockParameters("x", register_count=10, ungated_fraction=0.5, mean_data_activity=-1, data_activity_std=1)


class TestIdleDualCoreA5Like:
    def test_register_count_scale(self):
        a5 = IdleDualCoreA5Like()
        # Dual-core plus caches: must dwarf a Cortex-M0-class core (~1k registers).
        assert a5.register_count > 20_000
        assert a5.clocked_registers < a5.register_count

    def test_power_shape_and_determinism(self):
        a5 = IdleDualCoreA5Like()
        first = a5.draw_power(500, np.random.default_rng(3))
        second = a5.draw_power(500, np.random.default_rng(3))
        assert first.shape == (500,)
        assert first.tobytes() == second.tobytes()

    def test_different_seeds_differ(self):
        a5 = IdleDualCoreA5Like()
        assert not np.array_equal(
            a5.draw_power(500, np.random.default_rng(1)),
            a5.draw_power(500, np.random.default_rng(2)),
        )

    def test_clock_component_is_constant(self):
        # A block with no data activity draws only its ungated clock tree,
        # 2 edges per clocked register every cycle, except in the rare
        # housekeeping bursts.
        block = _IdleActivitySource(
            IdleBlockParameters(
                "quiet", register_count=4000, ungated_fraction=0.25,
                mean_data_activity=0.0, data_activity_std=0.0,
            )
        )
        power = block.draw_power(2000, np.random.default_rng(0))
        floor = 2 * block.clocked_registers * CLOCK_TOGGLE_ENERGY_J / CYCLE_TIME_S
        assert power.min() == floor
        assert np.all(power >= floor)
        assert np.count_nonzero(power == floor) >= 1950

    def test_invalid_cycle_count_rejected(self):
        with pytest.raises(ValueError):
            IdleDualCoreA5Like().draw_power(0, np.random.default_rng(0))

    def test_invalid_geometry_rejected(self):
        with pytest.raises(ValueError):
            IdleDualCoreA5Like(registers_per_core=0)


class TestBackgroundIPBlocks:
    def test_smaller_than_a5(self):
        peripherals = BackgroundIPBlocks()
        a5 = IdleDualCoreA5Like()
        assert peripherals.clocked_registers < a5.clocked_registers

    def test_power_nonnegative(self):
        # Clipped activity: no cycle draws less than the clock tree alone.
        peripherals = BackgroundIPBlocks()
        power = peripherals.draw_power(1000, np.random.default_rng(5))
        floor = 2 * peripherals.clocked_registers * CLOCK_TOGGLE_ENERGY_J / CYCLE_TIME_S
        assert power.min() >= floor > 0
