"""Unit tests for repro.soc.multicore."""

import numpy as np
import pytest

from repro.soc.multicore import BackgroundIPBlocks, IdleBlockParameters, IdleDualCoreA5Like


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

    def test_activity_trace_shape_and_determinism(self):
        a5 = IdleDualCoreA5Like()
        first = a5.activity_trace(500, np.random.default_rng(3))
        second = a5.activity_trace(500, np.random.default_rng(3))
        assert len(first) == 500
        assert np.array_equal(first.data_toggles, second.data_toggles)

    def test_different_seeds_differ(self):
        a5 = IdleDualCoreA5Like()
        assert not np.array_equal(
            a5.activity_trace(500, np.random.default_rng(1)).data_toggles,
            a5.activity_trace(500, np.random.default_rng(2)).data_toggles,
        )

    def test_clock_component_is_constant(self):
        a5 = IdleDualCoreA5Like()
        trace = a5.activity_trace(100, np.random.default_rng(0))
        assert np.all(trace.clock_toggles == trace.clock_toggles[0])
        assert trace.clock_toggles[0] == 2 * a5.clocked_registers

    def test_invalid_cycle_count_rejected(self):
        with pytest.raises(ValueError):
            IdleDualCoreA5Like().activity_trace(0, np.random.default_rng(0))

    def test_invalid_geometry_rejected(self):
        with pytest.raises(ValueError):
            IdleDualCoreA5Like(registers_per_core=0)


class TestBackgroundIPBlocks:
    def test_smaller_than_a5(self):
        peripherals = BackgroundIPBlocks()
        a5 = IdleDualCoreA5Like()
        assert peripherals.clocked_registers < a5.clocked_registers

    def test_activity_nonnegative(self):
        trace = BackgroundIPBlocks().activity_trace(1000, np.random.default_rng(5))
        assert trace.data_toggles.min() >= 0
        assert trace.comb_toggles.min() >= 0
