"""Unit tests for repro.power.trace."""

import numpy as np
import pytest

from repro.power.trace import PowerTrace
from repro.rtl.signals import Clock


@pytest.fixture
def clock() -> Clock:
    return Clock("clk", 10e6)


class TestPowerTrace:
    def test_basic_statistics(self, clock):
        trace = PowerTrace("t", clock, np.array([1e-3, 3e-3]), voltage_v=1.2)
        assert trace.average_power_w == pytest.approx(2e-3)
        assert trace.peak_power_w == pytest.approx(3e-3)
        assert trace.num_cycles == 2

    def test_energy(self, clock):
        trace = PowerTrace("t", clock, np.array([2e-3, 2e-3]))
        assert trace.energy_j == pytest.approx(4e-3 * 100e-9)

    def test_negative_power_rejected(self, clock):
        with pytest.raises(ValueError):
            PowerTrace("t", clock, np.array([-1e-3]))

    def test_two_dimensional_rejected(self, clock):
        with pytest.raises(ValueError):
            PowerTrace("t", clock, np.zeros((2, 2)))

    def test_add_traces(self, clock):
        a = PowerTrace("a", clock, np.array([1e-3, 1e-3]))
        b = PowerTrace("b", clock, np.array([2e-3, 0.0]))
        total = a.add(b)
        assert list(total.power_w) == [3e-3, 1e-3]

    def test_add_length_mismatch_rejected(self, clock):
        a = PowerTrace("a", clock, np.array([1e-3]))
        b = PowerTrace("b", clock, np.array([1e-3, 2e-3]))
        with pytest.raises(ValueError):
            a.add(b)

    def test_add_voltage_mismatch_rejected(self, clock):
        a = PowerTrace("a", clock, np.array([1e-3]), voltage_v=1.2)
        b = PowerTrace("b", clock, np.array([1e-3]), voltage_v=1.0)
        with pytest.raises(ValueError):
            a.add(b)

    def test_scale(self, clock):
        trace = PowerTrace("t", clock, np.array([2e-3]))
        assert trace.scale(0.5).power_w[0] == pytest.approx(1e-3)
        with pytest.raises(ValueError):
            trace.scale(-1.0)

    def test_slice_and_tile(self, clock):
        trace = PowerTrace("t", clock, np.array([1e-3, 2e-3, 3e-3]))
        assert list(trace.slice(1, 3).power_w) == [2e-3, 3e-3]
        tiled = trace.tile(7)
        assert len(tiled) == 7
        assert tiled.power_w[3] == pytest.approx(1e-3)

    def test_empty_trace_statistics(self, clock):
        trace = PowerTrace("t", clock, np.array([]))
        assert trace.average_power_w == 0.0
        assert trace.peak_power_w == 0.0
