"""Unit tests for repro.power.trace."""

import numpy as np
import pytest

from repro.power.trace import PowerTrace


class TestPowerTrace:
    def test_basic_statistics(self):
        trace = PowerTrace("t", np.array([1e-3, 3e-3]))
        assert trace.average_power_w == pytest.approx(2e-3)
        assert trace.peak_power_w == pytest.approx(3e-3)
        assert len(trace) == 2

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            PowerTrace("t", np.array([-1e-3]))

    def test_two_dimensional_rejected(self):
        with pytest.raises(ValueError):
            PowerTrace("t", np.zeros((2, 2)))

    def test_add_traces(self):
        a = PowerTrace("a", np.array([1e-3, 1e-3]))
        b = PowerTrace("b", np.array([2e-3, 0.0]))
        total = a.add(b)
        assert list(total.power_w) == [3e-3, 1e-3]

    def test_add_length_mismatch_rejected(self):
        a = PowerTrace("a", np.array([1e-3]))
        b = PowerTrace("b", np.array([1e-3, 2e-3]))
        with pytest.raises(ValueError):
            a.add(b)

    def test_empty_trace_statistics(self):
        trace = PowerTrace("t", np.array([]))
        assert trace.average_power_w == 0.0
        assert trace.peak_power_w == 0.0
