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

    def test_add_combines_fluctuations_in_quadrature(self):
        a = PowerTrace("a", np.array([1e-3, 1e-3]), fluctuation_w=3e-4)
        b = PowerTrace("b", np.array([2e-3, 0.0]), fluctuation_w=4e-4)
        assert a.add(b).fluctuation_w == pytest.approx(5e-4, rel=1e-15)
        assert b.add(a).fluctuation_w == pytest.approx(5e-4, rel=1e-15)
        plain = PowerTrace("c", np.array([0.0, 0.0]))
        assert plain.fluctuation_w == 0.0
        assert a.add(plain).fluctuation_w == 3e-4

    def test_fluctuation_is_not_in_the_statistics(self):
        trace = PowerTrace("t", np.array([1e-3, 3e-3]), fluctuation_w=1e-3)
        assert trace.average_power_w == pytest.approx(2e-3)
        assert trace.peak_power_w == pytest.approx(3e-3)

    def test_negative_fluctuation_rejected(self):
        with pytest.raises(ValueError):
            PowerTrace("t", np.array([1e-3]), fluctuation_w=-1e-6)
        with pytest.raises(ValueError):
            PowerTrace("t", np.array([1e-3]), fluctuation_w=float("nan"))
