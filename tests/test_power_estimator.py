"""Unit tests for repro.power.estimator."""

import numpy as np
import pytest

from rtl_oracle import trace_from_records
from repro.power.estimator import PowerEstimator
from repro.rtl.activity import ActivityRecord, ActivityTrace


class TestCalibration:
    def test_per_register_clock_power(self, nominal_estimator):
        assert nominal_estimator.per_register_clock_power() == pytest.approx(1.476e-6, rel=1e-6)

    def test_per_register_data_power(self, nominal_estimator):
        assert nominal_estimator.per_register_data_power() == pytest.approx(1.126e-6, rel=1e-6)

    def test_at_nominal_constructor(self):
        estimator = PowerEstimator.at_nominal(frequency_hz=20e6)
        # Same energy per toggle, double frequency -> double power.
        assert estimator.per_register_clock_power() == pytest.approx(2 * 1.476e-6, rel=1e-6)


class TestComponentPower:
    def test_component_power_includes_leakage(self, nominal_estimator):
        trace = trace_from_records("bank", [ActivityRecord(clock_toggles=2048)] * 4)
        dynamic_w = nominal_estimator.dynamic_model.average_power("dff", trace)
        static_w = nominal_estimator.leakage_of({"dff": 1024, "icg": 32})
        assert dynamic_w == pytest.approx(1024 * 1.476e-6, rel=1e-6)
        assert 0.3e-6 < static_w < 0.5e-6

    def test_cycle_power(self, nominal_estimator):
        value = nominal_estimator.cycle_power("dff", ActivityRecord(clock_toggles=2, data_toggles=1))
        assert value == pytest.approx((1.476 + 1.126) * 1e-6, rel=1e-6)


class TestPowerTraces:
    def test_power_trace_adds_static(self, nominal_estimator):
        trace = trace_from_records("t", [ActivityRecord(clock_toggles=2)] * 3)
        power = nominal_estimator.power_trace(trace, static_w=1e-6)
        assert np.allclose(power.power_w, 1.476e-6 + 1e-6)

    def test_combined_power_trace(self, nominal_estimator):
        traces = {
            "a": trace_from_records("a", [ActivityRecord(clock_toggles=2)] * 2),
            "b": trace_from_records("b", [ActivityRecord(data_toggles=1)] * 2),
        }
        combined = nominal_estimator.combined_power_trace(traces)
        assert np.allclose(combined.power_w, (1.476 + 1.126) * 1e-6)

    def test_combined_power_trace_empty_rejected(self, nominal_estimator):
        with pytest.raises(ValueError):
            nominal_estimator.combined_power_trace({})

    def test_combined_power_trace_length_mismatch_rejected(self, nominal_estimator):
        traces = {
            "a": ActivityTrace.zeros("a", 2),
            "b": ActivityTrace.zeros("b", 3),
        }
        with pytest.raises(ValueError):
            nominal_estimator.combined_power_trace(traces)

    def test_leakage_of_inventory(self, nominal_estimator):
        assert nominal_estimator.leakage_of({"dff": 1024, "icg": 32}) == pytest.approx(4.0e-7, rel=0.2)
