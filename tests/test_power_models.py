"""Unit tests for repro.power.models."""

import numpy as np
import pytest

from rtl_oracle import trace_from_records
from repro.power.library import TSMC65LP_LIKE
from repro.power.models import (
    DynamicPowerModel,
    OperatingPoint,
    StaticPowerModel,
    scale_energy_with_voltage,
)
from repro.rtl.activity import ActivityRecord, ActivityTrace
from repro.rtl.signals import Clock


@pytest.fixture
def operating_point() -> OperatingPoint:
    return OperatingPoint(clock=Clock("clk", 10e6), voltage_v=1.2)


class TestVoltageScaling:
    def test_reference_voltage_is_identity(self):
        assert scale_energy_with_voltage(1e-15, 1.2, 1.2) == pytest.approx(1e-15)

    def test_quadratic_scaling(self):
        assert scale_energy_with_voltage(1e-15, 0.6, 1.2) == pytest.approx(0.25e-15)

    def test_invalid_voltage_rejected(self):
        with pytest.raises(ValueError):
            scale_energy_with_voltage(1e-15, 0.0)


class TestOperatingPoint:
    def test_cycle_time(self, operating_point):
        assert operating_point.cycle_time_s == pytest.approx(100e-9)

    def test_invalid_voltage_rejected(self):
        with pytest.raises(ValueError):
            OperatingPoint(clock=Clock("clk", 1e6), voltage_v=-1.0)


class TestDynamicPowerModel:
    def test_single_register_clock_power_matches_paper(self, operating_point):
        model = DynamicPowerModel(TSMC65LP_LIKE, operating_point)
        energy = model.cycle_energy("dff", ActivityRecord(clock_toggles=2))
        power = energy / operating_point.cycle_time_s
        assert power == pytest.approx(1.476e-6, rel=1e-6)

    def test_single_register_data_power_matches_paper(self, operating_point):
        model = DynamicPowerModel(TSMC65LP_LIKE, operating_point)
        energy = model.cycle_energy("dff", ActivityRecord(data_toggles=1))
        power = energy / operating_point.cycle_time_s
        assert power == pytest.approx(1.126e-6, rel=1e-6)

    def test_power_scales_with_voltage(self):
        low_v = OperatingPoint(clock=Clock("clk", 10e6), voltage_v=0.6)
        model = DynamicPowerModel(TSMC65LP_LIKE, low_v)
        energy = model.cycle_energy("dff", ActivityRecord(clock_toggles=2))
        assert energy == pytest.approx(0.25 * 1.476e-13, rel=1e-6)

    def test_average_power_over_trace(self, operating_point):
        model = DynamicPowerModel(TSMC65LP_LIKE, operating_point)
        trace = trace_from_records(
            "t", [ActivityRecord(clock_toggles=2), ActivityRecord(clock_toggles=0)]
        )
        assert model.average_power("dff", trace) == pytest.approx(1.476e-6 / 2)

    def test_average_power_of_empty_trace_is_zero(self, operating_point):
        model = DynamicPowerModel(TSMC65LP_LIKE, operating_point)
        assert model.average_power("dff", ActivityTrace.zeros("t", 0)) == 0.0

    def test_power_per_cycle_vectorised(self, operating_point):
        model = DynamicPowerModel(TSMC65LP_LIKE, operating_point)
        trace = trace_from_records("t", [ActivityRecord(clock_toggles=2)] * 5)
        per_cycle = model.power_per_cycle("dff", trace)
        assert per_cycle.shape == (5,)
        assert np.allclose(per_cycle, 1.476e-6)


class TestStaticPowerModel:
    def test_leakage_of_inventory(self, operating_point):
        model = StaticPowerModel(TSMC65LP_LIKE, operating_point)
        leak = model.total_leakage({"dff": 1024, "icg": 32})
        assert 0.35e-6 < leak < 0.45e-6

    def test_leakage_increases_with_temperature(self, operating_point):
        cold = StaticPowerModel(TSMC65LP_LIKE, operating_point)
        hot = StaticPowerModel(
            TSMC65LP_LIKE, OperatingPoint(clock=operating_point.clock, voltage_v=1.2, temperature_c=50.0)
        )
        assert hot.cell_leakage("dff") == pytest.approx(2.0 * cold.cell_leakage("dff"))

    def test_state_dependence_is_small(self, operating_point):
        model = StaticPowerModel(TSMC65LP_LIKE, operating_point)
        idle = model.cell_leakage("dff", active_fraction=0.0)
        active = model.cell_leakage("dff", active_fraction=1.0)
        assert idle < active < idle * 1.05

    def test_invalid_active_fraction_rejected(self, operating_point):
        model = StaticPowerModel(TSMC65LP_LIKE, operating_point)
        with pytest.raises(ValueError):
            model.cell_leakage("dff", active_fraction=1.5)

    def test_negative_count_rejected(self, operating_point):
        model = StaticPowerModel(TSMC65LP_LIKE, operating_point)
        with pytest.raises(ValueError):
            model.total_leakage({"dff": -1})
