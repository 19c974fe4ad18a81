"""Unit tests for repro.power.estimator: the calibration at 10 MHz / 1.2 V."""

import numpy as np
import pytest

from rtl_oracle import trace_from_records
from repro.core.config import MeasurementConfig
from repro.power.estimator import (
    CLOCK_TOGGLE_ENERGY_J,
    CYCLE_TIME_S,
    DATA_TOGGLE_ENERGY_J,
    LEAKAGE_W,
    STATE_DEPENDENCE,
)
from repro.rtl.activity import ActivityRecord, ActivityTrace


class TestCalibration:
    def test_clock_toggle_energy_matches_paper(self):
        # Two clock transitions per cycle at 10 MHz must give 1.476 uW.
        assert CLOCK_TOGGLE_ENERGY_J == pytest.approx(73.8e-15)
        assert 2 * CLOCK_TOGGLE_ENERGY_J / CYCLE_TIME_S == pytest.approx(1.476e-6)

    def test_data_toggle_energy_matches_paper(self):
        assert DATA_TOGGLE_ENERGY_J == pytest.approx(112.6e-15)
        assert DATA_TOGGLE_ENERGY_J / CYCLE_TIME_S == pytest.approx(1.126e-6)

    def test_cycle_time(self):
        assert CYCLE_TIME_S == pytest.approx(100e-9)

    def test_clock_period_matches_measurement_clock(self):
        # The power model's cycle is one period of the measured chip clock.
        assert 1.0 / MeasurementConfig().clock_frequency_hz == pytest.approx(CYCLE_TIME_S)

    def test_per_register_clock_power(self, nominal_estimator):
        assert nominal_estimator.per_register_clock_power() == pytest.approx(1.476e-6, rel=1e-6)

    def test_per_register_data_power(self, nominal_estimator):
        assert nominal_estimator.per_register_data_power() == pytest.approx(1.126e-6, rel=1e-6)


class TestDynamicPower:
    def test_single_register_clock_power_matches_paper(self, nominal_estimator):
        # One register's two clock edges in one cycle, through the trace path.
        trace = trace_from_records("dff", [ActivityRecord(clock_toggles=2)])
        power = nominal_estimator.average_power(trace)
        assert power == pytest.approx(1.476e-6, rel=1e-6)
        assert power == pytest.approx(nominal_estimator.per_register_clock_power())

    def test_single_register_data_power_matches_paper(self, nominal_estimator):
        trace = trace_from_records("dff", [ActivityRecord(data_toggles=1)])
        power = nominal_estimator.average_power(trace)
        assert power == pytest.approx(1.126e-6, rel=1e-6)
        assert power == pytest.approx(nominal_estimator.per_register_data_power())

    def test_average_power_over_trace(self, nominal_estimator):
        trace = trace_from_records(
            "t", [ActivityRecord(clock_toggles=2), ActivityRecord(clock_toggles=0)]
        )
        assert nominal_estimator.average_power(trace) == pytest.approx(1.476e-6 / 2)

    def test_average_power_of_empty_trace_is_zero(self, nominal_estimator):
        assert nominal_estimator.average_power(ActivityTrace("t")) == 0.0

    def test_power_per_cycle_vectorised(self, nominal_estimator):
        trace = trace_from_records("t", [ActivityRecord(clock_toggles=2)] * 5)
        per_cycle = nominal_estimator.power_per_cycle(trace)
        assert per_cycle.shape == (5,)
        assert np.allclose(per_cycle, 1.476e-6)


class TestComponentPower:
    def test_component_power_includes_leakage(self, nominal_estimator):
        trace = trace_from_records("bank", [ActivityRecord(clock_toggles=2048)] * 4)
        dynamic_w = nominal_estimator.average_power(trace)
        static_w = nominal_estimator.leakage_of({"dff": 1024, "icg": 32})
        assert dynamic_w == pytest.approx(1024 * 1.476e-6, rel=1e-6)
        assert 0.3e-6 < static_w < 0.5e-6

    def test_cycle_power(self, nominal_estimator):
        trace = trace_from_records("t", [ActivityRecord(clock_toggles=2, data_toggles=1)])
        value = nominal_estimator.power_per_cycle(trace)[0]
        assert value == pytest.approx((1.476 + 1.126) * 1e-6, rel=1e-6)


class TestPowerTraces:
    def test_power_trace_adds_static(self, nominal_estimator):
        trace = trace_from_records("t", [ActivityRecord(clock_toggles=2)] * 3)
        power = nominal_estimator.combined_power_trace({"t": trace}, static_w=1e-6)
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
            "a": trace_from_records("a", [ActivityRecord()] * 2),
            "b": trace_from_records("b", [ActivityRecord()] * 3),
        }
        with pytest.raises(ValueError):
            nominal_estimator.combined_power_trace(traces)

    def test_leakage_of_inventory(self, nominal_estimator):
        # 1,024 DFFs + 32 ICGs leak around 0.40 uW (Table I static column).
        leak = nominal_estimator.leakage_of({"dff": 1024, "icg": 32})
        assert 0.35e-6 < leak < 0.45e-6
        assert leak == pytest.approx(4.0e-7, rel=0.2)


class TestLeakage:
    def test_leakage_table_has_expected_cells(self):
        for cell_type in ("dff", "icg", "clk_buf", "comb", "sram"):
            assert LEAKAGE_W[cell_type] > 0

    def test_redundant_bank_leakage_near_paper_value(self):
        # 1,024 DFFs + 32 ICGs should leak around 0.40 uW (Table I static column).
        leak = LEAKAGE_W["dff"] * 1024 + LEAKAGE_W["icg"] * 32
        assert 0.35e-6 < leak < 0.45e-6

    def test_total_leakage_of_inventory(self, nominal_estimator):
        # An inventory leaks the sum of its cells' leakage.
        leak = nominal_estimator.leakage_of({"dff": 1024, "icg": 32})
        dff = nominal_estimator.leakage_of({"dff": 1})
        icg = nominal_estimator.leakage_of({"icg": 1})
        per_cell = 1024 * dff + 32 * icg
        assert leak == pytest.approx(per_cell)
        assert 0.35e-6 < leak < 0.45e-6

    def test_unknown_cell_leaks_as_comb(self, nominal_estimator):
        assert nominal_estimator.leakage_of({"weird_macro": 3}) == nominal_estimator.leakage_of(
            {"comb": 3}
        )

    def test_state_dependence_is_small(self, nominal_estimator):
        idle = nominal_estimator.leakage_of({"dff": 1}, active_fraction=0.0)
        active = nominal_estimator.leakage_of({"dff": 1}, active_fraction=1.0)
        assert idle < active < idle * 1.05
        assert active == pytest.approx(idle * (1.0 + STATE_DEPENDENCE))

    def test_invalid_active_fraction_rejected(self, nominal_estimator):
        for fraction in (-0.1, 1.5):
            with pytest.raises(ValueError):
                nominal_estimator.leakage_of({"dff": 1}, active_fraction=fraction)

    def test_negative_count_rejected(self, nominal_estimator):
        with pytest.raises(ValueError):
            nominal_estimator.leakage_of({"dff": -1})
