"""Tests for the Table I, Table II and Section VI experiments, run through the pipeline."""

import dataclasses

import pytest

from paper_values import PAPER_EXPECTATIONS
from repro.core.architectures import ClockModulationWatermark
from repro.core.config import WatermarkConfig
from repro.experiments.table1 import Table1Result, Table1Row, _format_power
from repro.pipeline import ScenarioSpec, run_scenario
from repro.power.estimator import PowerEstimator


def _rows_by_switching(result):
    return {row.switching_registers: row for row in result.rows}


class TestFormatPower:
    @pytest.mark.parametrize(
        "value, expected_unit",
        [(1.5e-3, "mW"), (2e-6, "uW"), (3e-9, "nW"), (4e-12, "pW"), (0.0, "W")],
    )
    def test_units(self, value, expected_unit):
        assert expected_unit in _format_power(value)

    def test_milliwatt_value(self):
        assert _format_power(1.51e-3) == "1.51 mW"


class TestTable1:
    @pytest.fixture(scope="class")
    def result(self):
        return run_scenario("table1").payload

    def test_four_rows(self, result):
        assert [row.switching_registers for row in result.rows] == [0, 256, 512, 1024]

    def test_dynamic_power_close_to_paper(self, result):
        expectations = PAPER_EXPECTATIONS["table1"]["dynamic_power_mw"]
        for row in result.rows:
            expected_mw = expectations[row.switching_registers]
            assert row.dynamic_w * 1e3 == pytest.approx(expected_mw, rel=0.15)

    def test_dynamic_power_monotonic(self, result):
        assert result.dynamic_power_monotonic()

    def test_static_power_negligible(self, result):
        for row in result.rows:
            assert row.static_w < 1e-6
            assert row.static_w / row.total_w < 0.01

    def test_clock_power_dominates_data_power(self, result):
        # Going from 0 to 1,024 switching registers adds data power for all
        # 1,024 registers; that increase must stay below the clock-only row,
        # i.e. per-register clock power > per-register data power.
        rows = _rows_by_switching(result)
        clock_only = rows[0].dynamic_w
        full = rows[1024].dynamic_w
        assert full - clock_only < clock_only

    def test_share_of_watermark_dynamic_high(self, result):
        expectations = PAPER_EXPECTATIONS["table1"]["share_of_watermark_dynamic"]
        for row in result.rows:
            assert row.share_of_watermark_dynamic == pytest.approx(
                expectations[row.switching_registers], abs=0.02
            )

    def test_row_lookup_and_rendering(self, result):
        assert _rows_by_switching(result)[512].switching_registers == 512
        text = result.to_text()
        assert "Table I" in text
        assert "No Data Switching" in text
        assert "1024 Switching Registers" in text
        full = result.rows[-1]
        assert f"{full.share_of_watermark_dynamic * 100:.1f}%" in text

    def test_columns_line_up(self, result):
        # Every row is as wide as the header, whatever its label's length,
        # so the power columns sit under their headings.
        lines = result.to_text().splitlines()
        header = lines[2]
        rows = lines[4:]
        assert len(rows) == 4
        assert {len(line) for line in rows} == {len(header)}
        dynamic_end = header.index("Dynamic") + len("Dynamic")
        assert all(line[dynamic_end - 2 : dynamic_end] == "mW" for line in rows)

    def test_text_rendering_contains_rows(self):
        table = Table1Result(rows=[Table1Row(0, 1.51e-3, 0.4e-6, 0.956)])
        text = table.to_text()
        assert "Table I" in text
        assert "No Data Switching" in text
        assert "95.6%" in text
        assert "1.51 mW" in text

    @staticmethod
    def _run(num_words, counts):
        spec = ScenarioSpec(
            kind="table1",
            name="table1",
            watermark=WatermarkConfig(num_words=num_words),
            params={"switching_register_counts": counts},
        )
        return run_scenario(spec).payload

    def test_a_larger_bank_switches_all_its_registers(self):
        # 64 words x 32 bits = 2,048 registers: every one may switch.
        result = self._run(64, [0, 1024, 2048])
        assert [row.switching_registers for row in result.rows] == [0, 1024, 2048]
        statics = [row.static_w for row in result.rows]
        assert statics[0] < statics[1] < statics[2]

    def test_state_dependent_leakage_follows_the_bank_size(self):
        # A 512-register bank at full switching carries the whole
        # state-dependent leakage of its cells, not half of it.
        result = self._run(16, [0, 512])
        config = dataclasses.replace(WatermarkConfig(num_words=16), switching_registers=512)
        bank = ClockModulationWatermark.from_config(config).modulated_block
        assert bank.register_count == 512
        full = PowerEstimator().leakage_of(bank.cell_inventory(), active_fraction=1.0)
        assert result.rows[-1].static_w == full


class TestTable2:
    @pytest.fixture(scope="class")
    def result(self):
        return run_scenario("table2").payload

    def test_register_counts_match_paper_exactly(self, result):
        expectations = PAPER_EXPECTATIONS["table2"]["load_registers"]
        for row in result.table:
            assert row.load_registers == expectations[row.load_power_w]

    def test_overhead_reductions_match_paper(self, result):
        expectations = PAPER_EXPECTATIONS["table2"]["overhead_reduction"]
        for row in result.table:
            assert row.overhead_reduction == pytest.approx(expectations[row.load_power_w], abs=5e-3)

    def test_headline_value(self, result):
        assert result.headline_reduction == pytest.approx(0.98, abs=1e-3)

    def test_sizing_coefficients_come_from_power_model(self, result):
        assert result.per_register_clock_power_w == pytest.approx(1.476e-6, rel=1e-6)
        assert result.per_register_data_power_w == pytest.approx(1.126e-6, rel=1e-6)

    def test_monotonic(self, result):
        assert result.reduction_monotonic()

    def test_rendering(self, result):
        text = result.to_text()
        assert "98.0%" in text
        assert "1.476" in text


class TestRobustnessExperiment:
    @pytest.fixture(scope="class")
    def result(self):
        return run_scenario("robustness").payload

    def test_baseline_easily_removed(self, result):
        assert result.baseline_removed_by_blind_attack
        assert result.baseline_removal_harmless

    def test_clock_modulation_robust(self, result):
        assert result.clock_modulation_survives_blind_attack
        assert result.clock_modulation_removal_breaks_system

    def test_overall_claim(self, result):
        assert result.improved_robustness_demonstrated
        assert "improved robustness demonstrated: True" in result.to_text()

    def test_invalid_gate_count_rejected(self):
        with pytest.raises(ValueError):
            run_scenario(
                ScenarioSpec(kind="robustness", name="robustness", params={"modulated_gates": 0})
            )
