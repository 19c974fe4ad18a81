"""Unit tests for repro.power.report."""

import pytest

from repro.power.report import PowerReport, PowerReportRow, format_power


class TestFormatPower:
    @pytest.mark.parametrize(
        "value, expected_unit",
        [(1.5e-3, "mW"), (2e-6, "uW"), (3e-9, "nW"), (4e-12, "pW"), (0.0, "W")],
    )
    def test_units(self, value, expected_unit):
        assert expected_unit in format_power(value)

    def test_milliwatt_value(self):
        assert format_power(1.51e-3) == "1.51 mW"


class TestPowerReportRow:
    def test_total(self):
        row = PowerReportRow("x", dynamic_w=1e-3, static_w=1e-6)
        assert row.total_w == pytest.approx(1.001e-3)

class TestPowerReport:
    def test_row_lookup(self):
        report = PowerReport("r")
        report.add_row(PowerReportRow("a", 1e-3, 0.0))
        assert report.row("a").dynamic_w == 1e-3
        with pytest.raises(KeyError):
            report.row("missing")

    def test_text_rendering_contains_rows(self):
        report = PowerReport("Table I")
        report.add_row(PowerReportRow("No Data Switching", 1.51e-3, 0.4e-6, 0.956))
        text = report.to_text()
        assert "Table I" in text
        assert "No Data Switching" in text
        assert "95.6%" in text

    def test_len_and_iter(self):
        report = PowerReport("r")
        report.add_row(PowerReportRow("a", 1e-3, 0.0))
        report.add_row(PowerReportRow("b", 2e-3, 0.0))
        assert len(report) == 2
        assert [row.implementation for row in report] == ["a", "b"]
