"""Unit tests for repro.analysis.overhead (Table II arithmetic)."""

import pytest

from repro.analysis.overhead import (
    OverheadTable,
    TABLE_II_LOAD_POWERS_W,
    area_overhead_reduction,
    load_circuit_overhead_table,
)


class TestAreaOverheadReduction:
    @pytest.mark.parametrize(
        "registers, expected",
        [(96, 0.889), (192, 0.941), (384, 0.970), (576, 0.980), (1921, 0.994), (3843, 0.997)],
    )
    def test_paper_values(self, registers, expected):
        assert area_overhead_reduction(registers) == pytest.approx(expected, abs=5e-4)

    def test_zero_load_registers(self):
        assert area_overhead_reduction(0) == 0.0

    def test_invalid_wgc_register_count(self):
        with pytest.raises(ValueError):
            area_overhead_reduction(100, wgc_registers=0)


class TestOverheadTable:
    def test_paper_rows(self):
        table = load_circuit_overhead_table()
        assert len(table) == len(TABLE_II_LOAD_POWERS_W)
        row = table.row_for_power(1.5e-3)
        assert row.load_registers == 576
        assert row.overhead_reduction == pytest.approx(0.98, abs=1e-3)

    def test_register_counts_match_paper(self):
        table = load_circuit_overhead_table()
        assert [row.load_registers for row in table] == [96, 192, 384, 576, 1921, 3843]

    def test_reduction_monotonically_increases(self):
        reductions = [row.overhead_reduction for row in load_circuit_overhead_table()]
        assert reductions == sorted(reductions)

    def test_row_lookup_missing_power(self):
        with pytest.raises(KeyError):
            load_circuit_overhead_table().row_for_power(123.0)

    def test_text_rendering(self):
        text = load_circuit_overhead_table().to_text()
        assert "98.0%" in text
        assert "576" in text

    def test_custom_wgc_size(self):
        table = load_circuit_overhead_table(wgc_registers=32)
        assert table.row_for_power(1.5e-3).overhead_reduction < 0.98
