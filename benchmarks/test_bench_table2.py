"""Benchmark: regenerate Table II (load-circuit implementation costs)."""

import pytest

from repro.pipeline import DEFAULT_REGISTRY, run_scenario


def test_bench_table2_overhead(benchmark, report, expectations):
    spec = DEFAULT_REGISTRY.build("table2")
    result = benchmark.pedantic(run_scenario, args=(spec,), rounds=5, iterations=1).payload

    expect = expectations["table2"]
    lines = [result.to_text(), "", "paper vs measured (registers / overhead reduction):"]
    for row in result.table:
        paper_registers = expect["load_registers"][row.load_power_w]
        paper_reduction = expect["overhead_reduction"][row.load_power_w]
        lines.append(
            f"  {row.load_power_w * 1e3:5.2f} mW: paper {paper_registers:>5} regs / "
            f"{paper_reduction * 100:.1f}%, measured {row.load_registers:>5} regs / "
            f"{row.overhead_reduction * 100:.1f}%"
        )
    report("Table II: load circuit implementation costs", "\n".join(lines))

    for row in result.table:
        assert row.load_registers == expect["load_registers"][row.load_power_w]
        assert row.overhead_reduction == pytest.approx(
            expect["overhead_reduction"][row.load_power_w], abs=5e-3
        )
    assert result.headline_reduction == pytest.approx(expectations["headline_area_reduction"], abs=1e-3)
    assert result.per_register_clock_power_w == pytest.approx(1.476e-6, rel=1e-6)
    assert result.per_register_data_power_w == pytest.approx(1.126e-6, rel=1e-6)
