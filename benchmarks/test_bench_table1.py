"""Benchmark: regenerate Table I (power of the placed-and-routed load circuit)."""

import pytest

from repro.pipeline import DEFAULT_REGISTRY, run_scenario


def test_bench_table1_load_circuit_power(benchmark, report, expectations):
    spec = DEFAULT_REGISTRY.build("table1")
    result = benchmark.pedantic(run_scenario, args=(spec,), rounds=1, iterations=1).payload

    expect = expectations["table1"]
    lines = [result.to_text(), "", "paper vs measured (dynamic power):"]
    for row in result.rows:
        paper_mw = expect["dynamic_power_mw"][row.switching_registers]
        lines.append(
            f"  {row.switching_registers:>5} switching registers: "
            f"paper {paper_mw:.2f} mW, measured {row.dynamic_w * 1e3:.2f} mW"
        )
    report("Table I: power consumption of the placed-and-routed load circuit", "\n".join(lines))

    # Shape: dynamic power grows monotonically with the number of switching
    # registers, the load circuit dominates the watermark's dynamic power,
    # and leakage stays negligible -- with values close to the paper's.
    assert result.dynamic_power_monotonic()
    for row in result.rows:
        paper_mw = expect["dynamic_power_mw"][row.switching_registers]
        assert row.dynamic_w * 1e3 == pytest.approx(paper_mw, rel=0.15)
        assert row.static_w * 1e6 == pytest.approx(
            expect["static_power_uw"][row.switching_registers], rel=0.25
        )
        assert row.share_of_watermark_dynamic == pytest.approx(
            expect["share_of_watermark_dynamic"][row.switching_registers], abs=0.02
        )
