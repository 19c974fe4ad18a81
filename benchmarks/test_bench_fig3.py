"""Benchmark: regenerate Fig. 3 (watermark embedded in total device power)."""

from repro.pipeline import DEFAULT_REGISTRY, run_scenario


def test_bench_fig3_power_embedding(benchmark, report):
    spec = DEFAULT_REGISTRY.build("fig3")
    result = benchmark.pedantic(run_scenario, args=(spec,), rounds=1, iterations=1).payload
    report("Fig. 3: watermark power embedded in total device power", result.to_text())

    # The watermark modulation must be a small fraction of the device total
    # power and invisible without an analytical detection technique.
    assert result.relative_amplitude < 0.5
    assert result.deeply_embedded
    assert result.watermark_power.average_power_w < result.system_power.average_power_w
