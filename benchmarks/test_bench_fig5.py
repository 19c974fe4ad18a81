"""Benchmark: regenerate Fig. 5 (CPA spread spectra, chips I and II).

Full paper scale: 300,000 clock cycles per correlation, 12-bit
maximum-length watermark sequence (4,095 rotations), chip I (Cortex-M0-class
SoC running the Dhrystone-like workload) and chip II (plus the idle
dual-core A5-class subsystem), each with the watermark active and disabled.
"""

import pytest

from paper_values import single_resolvable_peak

from repro.pipeline import DEFAULT_REGISTRY, ScenarioSpec, run_scenario


@pytest.mark.parametrize(
    "chip_name, watermark_active",
    [("chip1", True), ("chip1", False), ("chip2", True), ("chip2", False)],
    ids=["chip1_active", "chip1_inactive", "chip2_active", "chip2_inactive"],
)
def test_bench_fig5_panel(benchmark, report, paper_config, expectations, chip_name, watermark_active):
    spec = ScenarioSpec(
        kind="fig5_panel",
        name=f"fig5/{chip_name}-{'active' if watermark_active else 'inactive'}",
        chip=chip_name,
        watermark=paper_config.watermark,
        measurement=paper_config.measurement,
        detection=paper_config.detection,
        watermark_active=watermark_active,
        seed=100,
    )
    panel = benchmark.pedantic(run_scenario, args=(spec,), rounds=1, iterations=1).payload
    report(
        f"Fig. 5 panel: {panel.label}",
        panel.cpa.summary(),
    )

    fig5_expect = expectations["fig5"]
    if watermark_active:
        low, high = fig5_expect[f"{chip_name}_peak_rho_range"]
        assert panel.cpa.detected
        assert low < panel.cpa.peak_correlation < high
        assert single_resolvable_peak(panel.cpa.correlations)
    else:
        assert not panel.cpa.detected
        assert abs(panel.cpa.peak_correlation) < fig5_expect["noise_floor_abs_max"]


def test_bench_fig5_all_panels(benchmark, report):
    spec = DEFAULT_REGISTRY.build("fig5")
    result = benchmark.pedantic(run_scenario, args=(spec,), rounds=1, iterations=1).payload
    report("Fig. 5: all four panels", result.to_text())

    assert result.all_active_panels_detected
    assert result.no_inactive_panel_detected
    # Chip II has far more background noise (idle dual-core A5 + caches), so
    # its peak is lower than chip I's -- the ordering visible in the paper.
    chip1 = result.panels["chip1/active"].cpa.peak_correlation
    chip2 = result.panels["chip2/active"].cpa.peak_correlation
    assert chip2 < chip1
