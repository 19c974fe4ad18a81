"""Benchmark: regenerate Fig. 2 (functional simulation of both architectures)."""

from repro.pipeline import ScenarioSpec, run_scenario

SPEC = ScenarioSpec(
    kind="fig2",
    name="fig2",
    seed=0b1001,
    params={"num_cycles": 64, "register_count": 8, "lfsr_width": 4},
)


def test_bench_fig2_functional_simulation(benchmark, report):
    result = benchmark.pedantic(run_scenario, args=(SPEC,), rounds=3, iterations=1).payload
    report("Fig. 2: functional simulation of the watermark architectures", result.to_text())

    # Shape checks mirroring the paper's observation: both schemes are idle
    # while WMARK is low, and the clock-modulation scheme produces more
    # switching per register while WMARK is high (clock buffers toggle on
    # both clock edges).
    assert result.idle_when_wmark_low
    assert (
        result.clock_modulation_toggles_per_active_register
        > result.baseline_toggles_per_active_register
    )
