"""Benchmark: registry-driven sweep vs independent one-shot runs.

Acceptance pin for the scenario/pipeline API: running four scenarios on one
chip through ``ExperimentRunner.run_many`` (one runner, shared chip
instances, shared M0-window / background-template caches) must complete
faster than the same four scenarios run one by one through
``run_scenario`` (a fresh runner each), where each run starts cold (caches
cleared, as separate processes would).  The reports must be identical in
both modes -- the sweep buys time, not different numbers.
"""

import os
import time

from record import record_benchmark

from repro.pipeline import DEFAULT_REGISTRY, ExperimentRunner, RunOptions, run_scenario
from repro.soc import chip as chip_module
from repro.soc import cpu as cpu_module

NUM_CYCLES = 60_000
REPETITIONS = 10
MIN_SPEEDUP = 1.2

RELAXED = os.environ.get("REPRO_BENCH_RELAXED") == "1"


def _clear_module_caches() -> None:
    cpu_module.clear_m0_window_cache()
    chip_module.clear_background_template_cache()


def _options() -> RunOptions:
    return RunOptions(quick=True, cycles=NUM_CYCLES, repetitions=REPETITIONS)


def _sweep_specs():
    options = _options()
    return [
        DEFAULT_REGISTRY.build("fig5/chip1-active", options),
        DEFAULT_REGISTRY.build("fig5/chip1-inactive", options),
        DEFAULT_REGISTRY.build("fig6/chip1", options),
        DEFAULT_REGISTRY.build("fig3", options),
    ]


def _run_cold_one_shots(specs):
    """The same scenarios as one-shot runs, each starting cold."""
    results = []
    for spec in specs:
        _clear_module_caches()
        results.append(run_scenario(spec))
    return results


def test_bench_pipeline_sweep_beats_independent_drivers(report):
    specs = _sweep_specs()
    assert len(specs) >= 4
    assert all(spec.chip in (None, "chip1") for spec in specs)

    start = time.perf_counter()
    one_shots = _run_cold_one_shots(specs)
    legacy_s = time.perf_counter() - start

    _clear_module_caches()
    runner = ExperimentRunner()
    start = time.perf_counter()
    # serial pinned: this benchmark measures the shared-cache serial path.
    sweep = runner.run_many(specs, backend="serial")
    sweep_s = time.perf_counter() - start

    # Same numbers, just faster: the sweep's panel/campaign outcomes must
    # match what the independent runs computed.
    for swept, one_shot in zip(sweep.results, one_shots):
        assert swept.report == one_shot.report
        assert swept.scalars == one_shot.scalars

    speedup = legacy_s / sweep_s if sweep_s > 0 else float("inf")
    chip_stats = runner.chip_cache_stats()
    window_stats = cpu_module.m0_window_cache_stats()
    lines = [
        f"independent one-shot runs (cold each):  {legacy_s:.2f} s",
        f"registry sweep via run_many:            {sweep_s:.2f} s",
        f"speedup: {speedup:.2f}x (floor {MIN_SPEEDUP}x, relaxed={RELAXED})",
        f"runner chip cache: {chip_stats}",
        f"M0 window cache:   {window_stats}",
    ]
    report("Scenario sweep: shared pipeline caches vs independent drivers", "\n".join(lines))
    record_benchmark(
        "pipeline_sweep",
        {
            "num_cycles": NUM_CYCLES,
            "scenarios": len(specs),
            "legacy_s": round(legacy_s, 4),
            "sweep_s": round(sweep_s, 4),
            "speedup": round(speedup, 2),
            "relaxed": RELAXED,
        },
    )

    # The sweep shares one chip per configuration; the M0 window must have
    # been simulated once, not once per scenario.
    assert window_stats["misses"] <= 2
    if not RELAXED:
        assert speedup >= MIN_SPEEDUP, (
            f"registry sweep ({sweep_s:.2f} s) should beat independent "
            f"drivers ({legacy_s:.2f} s) by at least {MIN_SPEEDUP}x, got {speedup:.2f}x"
        )
    else:
        assert sweep_s <= legacy_s * 1.5, "sweep should not be slower than drivers"
