"""Benchmark: registry-driven sweep and independent one-shot runs.

Acceptance pin for the scenario/pipeline API: four scenarios on one chip,
run through ``ExperimentRunner.run_many`` (one runner, shared chip
instances, the loaded M0 window and background templates) and one by one
through ``run_scenario`` (a fresh runner each, every run starting from
cold module caches, as separate processes would).  Both are gated
absolutely (:data:`MAX_SWEEP_S`, :data:`MAX_ONE_SHOTS_S`), and the
reports must be identical in both modes -- the sweep buys time, not
different numbers.

``run_many`` imports its backends module (and ``multiprocessing``) on its
first call in a process, ~14 ms in a fresh interpreter.  The benchmark
imports it before the timed sweep, so ``sweep_s`` is the sweep alone.
"""

import importlib
import time

from record import record_benchmark

from repro.pipeline import DEFAULT_REGISTRY, ExperimentRunner, RunOptions, run_scenario
from repro.soc import chip as chip_module
from repro.soc import cpu as cpu_module

NUM_CYCLES = 60_000
REPETITIONS = 10
#: Ceilings sized from seven runs of this benchmark on a shared 2-CPU
#: x86-64 host: the sweep read 17-26 ms and the four cold one-shots
#: 13-22 ms, so 50 ms and 45 ms leave ~2x headroom.  Simulating the M0
#: window on every cold start, as the library did before the window
#: shipped as data, put the one-shots at 65-116 ms, which fails theirs.
MAX_SWEEP_S = 0.050
MAX_ONE_SHOTS_S = 0.045


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


def test_bench_pipeline_sweep_beats_independent_drivers(report, relaxed):
    specs = _sweep_specs()
    assert len(specs) >= 4
    assert all(spec.chip in (None, "chip1") for spec in specs)

    start = time.perf_counter()
    one_shots = _run_cold_one_shots(specs)
    legacy_s = time.perf_counter() - start

    # A one-off import is not the sweep path: load it outside the timing.
    importlib.import_module("repro.pipeline.backends")
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
        f"speedup: {speedup:.2f}x (ceilings: sweep {MAX_SWEEP_S:.3f} s, "
        f"one-shots {MAX_ONE_SHOTS_S:.3f} s, relaxed={relaxed})",
        f"runner chip cache: {chip_stats}",
        f"M0 window cache:   {window_stats}",
    ]
    report("Scenario sweep: shared pipeline caches and independent drivers", "\n".join(lines))
    record_benchmark(
        "pipeline_sweep",
        {
            "num_cycles": NUM_CYCLES,
            "scenarios": len(specs),
            "legacy_s": round(legacy_s, 4),
            "sweep_s": round(sweep_s, 4),
            "speedup": round(speedup, 2),
            "max_sweep_s": MAX_SWEEP_S,
            "max_one_shots_s": MAX_ONE_SHOTS_S,
            "relaxed": relaxed,
        },
    )

    # The sweep shares one chip per configuration; the M0 window must have
    # been read once, not once per scenario.
    assert window_stats["misses"] <= 2
    if not relaxed:
        assert sweep_s <= MAX_SWEEP_S, (
            f"registry sweep took {sweep_s:.3f} s (ceiling {MAX_SWEEP_S:.3f} s)"
        )
        assert legacy_s <= MAX_ONE_SHOTS_S, (
            f"cold one-shot runs took {legacy_s:.3f} s (ceiling {MAX_ONE_SHOTS_S:.3f} s)"
        )
    else:
        assert sweep_s <= legacy_s * 1.5, "sweep should not be slower than drivers"
