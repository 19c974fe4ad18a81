"""Benchmark: chip-level background-power template cache.

Before the chip-level cache landed, every ``ChipModel.total_power`` call
re-simulated the Cortex-M0 window cycle by cycle in Python (the last
O(cycles) loop on the generation side).  With the cache, the window is
simulated once per window length across *all* chip instances, and the
per-cycle background array is reused per (chip configuration, seed,
acquisition length).

This benchmark pins the acceptance floor (>= 10x warm-cache speedup on a
100k-cycle ``total_power``) and proves the cache changes nothing: warm,
cold and cache-bypassing traces are bit-identical, and the warm path runs
without any per-cycle Python loop (the window cache reports hits only).
It also records, report-only, what a template miss costs at paper scale:
a 300k-cycle ``background_power`` per chip with the M0 window warm, the
cost every fresh-seed Fig. 6 cell pays.  That is the M0 window's power,
its tiling and one scalar add: the idle blocks contribute their
closed-form mean power and draw nothing per cycle.  Timings are persisted
to BENCH.json (see record.py), whose trend check covers them.
"""

import statistics
import time

import numpy as np

from record import record_benchmark

from repro.core.architectures import ClockModulationWatermark
from repro.core.config import WatermarkConfig
from repro.soc import chip as chip_module
from repro.soc import cpu as cpu_module
from repro.soc.chip import build_chip_one, build_chip_two

NUM_CYCLES = 100_000
MIN_SPEEDUP = 10.0
#: Acquisition length of the paper-scale template miss.
PAPER_CYCLES = 300_000
#: Rounds of the template-miss timing (median reported).
COLD_TEMPLATE_ROUNDS = 5


def _cold_template_background_s(build) -> float:
    """Median time of a 300k-cycle ``background_power`` on a template miss.

    The M0 window is warmed first, so each round pays the window's power
    and its tiling -- not the window simulation.
    """
    chip = build()
    chip.background_power(PAPER_CYCLES, seed=0)
    times = []
    for round_index in range(COLD_TEMPLATE_ROUNDS):
        chip_module.clear_background_template_cache()
        start = time.perf_counter()
        chip.background_power(PAPER_CYCLES, seed=round_index + 1)
        times.append(time.perf_counter() - start)
    chip_module.clear_background_template_cache()
    return statistics.median(times)


def test_bench_chip_background_cache(report, relaxed):
    cpu_module.clear_m0_window_cache()
    chip_module.clear_background_template_cache()
    watermark = ClockModulationWatermark.from_config(WatermarkConfig())
    chip = build_chip_one(watermark=watermark)

    # Cold: pays the full M0 window simulation (16,384 Python-stepped
    # cycles) and the watermark template build.
    start = time.perf_counter()
    cold = chip.total_power(NUM_CYCLES, seed=11)
    cold_s = time.perf_counter() - start

    # Warm: the background template and the watermark period template are
    # both cached; only the watermark gather and one array add remain.
    warm_times = []
    for _ in range(3):
        start = time.perf_counter()
        warm = chip.total_power(NUM_CYCLES, seed=11)
        warm_times.append(time.perf_counter() - start)
    warm_s = min(warm_times)
    speedup = cold_s / warm_s

    # Equivalence: the cache must change nothing, bit for bit -- warm hits
    # equal the cold trace and a full cache-bypassing recomputation.
    assert np.array_equal(cold.power_w, warm.power_w)
    stats_before = cpu_module.m0_window_cache_stats()
    bypass = chip.total_power(NUM_CYCLES, seed=11, use_cache=False)
    assert np.array_equal(cold.power_w, bypass.power_w)

    # A second chip instance with the same program shares the simulated
    # window: its background costs no per-cycle Python loop either.
    sibling = build_chip_one(watermark=None)
    start = time.perf_counter()
    sibling.background_power(NUM_CYCLES, seed=12)
    sibling_s = time.perf_counter() - start
    stats_after = cpu_module.m0_window_cache_stats()
    assert stats_after["misses"] == stats_before["misses"], (
        "the sibling chip re-simulated the M0 window instead of hitting "
        "the shared cache"
    )

    cold_template_s = {
        "chip1": _cold_template_background_s(build_chip_one),
        "chip2": _cold_template_background_s(build_chip_two),
    }

    record_benchmark(
        "chip_background_template_cache",
        {
            "num_cycles": NUM_CYCLES,
            "total_power_cold_s": cold_s,
            "total_power_warm_s": warm_s,
            "sibling_background_shared_window_s": sibling_s,
            "speedup_warm": speedup,
            "background_300k_template_cold_chip1_s": cold_template_s["chip1"],
            "background_300k_template_cold_chip2_s": cold_template_s["chip2"],
            "min_speedup_floor": MIN_SPEEDUP,
            "traces_bit_identical": True,
            "window_cache": cpu_module.m0_window_cache_stats(),
            "template_cache": chip_module.background_template_cache_stats(),
            "relaxed": relaxed,
        },
    )
    report(
        f"Chip background template cache ({NUM_CYCLES:,} cycles)",
        "\n".join(
            [
                f"total_power cold (window simulation):  {cold_s * 1e3:9.1f} ms",
                f"total_power warm (cached template):    {warm_s * 1e3:9.2f} ms",
                f"sibling background (shared window):    {sibling_s * 1e3:9.1f} ms",
                f"speedup warm:                          {speedup:7.1f}x (floor {MIN_SPEEDUP}x)",
                f"300k background, template miss, chip1: {cold_template_s['chip1'] * 1e3:9.1f} ms",
                f"300k background, template miss, chip2: {cold_template_s['chip2'] * 1e3:9.1f} ms",
                f"traces bit-identical:                  True",
            ]
        ),
    )
    if not relaxed:
        assert speedup >= MIN_SPEEDUP, (
            f"warm-cache total_power only {speedup:.1f}x faster than cold "
            f"(expected >= {MIN_SPEEDUP}x)"
        )
