"""Benchmark: a chip's cold and warm ``total_power``.

A chip's background is the Cortex-M0 window (read once per process from
the file shipped with the package), tiled over the acquisition, plus the
idle blocks' mean power and the leakage.  The per-cycle background array
is cached per (chip configuration, seed, acquisition length).

This benchmark gates the cold path absolutely: a 100k-cycle
``total_power`` from cold module caches -- loading the M0 window, building
the background template and the watermark's period template -- must stay
under :data:`MAX_COLD_TOTAL_POWER_S`.  It proves the caches change
nothing: warm traces and the cold trace computed again after a template
clear are bit-identical, and a second chip instance reuses the loaded
window.  It also records,
report-only, the warm call and what a template miss costs at paper scale:
a 300k-cycle ``background_power`` per chip with the window loaded, the
cost every fresh-seed Fig. 6 cell pays (the window's power, its tiling
and one scalar add).  Timings are persisted to BENCH.json (see
record.py), whose trend check covers them.
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
#: Rounds of the cold ``total_power`` timing (median gated).
COLD_ROUNDS = 5
#: Ceiling for the median cold 100k-cycle ``total_power``.  Seven runs of
#: this benchmark on a shared 2-CPU x86-64 host gave medians of
#: 1.9-2.5 ms, so 8 ms leaves 3.2x headroom.  Simulating the M0 window
#: instead of loading it, as the library did before the window shipped as
#: data, gave medians of 18-34 ms on the same host and fails it.
MAX_COLD_TOTAL_POWER_S = 0.008
#: Acquisition length of the paper-scale template miss.
PAPER_CYCLES = 300_000
#: Rounds of the template-miss timing (median reported).
COLD_TEMPLATE_ROUNDS = 5


def _cold_total_power_s(watermark) -> float:
    """One 100k-cycle ``total_power`` from cold module caches and a fresh chip."""
    cpu_module.clear_m0_window_cache()
    chip_module.clear_background_template_cache()
    architecture = ClockModulationWatermark.from_config(watermark)
    chip = build_chip_one(watermark=architecture)
    start = time.perf_counter()
    chip.total_power(NUM_CYCLES, seed=11)
    return time.perf_counter() - start


def _cold_template_background_s(build) -> float:
    """Median time of a 300k-cycle ``background_power`` on a template miss.

    The M0 window is loaded first, so each round pays the window's power
    and its tiling -- not the window's load.
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
    config = WatermarkConfig()
    cold_s = statistics.median(_cold_total_power_s(config) for _ in range(COLD_ROUNDS))

    cpu_module.clear_m0_window_cache()
    chip_module.clear_background_template_cache()
    chip = build_chip_one(watermark=ClockModulationWatermark.from_config(config))
    cold = chip.total_power(NUM_CYCLES, seed=11)

    # Warm: the background template and the watermark period template are
    # both cached; only the watermark gather and one array add remain.
    warm_times = []
    for _ in range(3):
        start = time.perf_counter()
        warm = chip.total_power(NUM_CYCLES, seed=11)
        warm_times.append(time.perf_counter() - start)
    warm_s = min(warm_times)

    # Equivalence: the caches must change nothing, bit for bit -- warm hits
    # equal the cold trace and the trace computed again after a clear.
    assert np.array_equal(cold.power_w, warm.power_w)
    stats_before = cpu_module.m0_window_cache_stats()
    chip_module.clear_background_template_cache()
    recomputed = chip.total_power(NUM_CYCLES, seed=11)
    assert np.array_equal(cold.power_w, recomputed.power_w)

    # A second chip instance reuses the loaded window.
    sibling = build_chip_one(watermark=None)
    start = time.perf_counter()
    sibling.background_power(NUM_CYCLES, seed=12)
    sibling_s = time.perf_counter() - start
    stats_after = cpu_module.m0_window_cache_stats()
    assert stats_after["misses"] == stats_before["misses"], (
        "the sibling chip read the M0 window again instead of reusing it"
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
            "speedup_warm": cold_s / warm_s,
            "background_300k_template_cold_chip1_s": cold_template_s["chip1"],
            "background_300k_template_cold_chip2_s": cold_template_s["chip2"],
            "max_cold_total_power_s": MAX_COLD_TOTAL_POWER_S,
            "traces_bit_identical": True,
            "window_cache": cpu_module.m0_window_cache_stats(),
            "template_cache": chip_module.background_template_cache_stats(),
            "relaxed": relaxed,
        },
    )
    report(
        f"Chip background, cold and warm ({NUM_CYCLES:,} cycles)",
        "\n".join(
            [
                f"total_power cold (median of {COLD_ROUNDS}):     {cold_s * 1e3:9.2f} ms "
                f"(ceiling {MAX_COLD_TOTAL_POWER_S * 1e3:.0f} ms)",
                f"total_power warm (cached template):    {warm_s * 1e3:9.2f} ms",
                f"sibling background (shared window):    {sibling_s * 1e3:9.2f} ms",
                f"300k background, template miss, chip1: {cold_template_s['chip1'] * 1e3:9.2f} ms",
                f"300k background, template miss, chip2: {cold_template_s['chip2'] * 1e3:9.2f} ms",
                f"traces bit-identical:                  True",
            ]
        ),
    )
    if not relaxed:
        assert cold_s <= MAX_COLD_TOTAL_POWER_S, (
            f"cold 100k-cycle total_power took {cold_s * 1e3:.1f} ms "
            f"(ceiling {MAX_COLD_TOTAL_POWER_S * 1e3:.0f} ms)"
        )
