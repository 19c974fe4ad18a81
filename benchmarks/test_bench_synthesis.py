"""Benchmark: cold watermark trace synthesis at the paper configuration.

Generating a watermarked power trace once meant stepping every watermark
sub-circuit once per clock cycle in Python; at the paper's acquisition
lengths (100k-300k cycles) that per-cycle tax dominated the whole
pipeline.  The library now computes one sequence period (4,095 cycles for
the paper's 12-bit LFSR) of activity in closed form, turns it into a
per-cycle power template and extends it to the acquisition length with
slice copies.

These benchmarks gate that shipped path with absolute ceilings.  Its
bit-identity with the stepping oracle (``tests/rtl_oracle.py``) and the
identical CPA spectra it yields are tier-1 tests in
``tests/test_power_synthesis.py``.  Timings are persisted to BENCH.json
(see record.py) and uploaded as a CI artifact.
"""

import statistics
import time

from record import record_benchmark

from repro.core.architectures import ClockModulationWatermark
from repro.core.config import WatermarkConfig

NUM_CYCLES = 100_000
#: Ceiling for a cold template build plus ``extend(NUM_CYCLES)`` at the
#: paper configuration (median of 5 rounds, a fresh architecture each).
#: Five processes of 7 rounds on a shared 2-CPU x86-64 host gave medians
#: of 1.5-2.0 ms and a worst round of 3.5 ms, so 10 ms leaves >= 5x
#: headroom.  Stepping the period cycle by cycle, as the library did
#: before the closed form, takes a ~0.5 s median and fails it 50-fold.
MAX_COLD_SYNTHESIS_S = 0.010
#: Ceiling for one closed-form period at the paper configuration.
MAX_PERIODIC_ACTIVITY_S = 0.010


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def test_bench_synthesis_cold_ceiling(report, relaxed):
    config = WatermarkConfig()  # the paper's test-chip configuration

    # Cold: every round builds a fresh architecture, so it pays the full
    # template build (one closed-form period) plus the extension.
    cold_times = []
    for _ in range(5):
        architecture = ClockModulationWatermark.from_config(config)
        cold_times.append(
            _timed(lambda: architecture.power_template().extend(NUM_CYCLES))
        )
    cold_s = statistics.median(cold_times)

    # Warm: the periodic template is built, so repeated acquisitions
    # (campaigns, repetitions) only pay the gather.
    template = architecture.power_template()
    warm_s = min(_timed(lambda: template.extend(NUM_CYCLES)) for _ in range(5))

    record_benchmark(
        "synthesis_watermark_trace",
        {
            "num_cycles": NUM_CYCLES,
            "sequence_period": architecture.sequence_period,
            "synthesized_cold_s": cold_s,
            "synthesized_warm_s": warm_s,
            "max_cold_s": MAX_COLD_SYNTHESIS_S,
            "relaxed": relaxed,
        },
    )
    report(
        f"Watermark trace synthesis ({NUM_CYCLES:,} cycles, period "
        f"{architecture.sequence_period})",
        f"cold, incl. template (median of 5): {cold_s * 1e3:6.2f} ms "
        f"(ceiling {MAX_COLD_SYNTHESIS_S * 1e3:.0f} ms)\n"
        f"warm template (best of 5):          {warm_s * 1e3:6.2f} ms",
    )
    if not relaxed:
        assert cold_s < MAX_COLD_SYNTHESIS_S, (
            f"cold synthesis took {cold_s * 1e3:.2f} ms "
            f"(ceiling {MAX_COLD_SYNTHESIS_S * 1e3:.0f} ms)"
        )


def test_bench_periodic_activity_paper_config(report, relaxed):
    """One closed-form period at the paper configuration.

    Its equality with stepping is checked once, in
    ``tests/test_closed_form_activity.py``.
    """
    # Period 4,095, test-chip WGC, 1,024-register bank.
    architecture = ClockModulationWatermark.from_config(WatermarkConfig())
    closed_form_s = min(_timed(architecture.periodic_activity) for _ in range(20))

    record_benchmark(
        "periodic_activity_paper_config",
        {
            "sequence_period": architecture.sequence_period,
            "closed_form_s": closed_form_s,
            "max_closed_form_s": MAX_PERIODIC_ACTIVITY_S,
            "relaxed": relaxed,
        },
    )
    report(
        "Closed-form periodic activity (paper configuration)",
        f"closed form (best of 20): {closed_form_s * 1e3:.2f} ms "
        f"(ceiling {MAX_PERIODIC_ACTIVITY_S * 1e3:.0f} ms)",
    )
    if not relaxed:
        assert closed_form_s < MAX_PERIODIC_ACTIVITY_S, (
            f"periodic_activity took {closed_form_s * 1e3:.2f} ms "
            f"(ceiling {MAX_PERIODIC_ACTIVITY_S * 1e3:.0f} ms)"
        )
