"""Benchmark: vectorized trace synthesis vs the per-cycle stepping path.

Before the synthesis engine landed, generating a watermarked power trace
meant stepping every watermark sub-circuit once per clock cycle in Python;
at the paper's acquisition lengths (100k-300k cycles) that per-cycle tax
dominated the whole pipeline once detection became batched.  The library
now computes one sequence period (4,095 cycles for the paper's 12-bit
LFSR) of activity in closed form, turns it into a per-cycle power template
and extends it to the acquisition length with a modular-index gather.  The
per-cycle path survives as the test suite's stepping oracle
(``tests/rtl_oracle.py``), which is what the speedups here are measured
against.

This benchmark pins the speedup floor named in the PR acceptance criteria
(>= 10x at >= 100,000 cycles) and -- more importantly -- proves the fast
path changes *nothing*: the synthesized trace equals the per-cycle
simulated trace bit for bit, and the full measure-then-detect chain reaches
identical CPA decisions on both.  Timings are persisted to BENCH.json
(see record.py) and uploaded as a CI artifact.
"""

import time

import numpy as np
import pytest

from record import record_benchmark
from rtl_oracle import stepped_activity

from repro.core.architectures import ClockModulationWatermark
from repro.core.config import DetectionConfig, MeasurementConfig, WatermarkConfig
from repro.detection.cpa import CPADetector
from repro.measurement.acquisition import AcquisitionCampaign
from repro.power.estimator import PowerEstimator

NUM_CYCLES = 100_000
MIN_SPEEDUP = 10.0
#: Ceiling for one closed-form period at the paper configuration.
MAX_PERIODIC_ACTIVITY_S = 0.010


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def _stepped_watermark_power(architecture, estimator, num_cycles):
    """The per-cycle stepping path: one Python step per clock cycle."""
    traces = stepped_activity(architecture, num_cycles)
    static = estimator.leakage_of(architecture.cell_inventory())
    return estimator.combined_power_trace(
        traces,
        cell_types={key: "dff" for key in traces},
        static_w=static,
        name=architecture.name,
    )


def test_bench_synthesis_speedup(report, relaxed):
    estimator = PowerEstimator.at_nominal()
    config = WatermarkConfig()  # the paper's test-chip configuration

    # Per-cycle reference, timed once (it is the slow side by construction).
    reference_arch = ClockModulationWatermark.from_config(config)
    start = time.perf_counter()
    reference = _stepped_watermark_power(reference_arch, estimator, NUM_CYCLES)
    reference_s = time.perf_counter() - start

    # Synthesized path, cold: every round pays the full template build (one
    # closed-form period) plus the modular-index extension.
    cold_times = []
    for _ in range(3):
        architecture = ClockModulationWatermark.from_config(config)
        start = time.perf_counter()
        template = architecture.power_template(estimator)
        synthesized = template.extend(NUM_CYCLES)
        cold_times.append(time.perf_counter() - start)
    cold_s = min(cold_times)

    # Warm: the periodic template is built, so repeated acquisitions
    # (campaigns, repetitions) only pay the gather.
    warm_times = []
    for _ in range(3):
        start = time.perf_counter()
        synthesized = template.extend(NUM_CYCLES)
        warm_times.append(time.perf_counter() - start)
    warm_s = min(warm_times)

    speedup_cold = reference_s / cold_s
    speedup_warm = reference_s / warm_s

    # Equivalence: the fast path must change nothing, bit for bit.
    assert np.array_equal(synthesized.power_w, reference.power_w)

    # End-to-end: measure both traces with the same seed and detect; the
    # decisions (and the whole correlation spectra) must be identical.
    campaign = AcquisitionCampaign(MeasurementConfig())
    detector = CPADetector(DetectionConfig())
    sequence = reference_arch.sequence()
    measured_ref = campaign.measure(reference, seed=77)
    measured_syn = campaign.measure(synthesized, seed=77)
    cpa_ref = detector.detect(sequence, measured_ref.values)
    cpa_syn = detector.detect(sequence, measured_syn.values)
    assert cpa_ref.detected == cpa_syn.detected
    assert cpa_ref.peak_rotation == cpa_syn.peak_rotation
    assert np.array_equal(cpa_ref.correlations, cpa_syn.correlations)

    record_benchmark(
        "synthesis_watermark_trace",
        {
            "num_cycles": NUM_CYCLES,
            "sequence_period": reference_arch.sequence_period,
            "per_cycle_simulator_s": reference_s,
            "synthesized_cold_s": cold_s,
            "synthesized_warm_s": warm_s,
            "speedup_cold": speedup_cold,
            "speedup_warm": speedup_warm,
            "min_speedup_floor": MIN_SPEEDUP,
            "traces_bit_identical": True,
            "detection_decisions_identical": True,
            "relaxed": relaxed,
        },
    )
    report(
        f"Vectorized trace synthesis ({NUM_CYCLES:,} cycles, period "
        f"{reference_arch.sequence_period})",
        "\n".join(
            [
                f"per-cycle simulator path:        {reference_s * 1e3:9.1f} ms",
                f"synthesized (cold, incl. template): {cold_s * 1e3:6.1f} ms",
                f"synthesized (warm template):     {warm_s * 1e3:9.2f} ms",
                f"speedup cold/warm:               {speedup_cold:7.1f}x / {speedup_warm:.0f}x "
                f"(floor {MIN_SPEEDUP}x)",
                f"traces bit-identical:            True",
                f"detection decisions identical:   True (peak rotation "
                f"{cpa_syn.peak_rotation})",
            ]
        ),
    )
    if not relaxed:
        assert speedup_cold >= MIN_SPEEDUP, (
            f"synthesis only {speedup_cold:.1f}x faster than the per-cycle "
            f"simulator path (expected >= {MIN_SPEEDUP}x)"
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
