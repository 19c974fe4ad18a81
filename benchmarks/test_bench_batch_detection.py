"""Benchmark: batched CPA campaign vs the per-trial detection loop.

The batched engine folds the whole trial matrix by phase and evaluates all
rotation correlations with one stack of rFFTs; before it landed, every
Monte-Carlo trial paid a full Python round trip through per-trace folding
(`np.arange` + modulo + `np.bincount` per trial).  This benchmark gates
``detect_many`` with an absolute budget (:data:`MAX_DETECT_MANY_S`) at the
campaign scale named in the engine's acceptance criteria -- period 255,
100,000 cycles, 50 trials -- reports its speedup over that loop, and
checks that the batched path reaches the *same detection decisions bit for
bit* as looping the live single-trace detector over the rows.
"""

import time

import numpy as np
import pytest

from record import record_benchmark

from repro.core.lfsr import LFSR
from repro.detection.batch import BatchCPADetector
from repro.detection.cpa import CPADetector

PERIOD_WIDTH = 8  # 2**8 - 1 = 255 rotations
NUM_CYCLES = 100_000
NUM_TRIALS = 50
#: Ceiling on the best of three ``detect_many`` calls, sized from seven
#: enforced runs of this benchmark on a shared 2-CPU x86-64 host:
#: ``detect_many`` read 10.8-13.4 ms, so 30 ms leaves ~2.2x headroom.
#: The per-trial loop read 51-67 ms there and fails it.
MAX_DETECT_MANY_S = 0.030


def _per_trial_reference(sequence: np.ndarray, trace_matrix: np.ndarray, detector: CPADetector):
    """The detection loop as it ran before the batched engine.

    One fold (`np.arange` + modulo + `np.bincount`) and one correlation
    spectrum per trial -- the exact algorithm the single-trace detector used
    when campaigns looped over `CPADetector.detect`.
    """
    period = len(sequence)
    x = np.asarray(sequence, dtype=np.float64)
    fft_x = np.fft.rfft(x)
    results = []
    for measured in trace_matrix:
        n = len(measured)
        phases = np.arange(n) % period
        folded = np.bincount(phases, weights=measured, minlength=period)
        counts = np.bincount(phases, minlength=period).astype(np.float64)
        sum_y = float(measured.sum())
        sum_yy = float(measured @ measured)
        var_y = n * sum_yy - sum_y * sum_y
        s_xy = np.fft.irfft(np.conj(np.fft.rfft(folded)) * fft_x, n=period)
        s_x = np.fft.irfft(np.conj(np.fft.rfft(counts)) * fft_x, n=period)
        numerator = n * s_xy - s_x * sum_y
        var_x = n * s_x - s_x * s_x  # 0/1 sequence: S_xx == S_x
        denominator = np.sqrt(np.clip(var_x, 0.0, None)) * np.sqrt(max(var_y, 0.0))
        correlations = np.zeros(period, dtype=np.float64)
        valid = denominator > 0
        correlations[valid] = numerator[valid] / denominator[valid]
        results.append(detector.evaluate(correlations))
    return results


def _trial_matrix(sequence: np.ndarray, seed: int = 2024) -> np.ndarray:
    rng = np.random.default_rng(seed)
    period = len(sequence)
    offsets = rng.integers(0, period, size=NUM_TRIALS)
    phase_index = (offsets[:, None] + np.arange(NUM_CYCLES)[None, :]) % period
    return (
        5e-3
        + sequence[phase_index] * 1.5e-3
        + rng.normal(0.0, 20e-3, size=(NUM_TRIALS, NUM_CYCLES))
    )


def test_bench_batch_detection_speedup(benchmark, report, relaxed):
    sequence = LFSR(width=PERIOD_WIDTH, seed=0x2D).sequence().astype(np.float64)
    trace_matrix = _trial_matrix(sequence)
    single = CPADetector()
    batched = BatchCPADetector()

    # Warm-up both paths (allocator, FFT plan caches).
    reference = _per_trial_reference(sequence, trace_matrix[:2], single)
    batched.detect_many(sequence, trace_matrix[:2])

    loop_times, batch_times = [], []
    for _ in range(3):
        start = time.perf_counter()
        reference = _per_trial_reference(sequence, trace_matrix, single)
        loop_times.append(time.perf_counter() - start)

        start = time.perf_counter()
        batch = batched.detect_many(sequence, trace_matrix)
        batch_times.append(time.perf_counter() - start)

    loop_s = min(loop_times)
    batch_s = min(batch_times)
    speedup = loop_s / batch_s

    # Identical decisions, three ways: batched vs the pre-engine reference
    # loop (same counts) and vs looping the live detector (bit-identical).
    reference_detected = np.array([r.detected for r in reference])
    live = [single.detect(sequence, row) for row in trace_matrix]
    assert batch.detection_count == int(np.count_nonzero(reference_detected))
    for index, result in enumerate(live):
        assert bool(batch.detected[index]) == result.detected
        assert int(batch.peak_rotations[index]) == result.peak_rotation
        assert np.array_equal(batch.correlations[index], result.correlations)

    record_benchmark(
        "batch_detection",
        {
            "trials": NUM_TRIALS,
            "num_cycles": NUM_CYCLES,
            "period": len(sequence),
            "per_trial_loop_s": loop_s,
            "batched_detect_many_s": batch_s,
            "speedup": speedup,
            "max_detect_many_s": MAX_DETECT_MANY_S,
            "decisions_identical": True,
            "relaxed": relaxed,
        },
    )
    report(
        f"Batched CPA detection ({NUM_TRIALS} trials x {NUM_CYCLES:,} cycles, period "
        f"{len(sequence)})",
        "\n".join(
            [
                f"per-trial loop (pre-engine algorithm): {loop_s * 1e3:8.1f} ms",
                f"batched detect_many:                   {batch_s * 1e3:8.1f} ms",
                f"speedup:                               {speedup:8.1f}x",
                f"ceiling on detect_many:                {MAX_DETECT_MANY_S * 1e3:8.1f} ms"
                f" (relaxed={relaxed})",
                f"detections (batched == loop):          {batch.detection_count}"
                f" == {int(np.count_nonzero(reference_detected))}",
            ]
        ),
    )
    if not relaxed:
        assert batch_s <= MAX_DETECT_MANY_S, (
            f"detect_many took {batch_s * 1e3:.1f} ms (ceiling {MAX_DETECT_MANY_S * 1e3:.1f} ms)"
        )

    # Register the batched path with the benchmark harness.
    benchmark.pedantic(
        batched.detect_many, args=(sequence, trace_matrix), rounds=3, iterations=1
    )


def test_bench_batched_campaign_memory_chunking(report):
    """The campaign draws trial folds: it never holds even one trace row."""
    import tracemalloc

    from repro.detection.campaign import run_detection_probability_campaign
    from repro.power.synthesis import TraceSynthesizer

    sequence = LFSR(width=PERIOD_WIDTH, seed=0x2D).sequence()
    trials = 20
    tracemalloc.start()
    try:
        curve = run_detection_probability_campaign(
            sequence,
            watermark_amplitude_w=1.5e-3,
            noise_sigma_w=20e-3,
            cycle_counts=(NUM_CYCLES,),
            trials_per_point=trials,
            seed=7,
        )
        peak_rows = tracemalloc.get_traced_memory()[1] / (NUM_CYCLES * 8)
    finally:
        tracemalloc.stop()
    synthesizer = TraceSynthesizer(
        sequence, watermark_amplitude_w=1.5e-3, noise_sigma_w=20e-3
    )
    folds = synthesizer.trial_folds(trials, NUM_CYCLES, np.random.default_rng(7))
    direct = BatchCPADetector().detect_many(sequence, folds)
    assert curve.points[0].detections == direct.detection_count
    assert peak_rows < 1.0
    report(
        "Campaign memory",
        f"detections {curve.points[0].detections}/{trials} ({NUM_CYCLES:,} cycles); "
        f"peak {peak_rows:.2f} trace rows",
    )
