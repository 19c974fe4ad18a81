"""Benchmarks for the extension studies built on top of the paper.

These are not figures from the paper; they exercise the extra analyses the
library provides: watermark sizing via detection-probability curves and
masking and starvation attacks.
"""

import numpy as np

from repro.analysis.masking import run_noise_masking_study, run_starvation_study
from repro.core.lfsr import LFSR
from repro.detection.campaign import run_detection_probability_campaign


def test_bench_detection_probability_curve(benchmark, report):
    sequence = LFSR(width=12, seed=0x5A5).sequence()

    def campaign():
        return run_detection_probability_campaign(
            sequence,
            watermark_amplitude_w=1.5e-3,
            noise_sigma_w=43e-3,
            cycle_counts=(50_000, 100_000, 200_000, 300_000, 500_000),
            trials_per_point=10,
            seed=17,
        )

    curve = benchmark.pedantic(campaign, rounds=1, iterations=1)
    report("Extension: detection probability vs acquisition length", curve.to_text())

    probabilities = [p.detection_probability for p in curve.points]
    assert probabilities[-1] == 1.0
    # No point dips below its predecessor by more than the sampling noise
    # of 10 trials.
    assert all(b >= a - 0.15 for a, b in zip(probabilities, probabilities[1:]))
    # The paper's 300,000-cycle operating point must already be reliable.
    point_300k = next(p for p in curve.points if p.num_cycles == 300_000)
    assert point_300k.detection_probability >= 0.9


def test_bench_masking_attack(benchmark, report):
    sequence = LFSR(width=12, seed=0x5A5).sequence()

    def studies():
        noise = run_noise_masking_study(
            sequence,
            watermark_amplitude_w=1.5e-3,
            base_noise_sigma_w=43e-3,
            masking_noise_levels_w=(0.0, 50e-3, 100e-3, 200e-3, 400e-3),
            num_cycles=300_000,
            seed=23,
        )
        starvation = run_starvation_study(
            sequence,
            watermark_amplitude_w=1.5e-3,
            base_noise_sigma_w=43e-3,
            enable_duties=(1.0, 0.5, 0.25, 0.1, 0.02),
            num_cycles=300_000,
            seed=29,
        )
        return noise, starvation

    noise_study, starvation_study = benchmark.pedantic(studies, rounds=1, iterations=1)
    report(
        "Extension: masking and starvation attacks",
        noise_study.to_text() + "\n\n" + starvation_study.to_text(),
    )

    # The unmasked watermark is detected; defeating it by masking requires
    # injecting switching noise far larger than the watermark itself.
    assert noise_study.points[0].detected
    defeated = noise_study.detection_defeated_at()
    assert defeated is not None and defeated.masking_noise_w >= 50e-3
    # Starving the modulated clock gate eventually hides the watermark too.
    assert starvation_study.points[0].detected
    assert not starvation_study.points[-1].detected
