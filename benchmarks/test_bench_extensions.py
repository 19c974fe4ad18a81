"""Benchmarks for the extension studies built on top of the paper.

These are not figures from the paper; they exercise the extra analyses the
library provides: watermark sizing via detection-probability curves and
masking and starvation attacks.
"""

import os
import pathlib
import statistics
import subprocess
import sys

import numpy as np

from record import record_benchmark

from repro.analysis.masking import run_noise_masking_study, run_starvation_study
from repro.core.lfsr import LFSR
from repro.detection.campaign import run_detection_probability_campaign

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

#: Ceiling for the median cold paper-scale ``detection-probability`` run
#: (fresh process, import excluded).  Five runs on a 2-CPU host took
#: 0.021-0.034 s (median 0.025 s), so the ceiling leaves 3.5x headroom over
#: the slowest; the per-cycle trial rows the campaign drew before took
#: 0.34-0.50 s there.
MAX_COLD_DETECTION_PROBABILITY_S = 0.12

_COLD_RUN = """
import time
from repro.pipeline import run_scenario
start = time.perf_counter()
result = run_scenario("detection-probability")
print(time.perf_counter() - start, result.scalars["empirical_required_cycles"])
"""


def test_bench_detection_probability_cold_budget(report, relaxed):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    runs = []
    for _ in range(3):
        out = subprocess.run(
            [sys.executable, "-c", _COLD_RUN], env=env, capture_output=True, text=True, check=True
        )
        run_s, required = out.stdout.split()
        runs.append(float(run_s))
        assert int(required) == 80_000
    run_s = statistics.median(runs)
    record_benchmark(
        "detection_probability_cold",
        {
            "runs": len(runs),
            "median_run_s": run_s,
            "max_run_s": MAX_COLD_DETECTION_PROBABILITY_S,
            "relaxed": relaxed,
        },
    )
    report(
        "Cold paper-scale detection-probability run",
        f"median of {len(runs)} fresh processes: {run_s * 1e3:.1f} ms "
        f"(ceiling {MAX_COLD_DETECTION_PROBABILITY_S * 1e3:.0f} ms)",
    )
    if not relaxed:
        assert run_s < MAX_COLD_DETECTION_PROBABILITY_S, (
            f"cold detection-probability run took {run_s * 1e3:.1f} ms "
            f"(ceiling {MAX_COLD_DETECTION_PROBABILITY_S * 1e3:.0f} ms)"
        )


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
