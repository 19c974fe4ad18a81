#!/usr/bin/env python3
"""Batched Monte-Carlo campaign: a detection-probability curve in one pass.

Shows the batched detection engine at campaign scale:

1. size a watermark operating point (amplitude, bench noise) below the
   paper's corner, where detection is *not* guaranteed;
2. sweep acquisition lengths, streaming every length's Monte-Carlo trial
   rows into one ``BatchCPADetector`` pass (one stack of rFFTs per batch
   instead of one Python round trip per trial, one row in memory at a
   time);
3. print the empirical detection-probability curve next to the analytical
   sufficient-cycle estimate, plus a masking-robustness sweep that reuses
   the same batched engine.

Run:  python examples/batched_campaign.py [--trials 100]
"""

from __future__ import annotations

import argparse
import time

from repro.analysis import run_noise_masking_study, run_starvation_study
from repro.core.lfsr import LFSR
from repro.detection import run_detection_probability_campaign


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--trials",
        type=int,
        default=100,
        help="Monte-Carlo trials per acquisition length",
    )
    args = parser.parse_args()

    sequence = LFSR(width=8, seed=0x2D).sequence()
    amplitude_w = 1.5e-3
    noise_w = 25e-3

    start = time.perf_counter()
    curve = run_detection_probability_campaign(
        sequence,
        watermark_amplitude_w=amplitude_w,
        noise_sigma_w=noise_w,
        cycle_counts=(5_000, 20_000, 80_000, 160_000),
        trials_per_point=args.trials,
        seed=1,
    )
    elapsed = time.perf_counter() - start
    print(curve.to_text())
    total_trials = args.trials * 4
    print(f"\n{total_trials} batched CPA trials in {elapsed:.2f} s "
          f"({total_trials / elapsed:.0f} trials/s)")

    print("\nMasking robustness at 80,000 cycles (batched sweeps):")
    sweep = dict(
        watermark_amplitude_w=amplitude_w,
        base_noise_sigma_w=noise_w,
        num_cycles=80_000,
        trials_per_point=5,
    )
    print(run_noise_masking_study(sequence, seed=2, **sweep).to_text())
    print(run_starvation_study(sequence, seed=3, **sweep).to_text())


if __name__ == "__main__":
    main()
