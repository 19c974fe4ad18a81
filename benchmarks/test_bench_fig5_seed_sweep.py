"""Benchmark: the four Fig. 5 panels over 80 seeds, one runner.

The registry runs Fig. 5 at one seed, so its four decisions say nothing
about how often a disabled watermark is "detected" or an active one
missed.  This sweep runs every panel at paper scale (300,000 cycles,
4,095 rotations) for the Fig. 5 seeds 1000-1079, through one
:class:`~repro.pipeline.ExperimentRunner` so the chips stay warm, and
records per panel the detected count and the quantiles of the z-score.

Each count is compared with the reference counts of the 80-seed sweep
made when the panels started deciding from a phase fold (11, 4, 80 and
79 of 80 for chip I inactive, chip II inactive, chip I active and chip II
active).  A pooled two-proportion z-test must keep
``|z| < REFERENCE_Z_BOUND`` (two-sided alpha = 1e-3).  The bound is
enforced with ``REPRO_BENCH_RELAXED=0``; a relaxed run only reports.
"""

import time

import numpy as np

from record import record_benchmark

from repro.pipeline import DEFAULT_REGISTRY, ExperimentRunner
from repro.pipeline.registry import RunOptions

SEEDS = range(1000, 1080)
#: Detected counts over ``SEEDS`` when Fig. 5 first decided from a phase fold.
REFERENCE_DETECTED = {
    "fig5/chip1-inactive": 11,
    "fig5/chip2-inactive": 4,
    "fig5/chip1-active": 80,
    "fig5/chip2-active": 79,
}
#: Two-sided bound on the pooled two-proportion z against the reference.
REFERENCE_Z_BOUND = 3.29
QUANTILES = (0.0, 0.1, 0.5, 0.9, 1.0)


def two_proportion_z(count: int, reference: int, trials: int) -> float:
    """Pooled two-proportion z of ``count`` against ``reference`` of ``trials`` each."""
    if count == reference:
        return 0.0
    pooled = (count + reference) / (2 * trials)
    return (count - reference) / trials / np.sqrt(2 * pooled * (1 - pooled) / trials)


def test_bench_fig5_seed_sweep(report, relaxed):
    runner = ExperimentRunner()
    panels = {}
    start = time.perf_counter()
    for name, reference in REFERENCE_DETECTED.items():
        detected, z_scores = 0, []
        for seed in SEEDS:
            cpa = runner.run(DEFAULT_REGISTRY.build(name, RunOptions(seed=seed))).payload.cpa
            detected += bool(cpa.detected)
            z_scores.append(cpa.z_score)
        panels[name] = {
            "detected": detected,
            "reference_detected": reference,
            "z_vs_reference": two_proportion_z(detected, reference, len(SEEDS)),
            "z_quantiles": [float(q) for q in np.quantile(z_scores, QUANTILES)],
        }
    elapsed_s = time.perf_counter() - start

    record_benchmark(
        "fig5_seed_sweep",
        {
            "seeds": [SEEDS.start, SEEDS.stop - 1],
            "panels": panels,
            "elapsed_s": elapsed_s,
            "panel_mean_s": elapsed_s / (len(SEEDS) * len(panels)),
            "reference_z_bound": REFERENCE_Z_BOUND,
            "relaxed": relaxed,
        },
    )
    lines = [f"{'panel':<22} detected  ref  z vs ref   z: min / 10% / median / 90% / max"]
    for name, panel in panels.items():
        quantiles = " / ".join(f"{q:.2f}" for q in panel["z_quantiles"])
        lines.append(
            f"{name:<22} {panel['detected']:>4}/{len(SEEDS)}  {panel['reference_detected']:>3}"
            f"  {panel['z_vs_reference']:+8.2f}   {quantiles}"
        )
    lines.append(f"{len(SEEDS) * len(panels)} panels in {elapsed_s:.1f} s")
    report(f"Fig. 5 seed sweep, seeds {SEEDS.start}-{SEEDS.stop - 1}", "\n".join(lines))

    if not relaxed:
        for name, panel in panels.items():
            assert abs(panel["z_vs_reference"]) < REFERENCE_Z_BOUND, (name, panel)
