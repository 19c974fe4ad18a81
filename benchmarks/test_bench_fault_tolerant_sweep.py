"""Benchmark: supervision-layer overhead on a fault-free sweep.

Acceptance pin for the fault-tolerance layer (PR 7): running a sweep
under full supervision -- per-cell timeout armed, retry policy active,
graceful-shutdown handlers installed -- must cost less than 5% wall clock
over the same sweep with supervision disabled, because a fault-free cell
takes exactly one attempt and the supervisor only ever arms/disarms a
timer and checks a policy object around it.

Measured on the serial backend: its supervision path (SIGALRM per cell)
runs in the benchmark process itself, so the comparison isolates the
supervision overhead from process-pool scheduling noise.  A 5% ceiling
cannot be resolved on a sweep of a third of a second, so the grid takes
over a second (24 cells, each arming its own deadline).  Each round times
one plain and one supervised sweep back to back, in alternating order, and
the gate reads the median of the per-round supervised/plain ratios: a slow
spell of the host then scales both sides of a round alike.  The gate
(``REPRO_BENCH_RELAXED=0``) reads 7 rounds; a relaxed run only reports, so
it reads 3 and says so in its record.
"""

import statistics
import time

from record import record_benchmark

from repro.pipeline import ExperimentRunner, RunOptions, SpecGrid

NUM_CYCLES = 300_000
REPETITIONS = 100
SEEDS = tuple(range(1_000, 13_000, 1_000))
MAX_OVERHEAD = 0.05
ROUNDS = 7
RELAXED_ROUNDS = 3


def _grid_specs():
    """24 Fig. 6 campaign cells: 2 chips x 12 seeds at paper length."""
    options = RunOptions(quick=True, cycles=NUM_CYCLES, repetitions=REPETITIONS)
    return SpecGrid("fig6/chip1", options).build(
        chips=["chip1", "chip2"], seeds=list(SEEDS)
    )


def _timed(run):
    start = time.perf_counter()
    sweep = run()
    wall = time.perf_counter() - start
    assert sweep.ok
    return wall


def _paired_rounds(rounds, plain, supervised):
    """(plain, supervised) wall times per round, the first side alternating."""
    pairs = []
    for index in range(rounds):
        if index % 2:
            supervised_s = _timed(supervised)
            plain_s = _timed(plain)
        else:
            plain_s = _timed(plain)
            supervised_s = _timed(supervised)
        pairs.append((plain_s, supervised_s))
    return pairs


def test_bench_supervision_overhead_under_five_percent(report, relaxed):
    specs = _grid_specs()
    runner = ExperimentRunner()
    # Warm-up: build both chips (M0 windows, templates) so both measured
    # passes see identical warm caches.
    runner.run_many(specs, backend="serial")

    rounds = RELAXED_ROUNDS if relaxed else ROUNDS
    pairs = _paired_rounds(
        rounds,
        lambda: runner.run_many(specs, backend="serial"),
        lambda: runner.run_many(
            specs, backend="serial", timeout=300.0, retry=2
        ),
    )
    ratios = sorted(supervised / plain for plain, supervised in pairs)
    overhead = statistics.median(ratios) - 1.0
    plain_s = statistics.median(plain for plain, _ in pairs)
    supervised_s = statistics.median(supervised for _, supervised in pairs)

    lines = [
        f"grid: {len(specs)} Fig. 6 cells (2 chips x {len(SEEDS)} seeds), "
        f"{NUM_CYCLES} cycles x {REPETITIONS} repetitions, "
        f"{rounds} paired rounds",
        f"plain sweep (no supervision), median:      {plain_s:.3f} s",
        f"supervised (timeout=300, retries=2), median: {supervised_s:.3f} s",
        "per-round overhead: "
        + ", ".join(f"{(ratio - 1.0) * 100:+.1f}%" for ratio in ratios),
        f"median overhead: {overhead * 100:+.1f}% "
        f"(ceiling {MAX_OVERHEAD * 100:.0f}%, relaxed={relaxed})",
    ]
    report("Fault-tolerant sweep: supervision overhead", "\n".join(lines))
    record_benchmark(
        "fault_tolerant_sweep",
        {
            "num_cycles": NUM_CYCLES,
            "cells": len(specs),
            "repetitions": REPETITIONS,
            "rounds": rounds,
            "plain_s": round(plain_s, 4),
            "supervised_s": round(supervised_s, 4),
            "overhead_pct": round(overhead * 100, 2),
            "overhead_pct_min": round((ratios[0] - 1.0) * 100, 2),
            "overhead_pct_max": round((ratios[-1] - 1.0) * 100, 2),
            "relaxed": relaxed,
        },
    )

    if not relaxed:
        assert overhead < MAX_OVERHEAD, (
            f"supervision should cost <{MAX_OVERHEAD * 100:.0f}% on a "
            f"fault-free sweep; measured a median {overhead * 100:+.1f}% "
            f"over {rounds} rounds ({plain_s:.3f} s -> {supervised_s:.3f} s)"
        )
