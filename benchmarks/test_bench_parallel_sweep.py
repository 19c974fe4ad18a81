"""Benchmark: process-pool sweep backend vs the serial backend.

Acceptance pin for the execution-backend layer: a two-chip grid of six
Fig. 6 campaign cells (built with :class:`SpecGrid`, chips x seeds) run
through ``ExperimentRunner.run_many(backend="process")`` with two workers
must beat the same grid on the serial backend by at least 1.5x wall
clock, with bit-identical reports, scalars and arrays -- the pool buys
time, not different numbers.

Both runs start from the same warm state (one serial warm-up pass builds
every chip, M0 window and template; fork-started workers inherit them),
so the comparison measures the per-cell Monte-Carlo compute the pool
actually parallelises, not one-off template builds.
"""

import time

import numpy as np
from record import record_benchmark

from repro.pipeline import ExperimentRunner, RunOptions, SpecGrid
from repro.pipeline.backends import available_cpus

NUM_CYCLES = 150_000
REPETITIONS = 100
WORKERS = 2
MIN_SPEEDUP = 1.5


def _grid_specs():
    """Six campaign cells: {chip1, chip2} x three seeds, 100 reps each."""
    options = RunOptions(quick=True, cycles=NUM_CYCLES, repetitions=REPETITIONS)
    return SpecGrid("fig6/chip1", options).build(
        chips=["chip1", "chip2"], seeds=[1_000, 2_000, 3_000]
    )


def test_bench_process_backend_beats_serial(report, relaxed):
    # A wall-clock speedup needs at least two schedulable CPUs; on a
    # single-CPU box the floor stays report-only even where floors are
    # enforced (equivalence is still checked in full).
    relaxed = relaxed or available_cpus() < 2
    specs = _grid_specs()
    assert len(specs) == 6
    assert {spec.chip for spec in specs} == {"chip1", "chip2"}
    assert len({spec.name for spec in specs}) == 6

    # Warm-up: builds both chips (M0 windows, background + watermark
    # templates) once, so both timed runs -- and the workers forked from
    # this process -- start from the same warm state.
    runner = ExperimentRunner()
    runner.run_many(specs, backend="serial")

    start = time.perf_counter()
    serial = runner.run_many(specs, backend="serial")
    serial_s = time.perf_counter() - start

    start = time.perf_counter()
    parallel = runner.run_many(specs, backend="process", max_workers=WORKERS)
    parallel_s = time.perf_counter() - start

    # Identical numbers cell by cell: the backend is an execution detail.
    assert [cell.name for cell in parallel] == [cell.name for cell in serial]
    for serial_cell, parallel_cell in zip(serial, parallel):
        assert parallel_cell.report == serial_cell.report, serial_cell.name
        assert parallel_cell.scalars == serial_cell.scalars, serial_cell.name
        assert set(parallel_cell.arrays) == set(serial_cell.arrays)
        for key in serial_cell.arrays:
            assert np.array_equal(
                parallel_cell.arrays[key], serial_cell.arrays[key]
            ), f"{serial_cell.name}/{key}"

    # elapsed_s is the caller's wall clock, not the sum of cell timings:
    # with overlapping workers the per-cell sum exceeds the observed
    # duration once the pool actually parallelises.
    worker_sum_s = sum(cell.provenance.elapsed_s for cell in parallel)

    speedup = serial_s / parallel_s if parallel_s > 0 else float("inf")
    lines = [
        f"grid: {len(specs)} Fig. 6 cells (2 chips x 3 seeds), "
        f"{NUM_CYCLES} cycles x {REPETITIONS} repetitions",
        f"serial backend:                {serial_s:.2f} s",
        f"process backend ({WORKERS} workers):   {parallel_s:.2f} s "
        f"(cells sum to {worker_sum_s:.2f} s across workers)",
        f"speedup: {speedup:.2f}x (floor {MIN_SPEEDUP}x, relaxed={relaxed}, "
        f"cpus={available_cpus()})",
    ]
    report("Parallel sweep: process pool vs serial backend", "\n".join(lines))
    record_benchmark(
        "parallel_sweep",
        {
            "num_cycles": NUM_CYCLES,
            "cells": len(specs),
            "workers": WORKERS,
            "repetitions": REPETITIONS,
            "serial_s": round(serial_s, 4),
            "process_s": round(parallel_s, 4),
            "speedup": round(speedup, 2),
            "reports_identical": True,
            "relaxed": relaxed,
            "cpus": available_cpus(),
        },
    )

    if not relaxed:
        assert speedup >= MIN_SPEEDUP, (
            f"process backend ({parallel_s:.2f} s) should beat the serial "
            f"backend ({serial_s:.2f} s) by at least {MIN_SPEEDUP}x, "
            f"got {speedup:.2f}x"
        )
    else:
        # Report-only mode still bounds the damage: even when workers
        # time-slice a single loaded CPU, pool + wire overhead must not
        # blow the sweep up by more than a small factor.
        assert parallel_s <= serial_s * 3.0, "process backend far slower than serial"
