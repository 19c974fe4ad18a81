"""Benchmark: warm result store vs cold execution of the same sweep.

Acceptance pin for the memoization layer: a six-cell Fig. 6 campaign grid
run through ``ExperimentRunner.run_many(store=..., resume=True)`` against
a store that already holds every cell must finish within
:data:`MAX_WARM_S` -- the store trades a sha256 lookup plus a JSON+npz
read for the full Monte-Carlo campaign.  The cold run (same store,
initially empty) and the warm/cold ratio are reported only.

Served cells must be bit-identical to the computed ones (reports,
scalars, array bytes), and the warm pass must be pure hits: zero cells
executed, zero new entries written.
"""

import hashlib
import time

import numpy as np
from record import record_benchmark

from repro.pipeline import ExperimentRunner, ResultStore, RunOptions, SpecGrid

NUM_CYCLES = 150_000
REPETITIONS = 100
#: Ceiling for the warm pass (six store hits).  Twelve enforced runs of
#: this benchmark on a shared 2-CPU x86-64 host read 38-54 ms, so 100 ms
#: leaves 1.8x headroom over the slowest; the 5x warm/cold floor it
#: replaces failed two of those twelve (4.4x and 4.8x).  A warm pass that
#: bypasses the store recomputes every cell: five such runs read
#: 0.19-0.26 s on the same host, and each failed the ceiling.
MAX_WARM_S = 0.100


def _grid_specs():
    """Six campaign cells: {chip1, chip2} x three seeds, 100 reps each."""
    options = RunOptions(quick=True, cycles=NUM_CYCLES, repetitions=REPETITIONS)
    return SpecGrid("fig6/chip1", options).build(
        chips=["chip1", "chip2"], seeds=[1_000, 2_000, 3_000]
    )


def _digest(array: np.ndarray) -> str:
    return hashlib.sha256(
        f"{array.shape}|{array.dtype}|".encode() + array.tobytes()
    ).hexdigest()


def test_bench_warm_store_beats_cold_sweep(tmp_path, report, relaxed):
    specs = _grid_specs()
    assert len(specs) == 6

    # Warm-up: builds both chips (M0 windows, templates) so the cold pass
    # measures per-cell campaign compute, not one-off template builds --
    # the same baseline the parallel-sweep benchmark uses.
    runner = ExperimentRunner()
    runner.run_many(specs, backend="serial")

    store = ResultStore(tmp_path / "store")

    start = time.perf_counter()
    cold = runner.run_many(specs, backend="serial", store=store, resume=True)
    cold_s = time.perf_counter() - start
    assert cold.ok
    stats = store.stats()
    assert stats.hits == 0 and stats.writes == len(specs)

    start = time.perf_counter()
    warm = runner.run_many(specs, backend="serial", store=store, resume=True)
    warm_s = time.perf_counter() - start
    assert warm.ok
    stats = store.stats()
    assert stats.hits == len(specs) and stats.writes == len(specs)
    assert stats.entries == len(specs)

    # Served cells are bit-identical to computed ones; only the in-memory
    # payload is dropped, exactly as after ScenarioResult.load.
    assert [cell.name for cell in warm] == [cell.name for cell in cold]
    for computed, served in zip(cold, warm):
        assert served.report == computed.report, computed.name
        assert served.scalars == computed.scalars, computed.name
        assert set(served.arrays) == set(computed.arrays)
        for key in computed.arrays:
            assert _digest(served.arrays[key]) == _digest(
                computed.arrays[key]
            ), f"{computed.name}/{key}"
        assert served.payload is None

    speedup = cold_s / warm_s if warm_s > 0 else float("inf")
    lines = [
        f"grid: {len(specs)} Fig. 6 cells (2 chips x 3 seeds), "
        f"{NUM_CYCLES} cycles x {REPETITIONS} repetitions",
        f"cold sweep (store empty):  {cold_s:.2f} s ({len(specs)} cells executed)",
        f"warm sweep (store full):   {warm_s:.4f} s ({stats.hits} hits, 0 executed)",
        f"speedup: {speedup:.1f}x (warm ceiling {MAX_WARM_S * 1e3:.0f} ms, "
        f"relaxed={relaxed})",
    ]
    report("Result store: warm hits vs cold execution", "\n".join(lines))
    record_benchmark(
        "result_store",
        {
            "num_cycles": NUM_CYCLES,
            "cells": len(specs),
            "repetitions": REPETITIONS,
            "cold_s": round(cold_s, 4),
            "warm_s": round(warm_s, 4),
            "speedup": round(speedup, 1),
            "max_warm_s": MAX_WARM_S,
            "hits": stats.hits,
            "results_identical": True,
            "relaxed": relaxed,
        },
    )

    if not relaxed:
        assert warm_s <= MAX_WARM_S, (
            f"warm store pass took {warm_s:.4f} s "
            f"(ceiling {MAX_WARM_S:.3f} s; the cold sweep took {cold_s:.2f} s)"
        )
