"""Streamed detection bounds campaign memory by construction.

The Fig. 6 campaign stage folds the shared power trace once and draws
every repetition's phase fold and energy directly, so its peak memory is a
few trace rows however many repetitions it runs -- it never holds a
repetitions x cycles matrix.
"""

import tracemalloc

import pytest

from repro.core.config import WatermarkConfig
from repro.pipeline.registry import DEFAULT_REGISTRY, RunOptions
from repro.pipeline.runner import ExperimentRunner
from repro.pipeline.stages import StageContext, stages_for

NUM_CYCLES = 60_000
ROW_BYTES = NUM_CYCLES * 8


def _fig6_cell(repetitions: int):
    # An 8-bit watermark (period 255) keeps the per-phase sums negligible
    # next to one trace row, so the bound measures the trace handling alone.
    return DEFAULT_REGISTRY.build(
        "fig6/chip1", RunOptions(cycles=NUM_CYCLES, repetitions=repetitions)
    ).with_overrides(
        watermark=WatermarkConfig(lfsr_width=8, lfsr_seed=0x2D),
        m0_window_cycles=1_024,
    )


@pytest.fixture(scope="module")
def runner():
    runner = ExperimentRunner()
    # Build the chip and fill its background-power cache once, untraced.
    runner.run(_fig6_cell(repetitions=1))
    return runner


def _campaign_peak_bytes(runner, repetitions: int) -> int:
    spec = _fig6_cell(repetitions)
    chip_stage, campaign_stage, _ = stages_for(spec)
    ctx = StageContext(spec=spec, runner=runner)
    chip_stage.run(ctx)
    tracemalloc.start()
    try:
        campaign_stage.run(ctx)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("repetitions", [10, 50])
def test_fig6_campaign_peak_stays_under_ten_rows(runner, repetitions):
    peak = _campaign_peak_bytes(runner, repetitions)
    assert peak < 10 * ROW_BYTES, (
        f"{repetitions} repetitions peaked at {peak / ROW_BYTES:.1f} trace rows"
    )
