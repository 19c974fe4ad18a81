"""Benchmark: regenerate Fig. 6 (box plots over 100 repeated measurements).

``test_bench_fig6_warm_cell_split`` also times the stages of warm
paper-scale Fig. 6 cells (chips already built, fresh seeds) and records the
per-chip medians in ``BENCH.json`` as ``fig6_warm_cell_split``.  Those
timings are report-only: they sit under ``chips``, where the trend gate of
``record.py`` does not read, and nothing asserts on them.
"""

import time

import numpy as np
import pytest

from record import record_benchmark

from repro.pipeline import ExperimentRunner, Pipeline, ScenarioSpec, run_scenario
from repro.pipeline.stages import StageContext

#: Warm cells timed per chip; one more cell first builds the chip.
WARM_CELLS = 7


@pytest.mark.parametrize("chip_name", ["chip1", "chip2"])
def test_bench_fig6_repeatability(benchmark, report, paper_config, expectations, chip_name):
    repetitions = expectations["fig6"]["repetitions"]
    spec = ScenarioSpec(
        kind="fig6_chip",
        name=f"fig6/{chip_name}",
        chip=chip_name,
        watermark=paper_config.watermark,
        measurement=paper_config.measurement,
        detection=paper_config.detection,
        seed=1000,
        repetitions=repetitions,
    )
    result = benchmark.pedantic(run_scenario, args=(spec,), rounds=1, iterations=1).payload
    peak = result.peak_box
    off_peak = result.off_peak_box
    report(
        f"Fig. 6: correlation statistics over {repetitions} repetitions ({chip_name})",
        "\n".join(
            [
                f"peak rotation: {result.statistics.peak_rotation}",
                f"peak box:     median={peak.median:.4f} q1={peak.q1:.4f} q3={peak.q3:.4f} "
                f"whiskers=[{peak.whisker_low:.4f}, {peak.whisker_high:.4f}] "
                f"outliers={len(peak.outliers)}",
                f"off-peak box: median={off_peak.median:.4f} "
                f"whiskers=[{off_peak.whisker_low:.4f}, {off_peak.whisker_high:.4f}]",
                f"detection rate: {result.detection_rate * 100:.0f}%",
                f"peak box separated from off-peak distribution: {result.peak_separated}",
            ]
        ),
    )

    # The paper detects the watermark in every one of the 100 repetitions on
    # both chips, with the in-phase box clearly above the out-of-phase boxes.
    assert result.detection_rate == expectations["fig6"]["detection_rate"]
    assert result.peak_separated
    assert abs(off_peak.median) < 0.001
    assert peak.median > off_peak.whisker_high


def test_bench_fig6_warm_cell_split(report, paper_config, expectations):
    repetitions = expectations["fig6"]["repetitions"]
    runner = ExperimentRunner()
    chips = {}
    for chip_name in ("chip1", "chip2"):
        stage_times = {}
        for index in range(WARM_CELLS + 1):
            spec = ScenarioSpec(
                kind="fig6_chip",
                name=f"fig6/{chip_name}",
                chip=chip_name,
                watermark=paper_config.watermark,
                measurement=paper_config.measurement,
                detection=paper_config.detection,
                seed=2000 + 100 * index,  # fresh backgrounds, as a sweep draws them
                repetitions=repetitions,
            )
            ctx = StageContext(spec, runner)
            for stage in Pipeline.from_spec(spec).stages:
                start = time.perf_counter()
                stage.run(ctx)
                if index:  # cell 0 builds the chip
                    stage_times.setdefault(stage.name, []).append(time.perf_counter() - start)
            assert ctx.data["payload"].peak_separated
        cells = np.sum(list(stage_times.values()), axis=0)
        chips[chip_name] = {
            **{f"{name}_s": float(np.median(times)) for name, times in stage_times.items()},
            "cell_s": float(np.median(cells)),
        }
    record_benchmark(
        "fig6_warm_cell_split",
        {
            "warm_cells_per_chip": WARM_CELLS,
            "repetitions": repetitions,
            "num_cycles": paper_config.measurement.num_cycles,
            "chips": chips,
        },
    )
    lines = [f"{'chip':<6} " + " ".join(f"{name:>12}" for name in chips["chip1"])]
    for chip_name, split in chips.items():
        lines.append(f"{chip_name:<6} " + " ".join(f"{1e3 * t:>10.1f}ms" for t in split.values()))
    report(
        f"Fig. 6 warm paper-scale cell, median of {WARM_CELLS} cells per chip", "\n".join(lines)
    )
