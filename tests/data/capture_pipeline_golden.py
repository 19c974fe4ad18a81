#!/usr/bin/env python3
"""Capture the reports and arrays of every paper experiment.

Runs each spec of :func:`golden_specs` through the scenario pipeline and
freezes its report text and arrays; ``tests/test_pipeline_equivalence.py``
then pins the pipeline against the captured output.  Reports and
integer/boolean arrays are pinned exactly (the arrays as sha256 digests in
``pipeline_golden.json``); float64 arrays are stored in
``pipeline_golden.npz`` and compared to a stated relative tolerance,
because their last bits depend on the host's numpy SIMD paths.

Usage:  PYTHONPATH=src python tests/data/capture_pipeline_golden.py
"""

from __future__ import annotations

import hashlib
import json
import pathlib
from typing import Dict

import numpy as np

from repro.core.config import ExperimentConfig, MeasurementConfig, WatermarkConfig
from repro.pipeline import ScenarioSpec, run_scenario

OUT = pathlib.Path(__file__).with_name("pipeline_golden.json")
FLOAT_OUT = OUT.with_suffix(".npz")


def golden_specs() -> Dict[str, ScenarioSpec]:
    """The captured experiments: fixed seeds, quick scales."""
    quick = ExperimentConfig(measurement=MeasurementConfig(num_cycles=30_000))
    paper = ExperimentConfig()

    def acquisition(config: ExperimentConfig, **fields) -> ScenarioSpec:
        return ScenarioSpec(
            watermark=config.watermark,
            measurement=config.measurement,
            detection=config.detection,
            **fields,
        )

    return {
        "fig2": ScenarioSpec(
            kind="fig2",
            name="fig2",
            seed=0b1001,
            params={"num_cycles": 64, "register_count": 8, "lfsr_width": 4},
        ),
        "fig3": acquisition(
            paper,
            kind="fig3",
            name="fig3",
            chip="chip1",
            seed=7,
            m0_window_cycles=2_048,
            params={"num_cycles": 2_048},
        ),
        "fig5": acquisition(quick, kind="fig5", name="fig5", seed=100, m0_window_cycles=4_096),
        "fig6": acquisition(
            quick, kind="fig6", name="fig6", seed=1_000, repetitions=6, m0_window_cycles=4_096
        ),
        "table1": ScenarioSpec(
            kind="table1",
            name="table1",
            watermark=WatermarkConfig(),
            params={"switching_register_counts": [0, 256, 512, 1024]},
        ),
        "table2": ScenarioSpec(
            kind="table2",
            name="table2",
            params={
                "load_powers_w": [0.25e-3, 0.5e-3, 1e-3, 1.5e-3, 5e-3, 10e-3],
                "wgc_registers": 12,
            },
        ),
        "robustness": ScenarioSpec(
            kind="robustness",
            name="robustness",
            watermark=WatermarkConfig(),
            params={"modulated_gates": 4},
        ),
    }


def digest(array: np.ndarray) -> str:
    array = np.ascontiguousarray(array)
    return hashlib.sha256(array.tobytes()).hexdigest()


def main() -> None:
    payloads = {name: run_scenario(spec).payload for name, spec in golden_specs().items()}
    golden = {name: {"report": payload.to_text(), "arrays": {}} for name, payload in payloads.items()}
    fig2 = payloads["fig2"]
    golden["fig2"]["arrays"] = {
        "wmark": digest(fig2.wmark),
        "baseline_toggles": digest(fig2.baseline_toggles),
        "clock_modulation_toggles": digest(fig2.clock_modulation_toggles),
    }
    floats = {"fig3/measured_total_power": payloads["fig3"].measured_total_power}
    for key, panel in sorted(payloads["fig5"].panels.items()):
        floats[f"fig5/{key}"] = panel.cpa.correlations

    OUT.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    np.savez(FLOAT_OUT, **floats)
    print(f"wrote {OUT} ({len(golden)} experiments) and {FLOAT_OUT} ({len(floats)} arrays)")


if __name__ == "__main__":
    main()
