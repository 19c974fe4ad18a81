#!/usr/bin/env python3
"""Capture the reports and arrays of every legacy experiment entry point.

Freezes each experiment's report text and arrays at fixed seeds;
``tests/test_pipeline_equivalence.py`` then pins the registry-driven
pipeline against the captured output.  Reports and integer/boolean arrays
are pinned exactly (the arrays as sha256 digests in ``pipeline_golden.json``);
float64 arrays are stored in ``pipeline_golden.npz`` and compared to a
stated relative tolerance, because their last bits depend on the host's
numpy SIMD paths.

Usage:  PYTHONPATH=src python tests/data/capture_pipeline_golden.py
"""

from __future__ import annotations

import hashlib
import json
import pathlib

import numpy as np

from repro.core.config import ExperimentConfig
from repro.experiments import (
    run_fig2,
    run_fig3,
    run_fig5,
    run_fig6,
    run_robustness,
    run_table1,
    run_table2,
)

OUT = pathlib.Path(__file__).with_name("pipeline_golden.json")
FLOAT_OUT = OUT.with_suffix(".npz")


def digest(array: np.ndarray) -> str:
    array = np.ascontiguousarray(array)
    return hashlib.sha256(array.tobytes()).hexdigest()


def main() -> None:
    config = ExperimentConfig.fast(30_000)
    golden = {}
    floats = {}

    fig2 = run_fig2()
    golden["fig2"] = {
        "report": fig2.to_text(),
        "arrays": {
            "wmark": digest(fig2.wmark),
            "baseline_toggles": digest(fig2.baseline_toggles),
            "clock_modulation_toggles": digest(fig2.clock_modulation_toggles),
        },
    }

    fig3 = run_fig3(num_cycles=2_048, seed=7)
    golden["fig3"] = {"report": fig3.to_text(), "arrays": {}}
    floats["fig3/measured_total_power"] = fig3.measured_total_power

    fig5 = run_fig5(config=config, seed=100, m0_window_cycles=4_096)
    golden["fig5"] = {"report": fig5.to_text(), "arrays": {}}
    for key, panel in sorted(fig5.panels.items()):
        floats[f"fig5/{key}"] = panel.cpa.correlations

    fig6 = run_fig6(repetitions=6, config=config, base_seed=1_000, m0_window_cycles=4_096)
    golden["fig6"] = {"report": fig6.to_text(), "arrays": {}}

    golden["table1"] = {"report": run_table1().to_text(), "arrays": {}}
    golden["table2"] = {"report": run_table2().to_text(), "arrays": {}}
    golden["robustness"] = {"report": run_robustness().to_text(), "arrays": {}}

    OUT.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    np.savez(FLOAT_OUT, **floats)
    print(f"wrote {OUT} ({len(golden)} experiments) and {FLOAT_OUT} ({len(floats)} arrays)")


if __name__ == "__main__":
    main()
