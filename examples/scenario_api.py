#!/usr/bin/env python3
"""Scenario/Pipeline API tour: specs in, typed artifacts out.

Shows the declarative experiment layer end to end:

1. define a :class:`ScenarioSpec` (chip, watermark, bench, detection, seed);
2. run it through :class:`ExperimentRunner` and read the typed result
   (scalars, named arrays, report, provenance);
3. save the artifact (JSON + ``.npz``), reload it bit-exactly;
4. run a registry-driven sweep in one runner so all scenarios share the
   chip instances and template caches;
5. expand a base scenario into a cartesian :class:`SpecGrid` and run it
   on the process-pool backend -- bit-identical results, parallel wall
   clock on multi-core machines.

Run:  python examples/scenario_api.py [--quick]
"""

from __future__ import annotations

import argparse
import tempfile
from pathlib import Path

from repro.core.config import MeasurementConfig
from repro.pipeline import (
    DEFAULT_REGISTRY,
    ExperimentRunner,
    RunOptions,
    ScenarioResult,
    ScenarioSpec,
    SpecGrid,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="reduced acquisition (40,000 cycles) for a fast demo",
    )
    args = parser.parse_args()
    cycles = 40_000 if args.quick else 100_000

    # 1. A scenario is data: this is Fig. 5's chip-I active panel, but any
    #    field -- chip, noise, detection threshold, seed -- is one edit.
    spec = ScenarioSpec(
        kind="fig5_panel",
        name="demo/chip1-active",
        chip="chip1",
        measurement=MeasurementConfig.quick(cycles),
        seed=100,
    )
    print(f"spec hash: {spec.spec_hash()[:12]}")
    print(spec.to_json())

    # 2. One runner executes it through chip -> acquisition -> detection.
    runner = ExperimentRunner()
    result = runner.run(spec)
    print(result.report)
    print(f"scalars: {result.scalars}")
    print(f"arrays:  { {k: v.shape for k, v in result.arrays.items()} }")

    # 3. Artifacts round-trip: JSON for spec/scalars/provenance, .npz for
    #    arrays, bit-exact on reload.
    with tempfile.TemporaryDirectory() as tmp:
        path = result.save(Path(tmp) / "demo")
        reloaded = ScenarioResult.load(path)
        assert (reloaded.arrays["correlations"] == result.arrays["correlations"]).all()
        print(f"artifact round-trip OK ({path.name} + {path.with_suffix('.npz').name})")

    # 4. Registry sweep: four scenarios, one runner, shared caches.
    options = RunOptions(quick=True, cycles=cycles, repetitions=5)
    sweep = runner.run_many(
        DEFAULT_REGISTRY.build(name, options)
        for name in ("fig5/chip1-active", "fig5/chip1-inactive", "fig6/chip1", "fig3")
    )
    for scenario in sweep:
        print(f"  {scenario.name:<22} {scenario.provenance.elapsed_s:6.2f} s")
    print(f"sweep total: {sweep.elapsed_s:.2f} s (chip cache: {runner.chip_cache_stats()})")

    # 5. Grid sweep on the process backend: a base scenario expanded over
    #    seeds, executed by worker processes, results back in submission
    #    order with the same scalars/arrays/reports as the serial backend.
    specs = SpecGrid("fig5/chip1-active", options).build(seeds=[100, 101, 102])
    parallel = runner.run_many(specs, backend="process", max_workers=2)
    for scenario in parallel:
        status = "ok" if scenario.ok else "FAILED"
        print(f"  {scenario.name:<32} {status}  {scenario.report}")
    print(
        f"grid sweep ({len(parallel)} cells, process backend): "
        f"{parallel.elapsed_s:.2f} s wall clock"
    )
    assert parallel.get("fig5/chip1-active[seed=100]").report == runner.run(
        specs[0]
    ).report  # parallel == serial, bit for bit


if __name__ == "__main__":
    main()
