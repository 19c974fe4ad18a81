"""The pipeline runner: execute declarative scenario specs.

:class:`Pipeline` resolves one :class:`repro.core.spec.ScenarioSpec` into
its named stages (see :mod:`repro.pipeline.stages`);
:class:`ExperimentRunner` executes single specs (:meth:`~ExperimentRunner.run`)
or whole sweeps (:meth:`~ExperimentRunner.run_many`) and wraps every outcome
in a typed :class:`repro.pipeline.artifacts.ScenarioResult`.

One runner instance shares work across everything it executes:

* a chip provider caches :class:`repro.soc.chip.ChipModel` instances per
  (chip, watermark config, workload, M0 window), so a sweep's scenarios
  reuse one chip -- and therefore one watermark period template -- instead
  of rebuilding it per scenario;
* underneath, the module-level M0-window and background-template caches
  (PR 3) and the batched CPA/synthesis engines (PRs 1-2) do the heavy
  lifting, which is why a registry-driven sweep beats the same scenarios
  run one by one with a fresh runner each (pinned by
  ``benchmarks/test_bench_pipeline_sweep.py``).
"""

from __future__ import annotations

import logging
import pathlib
import time
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple, Union, cast

from repro.caching import LRUCache
from repro.core.spec import ScenarioSpec
from repro.experiments.common import build_watermark
from repro.pipeline import faults
from repro.pipeline.artifacts import Provenance, ScenarioResult, SweepResult
from repro.pipeline.stages import PipelineStage, StageContext, stages_for
from repro.pipeline.store import ResultStore
from repro.soc.registry import build_registered_chip, workload_program

logger = logging.getLogger(__name__)

#: Chip instances retained per runner (LRU beyond this).
CHIP_CACHE_MAX_ENTRIES = 8


@dataclass(frozen=True)
class Pipeline:
    """A spec resolved into its ordered, named stages."""

    spec: ScenarioSpec
    stages: Tuple[PipelineStage, ...]

    @classmethod
    def from_spec(cls, spec: ScenarioSpec) -> "Pipeline":
        """Resolve the stage graph for ``spec`` (raises on unknown kinds)."""
        return cls(spec=spec, stages=tuple(stages_for(spec)))

    def execute(self, runner: Optional["ExperimentRunner"] = None) -> ScenarioResult:
        """Run every stage and assemble the typed result artifact."""
        runner = runner or ExperimentRunner()
        start = time.perf_counter()
        ctx = StageContext(self.spec, runner)
        for stage in self.stages:
            stage.run(ctx)
        elapsed = time.perf_counter() - start
        if "payload" not in ctx.data:
            raise RuntimeError(
                f"pipeline for kind {self.spec.kind!r} finished without a payload"
            )
        return ScenarioResult(
            spec=self.spec,
            provenance=Provenance(spec_hash=self.spec.spec_hash(), elapsed_s=elapsed),
            scalars=ctx.data.get("scalars", {}),
            arrays=ctx.data.get("arrays", {}),
            report=ctx.data.get("report", ""),
            payload=ctx.data.get("payload"),
        )


class ExperimentRunner:
    """Executes scenario specs, sharing chips and caches across a sweep."""

    def __init__(self, chip_cache_entries: int = CHIP_CACHE_MAX_ENTRIES) -> None:
        self._chips = LRUCache(lambda: chip_cache_entries)

    # -- shared services used by stages ---------------------------------------

    def chip_for(self, spec: ScenarioSpec):
        """The chip a spec names, cached per configuration within this runner."""
        if spec.chip is None:
            raise ValueError(f"scenario kind {spec.kind!r} requires a chip")
        chip_name = spec.chip  # bound post-check: narrowing does not cross closures
        key = (chip_name, spec.watermark, spec.workload, spec.m0_window_cycles)

        def build():
            return build_registered_chip(
                chip_name,
                watermark=build_watermark(spec.watermark),
                program=workload_program(spec.workload),
                m0_window_cycles=spec.m0_window_cycles,
            )

        # Caches ChipModel objects, not arrays; the chip freezes the arrays
        # of its own window cache.
        return self._chips.get_or_compute(key, build)

    def chip_cache_stats(self):
        """Hit/miss/eviction counters of the runner's chip provider."""
        return self._chips.stats()

    # -- execution -------------------------------------------------------------

    def resolve(
        self, scenario: Union[ScenarioSpec, str, pathlib.Path]
    ) -> ScenarioSpec:
        """Accept a spec, a registry name, or a path to a spec JSON file.

        A :class:`pathlib.Path` is always treated as a spec file.  For a
        string, the registry wins on a name collision; otherwise any
        existing file loads as a spec regardless of its extension (a spec
        saved as ``fig5.spec`` must not be rejected as an "unknown
        scenario"), and a ``.json`` path that does not exist raises
        :class:`FileNotFoundError` rather than hiding the miss.
        """
        if isinstance(scenario, ScenarioSpec):
            return scenario
        if isinstance(scenario, pathlib.Path):
            return ScenarioSpec.load(scenario)
        from repro.pipeline.registry import DEFAULT_REGISTRY

        if DEFAULT_REGISTRY.has(scenario):
            return DEFAULT_REGISTRY.build(scenario)
        path = pathlib.Path(scenario)
        if scenario.endswith(".json") or path.is_file():
            return ScenarioSpec.load(path)
        raise ValueError(
            f"unknown scenario {scenario!r}: not a registry name "
            f"(see 'python -m repro list') and not a spec file path"
        )

    def run(
        self,
        scenario: Union[ScenarioSpec, str],
        store: Optional[Union[ResultStore, str, pathlib.Path]] = None,
        resume: bool = True,
    ) -> ScenarioResult:
        """Execute one scenario and return its typed result artifact.

        With ``store`` (a :class:`~repro.pipeline.store.ResultStore` or a
        directory path) the result is memoized by (spec hash, code
        version): when ``resume`` is true a stored cell is served from
        disk instead of recomputing -- bit-identical scalars, arrays and
        report, with the in-memory ``payload`` dropped exactly as after
        :meth:`ScenarioResult.load` -- and a computed success is written
        back.  ``resume=False`` forces recomputation but still writes
        back.  Failed scenarios are never memoized.
        """
        spec = self.resolve(scenario)
        store = ResultStore.coerce(store)
        if store is not None and resume:
            cached = store.get(spec)
            if cached is not None:
                return cached
        result = Pipeline.from_spec(spec).execute(self)
        if store is not None and result.ok:
            store.put(result)
        return result

    def run_many(
        self,
        scenarios: Iterable[Union[ScenarioSpec, str, pathlib.Path]],
        backend: str = "serial",
        max_workers: Optional[int] = None,
        store: Optional[Union[ResultStore, str, pathlib.Path]] = None,
        resume: bool = True,
        timeout: Optional[float] = None,
        retry: Optional[Union[int, faults.RetryPolicy]] = None,
        on_failure: str = faults.ON_FAILURE_RECORD,
    ) -> SweepResult:
        """Execute a batch of scenarios, serially or on a process pool.

        ``backend="serial"`` runs in order through this runner: chips, M0
        windows, background-power templates and watermark period templates
        are shared across the whole sweep, so N related scenarios cost far
        less than N independent driver runs.  ``backend="process"``
        dispatches the resolved specs to ``max_workers`` worker processes
        (each with its own runner and naturally warming caches) and is
        bit-identical in scalars, arrays and reports -- only the in-memory
        ``payload`` objects are dropped, exactly as after
        :meth:`ScenarioResult.load`.  Serial is the default: on a 2-CPU
        host the pool ran a 6-cell grid at 0.51x serial speed
        (BENCH.json ``parallel_sweep``).  Both backends share one
        supervision path (:mod:`repro.pipeline.backends`).

        With ``store`` the sweep becomes resumable and memoized: before
        executing, every cell already present under the current (spec
        hash, code version) key is served from disk (when ``resume`` is
        true, the default), only the missing cells are dispatched to the
        backend, and every *successful* cell is written back -- so a
        sweep that died at cell 900/1000 re-executes exactly the 100
        unfinished cells, and overlapping grids or repeat runs are
        near-free.  Failed cells are never memoized and always re-execute.

        Resolution errors (unknown names, missing spec files) raise before
        anything runs; *execution* failures are captured per cell (the
        result carries ``error`` + ``error_kind`` + a ``FAILED`` report)
        so one bad cell never kills the sweep.  ``elapsed_s`` of the
        returned :class:`SweepResult` is always the caller-observed wall
        clock.

        Supervision (see :mod:`repro.pipeline.faults`): ``timeout`` is a
        per-cell wall-clock budget in seconds -- on the process backend a
        hung cell's worker is killed and replaced without stalling sibling
        cells.  ``retry`` is a retry *count* or a full
        :class:`~repro.pipeline.faults.RetryPolicy`; only transient
        failures (timeouts, worker crashes,
        :class:`~repro.pipeline.faults.TransientError`) are retried, with
        deterministic backoff, and attempt counts land in each result's
        provenance.  ``on_failure="raise"`` aborts the sweep with
        :class:`~repro.pipeline.faults.CellFailed` once a cell exhausts
        its attempts (default ``"record"`` keeps sweeping).

        Completed cells are flushed to the store *as they finish*, and
        SIGINT/SIGTERM during the sweep trigger an orderly shutdown:
        unfinished cells are recorded as ``cancelled`` and the partial
        sweep returns normally -- so an interrupted run loses nothing
        already computed and ``--resume`` picks up exactly where it
        stopped.
        """
        # Loaded here, so importing the package forks nothing.
        from repro.pipeline import backends

        specs: Sequence[ScenarioSpec] = [self.resolve(s) for s in scenarios]
        if not specs:
            raise ValueError("at least one scenario is required")
        if backend not in backends.BACKENDS:
            raise ValueError(
                f"unknown backend {backend!r}; expected one of {backends.BACKENDS}"
            )
        if max_workers is not None and max_workers <= 0:
            raise ValueError("max_workers must be positive")
        supervision = faults.Supervision(
            timeout_s=timeout,
            retry=faults.RetryPolicy.coerce(retry),
            on_failure=on_failure,
        )
        store = ResultStore.coerce(store)
        start = time.perf_counter()
        results: List[Optional[ScenarioResult]] = [None] * len(specs)
        pending = list(range(len(specs)))
        if store is not None and resume:
            pending = []
            for index, spec in enumerate(specs):
                cached = store.get(spec)
                if cached is not None:
                    results[index] = cached
                else:
                    pending.append(index)
            logger.info(
                "result store %s: %d hit(s), %d cell(s) to execute",
                store.root, len(specs) - len(pending), len(pending),
            )
        if pending:
            pending_specs = [specs[index] for index in pending]

            def on_result(local_index: int, result: ScenarioResult) -> None:
                # Incremental write-back: a completed cell reaches the
                # store the moment it finishes, so a crash or interrupt
                # later in the sweep cannot lose it.
                results[pending[local_index]] = result
                if store is not None and result.ok:
                    store.put(result)

            with faults.graceful_shutdown():
                if backend == "serial":
                    backends.run_serial(
                        pending_specs,
                        self,
                        supervision=supervision,
                        on_result=on_result,
                    )
                else:
                    backends.run_process(
                        pending_specs,
                        max_workers=max_workers,
                        runner=self,
                        supervision=supervision,
                        on_result=on_result,
                    )
        # Every cell is settled: store hits above, the backend (which
        # records failures and cancellations as results) for the rest.
        return SweepResult(
            results=cast(List[ScenarioResult], results),
            elapsed_s=time.perf_counter() - start,
        )


def run_scenario(scenario: Union[ScenarioSpec, str]) -> ScenarioResult:
    """One-shot convenience wrapper: ``ExperimentRunner().run(scenario)``."""
    return ExperimentRunner().run(scenario)
