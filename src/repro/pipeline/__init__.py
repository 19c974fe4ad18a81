"""Declarative scenario pipeline: specs in, typed result artifacts out.

The public surface:

* :class:`repro.core.spec.ScenarioSpec` -- a frozen, JSON-serializable
  experiment description (re-exported here for convenience);
* :class:`Pipeline` / :class:`ExperimentRunner` -- resolve a spec into
  chip → acquisition → synthesis → detection stages and execute single
  specs or batched sweeps (``run_many``) through the shared caches;
* :class:`ScenarioResult` / :class:`SweepResult` -- typed artifacts with
  JSON/``.npz`` round-trip and provenance stamps;
* :data:`DEFAULT_REGISTRY` -- every paper figure/table (plus campaign
  scenarios) as a named spec factory;
* :class:`SpecGrid` -- the cartesian sweep builder expanding a
  base scenario along chip/noise/length/seed axes, and
  ``run_many(..., backend="process", max_workers=N)`` to execute such
  grids on a process pool (bit-identical to serial, see
  :mod:`repro.pipeline.backends`);
* :class:`ResultStore` -- content-addressed memoization of results by
  (spec hash, code version), making sweeps resumable
  (``run_many(..., store=..., resume=True)``, see
  :mod:`repro.pipeline.store`);
* :class:`RetryPolicy` / :class:`Supervision` / :data:`FAILURE_KINDS` --
  the fault-tolerance policy layer (per-cell timeouts, retries with
  deterministic backoff, failure taxonomy, graceful shutdown; see
  :mod:`repro.pipeline.faults`).  ``run_many(..., chaos=...)`` takes
  deterministic fault injection rules (:mod:`repro.pipeline.chaos`).

The backends and the chaos harness load with the first ``run_many``, so
importing the package starts no :mod:`multiprocessing` machinery.
"""

from repro.core.spec import ScenarioSpec
from repro.pipeline.artifacts import Provenance, ScenarioResult, SweepResult
from repro.pipeline.faults import (
    FAILURE_KINDS,
    CellFailed,
    InjectedFault,
    RetryPolicy,
    Supervision,
    TransientError,
)
from repro.pipeline.store import ResultStore, StoreStats, code_version_salt
from repro.pipeline.registry import (
    DEFAULT_REGISTRY,
    ExperimentRegistry,
    RegistryEntry,
    RunOptions,
    SpecGrid,
)
from repro.pipeline.runner import ExperimentRunner, Pipeline, run_scenario
from repro.pipeline.stages import PipelineStage, StageContext

__all__ = [
    "ScenarioSpec",
    "Provenance",
    "ScenarioResult",
    "SweepResult",
    "FAILURE_KINDS",
    "RetryPolicy",
    "Supervision",
    "CellFailed",
    "TransientError",
    "InjectedFault",
    "ResultStore",
    "StoreStats",
    "code_version_salt",
    "DEFAULT_REGISTRY",
    "ExperimentRegistry",
    "RegistryEntry",
    "RunOptions",
    "SpecGrid",
    "ExperimentRunner",
    "Pipeline",
    "run_scenario",
    "PipelineStage",
    "StageContext",
]
