"""Span wrappers around the public functions of each layer.

Every wrapper is installed where the caller looks the name up: methods on
their class, module functions in each module that imported them by name
(``check_ticket`` and ``sign_transcript`` live in the server's namespace,
``build_registered_chip`` in the runner's, ``mine_nonce`` in the
client's).  The program itself is not modified.
"""

from __future__ import annotations

import importlib
import itertools
import pathlib
from typing import Any, Callable, Dict, List, Optional, Tuple

from perfbench.spans import Tracer

# (module, attribute path, span name)
LAYER_PROBES: Tuple[Tuple[str, str, str], ...] = (
    ("repro.core.architectures", "WatermarkArchitecture.periodic_activity", "rtl.periodic_activity"),
    ("repro.pipeline.runner", "build_registered_chip", "soc.build_chip"),
    ("repro.soc.chip", "ChipModel.m0_activity", "soc.m0_activity"),
    ("repro.soc.chip", "ChipModel.background_power", "soc.background_power"),
    ("repro.soc.chip", "ChipModel.watermark_power", "power.watermark_power"),
    ("repro.power.estimator", "PowerEstimator.combined_power_trace", "power.combined_power_trace"),
    ("repro.measurement.acquisition", "AcquisitionCampaign.measure", "measurement.measure"),
    ("repro.measurement.acquisition", "AcquisitionCampaign.measure_many", "measurement.measure_many"),
    ("repro.detection.batch", "BatchCPADetector.detect_many", "detection.detect_many"),
    ("repro.detection.cpa", "CPADetector.detect", "detection.detect"),
    ("repro.detection.batch", "batch_rotation_correlations", "detection.batch_rotation_correlations"),
    ("repro.detection.cpa", "batch_rotation_correlations", "detection.batch_rotation_correlations"),
    ("repro.pipeline.store", "ResultStore.get", "pipeline.store.get"),
    ("repro.pipeline.store", "ResultStore.put", "pipeline.store.put"),
)

SERVICE_PROBES: Tuple[Tuple[str, str, str], ...] = (
    ("repro.service.server", "check_ticket", "service.check_ticket"),
    ("repro.service.server", "sign_transcript", "service.sign_transcript"),
    ("repro.service.ledger", "Ledger.append", "service.ledger_append"),
)

CLIENT_PROBES: Tuple[Tuple[str, str, str], ...] = (
    ("repro.service.client", "mine_nonce", "client.mine_nonce"),
)


def _file_bytes(path: pathlib.Path) -> int:
    npz = path.with_suffix(".npz")
    return path.stat().st_size + (npz.stat().st_size if npz.exists() else 0)


def _run_process_attrs(result, args, kwargs) -> Dict[str, Any]:
    from repro.pipeline.backends import default_max_workers

    workers = kwargs.get("max_workers") or default_max_workers(len(args[0]))
    return {
        "workers": workers,
        "busy_s": sum(cell.provenance.elapsed_s for cell in result),
    }


#: Attributes recorded after a call, per span name.
ATTRS: Dict[str, Callable[[Any, tuple, dict], Dict[str, Any]]] = {
    "measurement.measure_many": lambda matrix, a, k: {
        "rows": matrix.shape[0],
        "bytes": matrix.nbytes,  # rows x cycles x 8, computed
    },
    "detection.detect_many": lambda batch, a, k: {
        "trials": batch.num_trials,
        "detected": batch.detection_count,
    },
    "pipeline.store.get": lambda cached, a, k: {"hit": int(cached is not None)},
    "pipeline.store.put": lambda path, a, k: {"bytes": _file_bytes(path)},
    "backends.run_process": _run_process_attrs,
}


def _to_wire_name(parent: Optional[str]) -> str:
    return "service.to_wire" if parent == "service.handle_verify" else "artifacts.to_wire"


def _patch(tracer: Tracer, module: str, path: str, name, **options) -> None:
    owner: Any = importlib.import_module(module)
    *outer, attribute = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    original = getattr(owner, attribute)
    setattr(owner, attribute, tracer.wrap(original, name, attrs=ATTRS.get(name), **options))


def install(tracer: Tracer, groups: Tuple[str, ...] = ("layers",)) -> None:
    """Wrap the layer functions of the chosen groups with ``tracer`` spans.

    Groups: ``layers`` (rtl, soc, power, measurement, detection and the
    pipeline's execute/stages/store), ``service`` (the server's request
    path), ``client`` (ticket mining) and ``backends`` (the process pool,
    parent side only).
    """
    probes: List[Tuple[str, str, str]] = []
    if "layers" in groups:
        probes.extend(LAYER_PROBES)
        _install_pipeline(tracer)
    if "service" in groups:
        probes.extend(SERVICE_PROBES)
        request_ids = itertools.count(1)
        _patch(
            tracer, "repro.pipeline.artifacts", "ScenarioResult.to_wire", _to_wire_name
        )
        _patch(
            tracer,
            "repro.service.server",
            "DetectionService.handle_verify",
            "service.handle_verify",
            op=lambda args, kwargs: f"request-{next(request_ids)}",
        )
    if "client" in groups:
        probes.extend(CLIENT_PROBES)
    if "backends" in groups:
        probes.append(("repro.pipeline.backends", "run_process", "backends.run_process"))
    for module, path, name in probes:
        _patch(tracer, module, path, name)


def _install_pipeline(tracer: Tracer) -> None:
    """Spans for ``Pipeline.execute`` (one operation per cell) and every stage."""
    from repro.pipeline import runner
    from repro.pipeline.stages import PipelineStage

    _patch(
        tracer,
        "repro.pipeline.runner",
        "Pipeline.execute",
        "pipeline.execute",
        op=lambda args, kwargs: args[0].spec.name or args[0].spec.kind,
    )
    original = runner.stages_for

    def stages_for(spec):
        return [
            PipelineStage(
                stage.name,
                tracer.wrap(stage.run, f"pipeline.stage.{spec.kind}.{stage.name}"),
            )
            for stage in original(spec)
        ]

    runner.stages_for = stages_for


def cache_counters(runner=None) -> Dict[str, int]:
    """Hit/miss counters of the program's caches, from their public ``*_stats()``."""
    from repro.soc.chip import background_template_cache_stats
    from repro.soc.cpu import m0_window_cache_stats

    sources = [
        ("soc.m0_window_cache", m0_window_cache_stats()),
        ("soc.background_template_cache", background_template_cache_stats()),
    ]
    if runner is not None:
        sources.append(("pipeline.chip_cache", runner.chip_cache_stats()))
    counters = {}
    for prefix, stats in sources:
        counters[f"{prefix}.hits"] = int(stats["hits"])
        counters[f"{prefix}.misses"] = int(stats["misses"])
    return counters


def counter_delta(before: Dict[str, int], after: Dict[str, int]) -> Dict[str, int]:
    return {key: after[key] - before.get(key, 0) for key in after}
