"""The per-layer metric catalogue and how each value is derived.

Every traced run prints every metric below, whichever workload it ran; a
layer the workload never reached reads 0 (for example ``backends.*`` and
``measurement.measure_many.*`` on ``verify-mix``, ``service.*`` on
``campaign-sweep``).

Sources:

``("self", span)``          summed self time of the spans of that name
``("calls", span)``         number of such spans
``("attr", span, key)``     summed numeric attribute of those spans
``("misses", span, key)``   calls minus the summed 0/1 attribute ``key``
``("counter", key)``        delta of a program cache counter
``("extra", key)``          a value the workload computed itself
"""

from __future__ import annotations

import re
import subprocess
import sys
from typing import Dict, Iterable, List, Mapping, Tuple

from perfbench import stats
from perfbench.common import ROOT, child_env
from perfbench.spans import Span, by_name

#: Stages of the scenarios the workloads run, as ``(kind, stage name)``:
#: the Fig. 6 cells of ``campaign-sweep`` and the Fig. 5 panels of ``verify-mix``.
STAGES = (
    ("fig5_panel", "chip"),
    ("fig5_panel", "acquisition"),
    ("fig5_panel", "detection"),
    ("fig6_chip", "chip"),
    ("fig6_chip", "campaign"),
    ("fig6_chip", "statistics"),
)

PER_LAYER: List[Tuple[str, str, tuple]] = [
    ("import.numpy_s", "s", ("extra", "import.numpy_s")),
    ("import.scipy_s", "s", ("extra", "import.scipy_s")),
    ("import.repro_self_s", "s", ("extra", "import.repro_self_s")),
    ("rtl.periodic_activity.calls", "count", ("calls", "rtl.periodic_activity")),
    ("rtl.periodic_activity.self_s", "s", ("self", "rtl.periodic_activity")),
    ("soc.build_chip.calls", "count", ("calls", "soc.build_chip")),
    ("soc.build_chip.self_s", "s", ("self", "soc.build_chip")),
    ("soc.m0_activity.self_s", "s", ("self", "soc.m0_activity")),
    ("soc.background_power.calls", "count", ("calls", "soc.background_power")),
    ("soc.background_power.self_s", "s", ("self", "soc.background_power")),
    ("soc.m0_window_cache.hits", "count", ("counter", "soc.m0_window_cache.hits")),
    ("soc.m0_window_cache.misses", "count", ("counter", "soc.m0_window_cache.misses")),
    ("soc.background_template_cache.hits", "count", ("counter", "soc.background_template_cache.hits")),
    ("soc.background_template_cache.misses", "count", ("counter", "soc.background_template_cache.misses")),
    ("pipeline.chip_cache.hits", "count", ("counter", "pipeline.chip_cache.hits")),
    ("pipeline.chip_cache.misses", "count", ("counter", "pipeline.chip_cache.misses")),
    ("power.watermark_power.self_s", "s", ("self", "power.watermark_power")),
    ("power.combined_power_trace.self_s", "s", ("self", "power.combined_power_trace")),
    ("measurement.measure.self_s", "s", ("self", "measurement.measure")),
    ("measurement.measure_many.self_s", "s", ("self", "measurement.measure_many")),
    ("measurement.measure_many.rows", "count", ("attr", "measurement.measure_many", "rows")),
    ("measurement.measure_many.bytes", "B", ("attr", "measurement.measure_many", "bytes")),
    ("detection.detect_many.self_s", "s", ("self", "detection.detect_many")),
    ("detection.detect_many.trials", "count", ("attr", "detection.detect_many", "trials")),
    ("detection.detect_many.detected", "count", ("attr", "detection.detect_many", "detected")),
    ("detection.detect.self_s", "s", ("self", "detection.detect")),
    ("detection.batch_rotation_correlations.self_s", "s", ("self", "detection.batch_rotation_correlations")),
    ("pipeline.execute.calls", "count", ("calls", "pipeline.execute")),
    ("pipeline.execute.self_s", "s", ("self", "pipeline.execute")),
    *[
        (f"pipeline.stage.{kind}.{stage}.self_s", "s", ("self", f"pipeline.stage.{kind}.{stage}"))
        for kind, stage in STAGES
    ],
    ("pipeline.store.get.self_s", "s", ("self", "pipeline.store.get")),
    ("pipeline.store.get.hits", "count", ("attr", "pipeline.store.get", "hit")),
    ("pipeline.store.get.misses", "count", ("misses", "pipeline.store.get", "hit")),
    ("pipeline.store.put.self_s", "s", ("self", "pipeline.store.put")),
    ("pipeline.store.put.calls", "count", ("calls", "pipeline.store.put")),
    ("pipeline.store.put.bytes", "B", ("attr", "pipeline.store.put", "bytes")),
    ("artifacts.to_wire.self_s", "s", ("self", "artifacts.to_wire")),
    ("backends.run_process.wall_s", "s", ("extra", "backends.run_process.wall_s")),
    ("backends.worker_busy_frac", "ratio", ("extra", "backends.worker_busy_frac")),
    ("backends.parallel_efficiency", "ratio", ("extra", "backends.parallel_efficiency")),
    ("service.handle_verify.self_s", "s", ("self", "service.handle_verify")),
    ("service.check_ticket.self_s", "s", ("self", "service.check_ticket")),
    ("service.sign_transcript.self_s", "s", ("self", "service.sign_transcript")),
    ("service.ledger_append.self_s", "s", ("self", "service.ledger_append")),
    ("service.to_wire.self_s", "s", ("self", "service.to_wire")),
    ("client.mine_nonce.self_s", "s", ("self", "client.mine_nonce")),
    ("client.generator_late_ms.p99", "ms", ("extra", "client.generator_late_ms.p99")),
    ("client.generator_late_ms.max", "ms", ("extra", "client.generator_late_ms.max")),
    ("trace.overhead_pct", "%", ("extra", "trace.overhead_pct")),
    ("trace.unattributed_s", "s", ("extra", "trace.unattributed_s")),
]

UNITS: Dict[str, str] = {name: unit for name, unit, _ in PER_LAYER}

#: Packages whose import self time ``-X importtime`` attributes to a layer metric.
IMPORT_PACKAGES = {"numpy": "import.numpy_s", "scipy": "import.scipy_s", "repro": "import.repro_self_s"}

_IMPORTTIME = re.compile(r"import time:\s+(\d+)\s+\|\s+(\d+)\s+\|\s+(\S.*)$")


def import_breakdown(repeats: int = 3) -> Dict[str, float]:
    """Median per-package import self time of ``import repro`` (``-X importtime``)."""
    samples: Dict[str, List[float]] = {metric: [] for metric in IMPORT_PACKAGES.values()}
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import repro"],
            cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=60, check=True,
        )
        totals = dict.fromkeys(IMPORT_PACKAGES.values(), 0.0)
        for line in proc.stderr.splitlines():
            match = _IMPORTTIME.match(line)
            if match:
                package = match.group(3).strip().split(".")[0]
                if package in IMPORT_PACKAGES:
                    totals[IMPORT_PACKAGES[package]] += int(match.group(1)) / 1e6
        for metric, value in totals.items():
            samples[metric].append(value)
    return {metric: stats.median(values) for metric, values in samples.items()}


def layer_metrics(
    spans: Iterable[Span], counters: Mapping[str, float], extra: Mapping[str, float]
) -> Dict[str, float]:
    """Every per-layer metric; 0 for layers these spans never reached."""
    totals = by_name(spans)
    values: Dict[str, float] = {}
    for metric, _, source in PER_LAYER:
        kind, key = source[0], source[1]
        entry = totals.get(key)
        if kind == "self":
            value = entry.self_s if entry else 0.0
        elif kind == "calls":
            value = entry.calls if entry else 0
        elif kind == "attr":
            value = entry.attrs.get(source[2], 0.0) if entry else 0.0
        elif kind == "misses":
            value = entry.calls - entry.attrs.get(source[2], 0.0) if entry else 0.0
        elif kind == "counter":
            value = counters.get(key, 0)
        else:
            value = extra.get(key, 0.0)
        values[metric] = value
    return values


def total_self_s(spans: Iterable[Span]) -> float:
    """Summed self time of every span: the time some layer accounts for."""
    return sum(entry.self_s for entry in by_name(spans).values())


def ratio_notes(values: Mapping[str, float]) -> List[str]:
    """Hit/miss and useful/attempted ratios, each with its base."""
    notes = []
    for prefix in (
        "soc.m0_window_cache",
        "soc.background_template_cache",
        "pipeline.chip_cache",
        "pipeline.store.get",
    ):
        hits, misses = values[f"{prefix}.hits"], values[f"{prefix}.misses"]
        if hits + misses:
            notes.append(
                f"{prefix}: hit ratio {hits / (hits + misses):.3f} "
                f"({hits:.0f} hits of {hits + misses:.0f} lookups)"
            )
    trials = values["detection.detect_many.trials"]
    if trials:
        notes.append(
            f"detection.detect_many: {values['detection.detect_many.detected'] / trials:.3f} "
            f"detected ({values['detection.detect_many.detected']:.0f} of {trials:.0f} trials)"
        )
    rows = values["measurement.measure_many.rows"]
    if rows:
        notes.append(
            f"measurement.measure_many: {rows:.0f} rows, "
            f"{values['measurement.measure_many.bytes'] / 1e6:.1f} MB (computed rows x cycles x 8)"
        )
    return notes


def span_table(spans: Iterable[Span], limit: int = 12) -> List[str]:
    """The spans with the most self time: calls, self and total seconds, share of all self time."""
    totals = sorted(by_name(spans).items(), key=lambda item: -item[1].self_s)
    overall = sum(entry.self_s for _, entry in totals) or 1.0
    return [
        f"self {entry.self_s:9.4f} s ({100 * entry.self_s / overall:5.1f}%)  "
        f"total {entry.total_s:9.4f} s  calls {entry.calls:6d}  {name}"
        for name, entry in totals[:limit]
    ]
