"""Workload ``campaign-sweep``: a paper-scale Fig. 6 grid on each backend.

One fresh process sets up by running one cell per chip, which builds the
chips and fills the M0-window and watermark-template caches.  Set-up runs
:data:`SETUPS` times, each from cold caches and a fresh runner, and
``setup_s`` is the median; a traced run adds one more, traced, so the RTL
and SoC cold work shows in the layer metrics.  Then 8-cell grids (both
chips x 4 seeds, 300k cycles, 100 repetitions) run through
``ExperimentRunner.run_many``, alternating ``backend="serial"`` and
``backend="process", max_workers=2`` so both backends see the same host
conditions.  Every cell of a run has its own seed, 100 apart so the noise
seeds of its repetitions never overlap another cell's: no grid inherits
another's background-power templates.  Almost all the work is acquisition
noise and the phase fold plus rFFT; RTL is near zero after set-up.

After the timed grids one shared cell (the same cell type with 10
repetitions, to keep it cheap) runs on each backend, and the two results
must be bit-identical.
"""

from __future__ import annotations

import json
from random import Random
from typing import Any, Dict, List, Optional

from perfbench import layers, spans, stats
from perfbench.common import Context, Outcome, run_child

CHIPS = ("chip1", "chip2")
SEEDS_PER_CHIP = 4
BACKENDS = ("serial", "process")
#: Seconds of ``--seconds`` per serial/process grid pair (about what a pair
#: takes on a 2-CPU host).  A traced run times its first serial grid
#: untraced (the overhead reference) and the others traced, so it needs two.
PAIR_SECONDS = 14.0
#: Cold warm-ups per run; ``setup_s`` is their median.
SETUPS = 3


def cell_spec(chip: str, seed: int):
    """One Fig. 6 paper-scale cell (registry defaults, given chip and seed)."""
    from repro.pipeline.registry import DEFAULT_REGISTRY

    spec = DEFAULT_REGISTRY.build(f"fig6/{chip}")
    return spec.with_seed(seed).with_name(f"fig6/{chip}[seed={seed}]")


def cell_checks(cell) -> List[str]:
    """Why a finished cell is wrong (empty when it is right)."""
    if not cell.ok:
        return [f"failed: {cell.error}"]
    problems = []
    if not cell.scalars.get("peak_separated"):
        problems.append("correlation peak not separated")
    if cell.scalars.get("detection_rate", 0.0) < 0.9:
        problems.append(f"detection rate {cell.scalars.get('detection_rate')}")
    return problems


def pairs(seconds: float) -> int:
    """Serial/process grid pairs that fill ``seconds``; at least two."""
    return max(2, round(seconds / PAIR_SECONDS))


def plan(seed: int, pair_count: int) -> Dict[str, Any]:
    """Backends and cell seeds of the warm-up, the grids and the shared cell."""
    base = Random(seed).randrange(10**6, 10**9)
    slots = iter(range(10**4))

    def cell(chip: str) -> List[Any]:
        return [chip, base + 100 * next(slots)]

    return {
        "warm": [cell(chip) for chip in CHIPS],
        "grids": [
            [backend, [cell(chip) for chip in CHIPS for _ in range(SEEDS_PER_CHIP)]]
            for _ in range(pair_count)
            for backend in BACKENDS
        ],
        "check": cell(CHIPS[0]),
    }


def run(ctx: Context) -> Outcome:
    outcome = Outcome()
    plan_file = ctx.path("plan.json")
    plan_file.write_text(json.dumps(plan(ctx.seed, pairs(ctx.seconds))))
    span_file = ctx.path("sweep.spans.json")
    args = ["sweep", "--plan", str(plan_file)] + (["--spans", str(span_file)] if ctx.trace else [])
    _, report, error = run_child(args, ctx.path("sweep.json"))
    if report is None:
        outcome.attempted += 1
        outcome.fail(f"sweep process failed: {error}")
        return outcome
    grids = report["grids"]
    for grid in grids:
        for cell in grid["cells"]:
            outcome.attempted += 1
            if cell["failures"]:
                outcome.fail(f"{grid['backend']} {cell['name']}: {'; '.join(cell['failures'])}")
    outcome.attempted += 1
    digests = report["shared_cell"]
    if None in digests.values() or len(set(digests.values())) != 1:
        outcome.fail(f"shared cell differs between backends: {digests}")

    def walls(backend: str, traced: Optional[bool] = None) -> List[float]:
        return [
            g["wall_s"] for g in grids if g["backend"] == backend and traced in (None, g["traced"])
        ]

    cells_per_grid = len(CHIPS) * SEEDS_PER_CHIP
    setup_s = stats.median(report["setup_s"])
    outcome.end_to_end = {
        "setup_s": setup_s,
        "ops_per_s": sum(len(g["cells"]) for g in grids) / sum(g["wall_s"] for g in grids),
        "op_p50_ms": 1e3 * stats.median(
            [c["elapsed_s"] for g in grids if g["backend"] == "serial" and not g["traced"] for c in g["cells"]]
        ),
    }
    outcome.named["setup_s"] = (
        setup_s, "s", f"cold warm-up, one cell per chip, n={len(report['setup_s'])}"
    )
    # A traced run times the serial backend on its untraced grid only.
    for backend, traced in (("serial", False), ("process", None)):
        backend_walls = walls(backend, traced)
        outcome.named[f"sweep_{backend}_cells_per_s"] = (
            stats.median([cells_per_grid / w for w in backend_walls]), "1/s",
            f"8-cell grid, n={len(backend_walls)} grids",
        )
    outcome.named["sweep_peak_rss_mb"] = (
        report["peak_rss_mb"], "MB", "largest resident set of the sweep process or a pool worker"
    )

    if ctx.trace:
        loaded, extra_counters = spans.load(span_file)
        pool = [s for s in loaded if s.name == "backends.run_process"]
        layer_spans = [s for s in loaded if s.name != "backends.run_process"]
        untraced = stats.median(walls("serial", False))
        traced = stats.median(walls("serial", True))
        extra = {
            **layers.import_breakdown(),
            "backends.run_process.wall_s": sum(s.duration for s in pool),
            "backends.worker_busy_frac": (
                sum(s.attrs["busy_s"] for s in pool)
                / sum(s.attrs["workers"] * s.duration for s in pool)
            ),
            "backends.parallel_efficiency": untraced / (2 * stats.median(walls("process"))),
            "trace.overhead_pct": 100.0 * (traced - untraced) / untraced,
            "trace.unattributed_s": (
                report["traced_setup_s"] + sum(walls("serial", True))
                - layers.total_self_s(layer_spans)
            ),
        }
        outcome.layers = layers.layer_metrics(loaded, extra_counters["counters"], extra)
        outcome.layer_notes.extend(layers.span_table(layer_spans))
        outcome.layer_notes.append(
            f"layer self times from the traced cold warm-up ({report['traced_setup_s']:.2f} s) "
            f"and the traced serial grid; backends from the "
            f"{len(pool)} process grid(s), parent side; traced serial grid "
            f"{traced:.2f} s vs untraced {untraced:.2f} s"
        )
    return outcome
