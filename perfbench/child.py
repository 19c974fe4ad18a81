"""Subprocess entry points of the benchmark.

``python3 -m perfbench.child sweep --plan P --out F [--spans S]``
    warm up from cold caches (several times, the last warm-up traced when
    spans are asked for), then run Fig. 6 grids through
    ``ExperimentRunner.run_many`` on the backends the plan names.
``python3 -m perfbench.child serve --data-dir D --ready R [--spans S]``
    serve the detection service until SIGTERM; SIGUSR1 turns tracing on.

Each writes its results as JSON to a file the parent names; spans (when
asked for) are written once, when the child's work is done.  The parent
runs them from the checkout root with ``src`` and the root on ``PYTHONPATH``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import pathlib
import resource
import signal
import threading
import time
from typing import Any, Dict, List

from perfbench import probes, spans
from perfbench.common import write_atomic
from perfbench.spans import Tracer


def _write_json(path: str, document: Dict[str, Any]) -> None:
    write_atomic(pathlib.Path(path), json.dumps(document))


def result_digest(result) -> str:
    """sha256 over a result's scalars, report and every array's bytes."""
    import numpy as np

    digest = hashlib.sha256()
    digest.update(json.dumps(result.scalars, sort_keys=True, default=repr).encode())
    digest.update(result.report.encode())
    for name in sorted(result.arrays):
        array = np.ascontiguousarray(result.arrays[name])
        digest.update(f"{name}|{array.dtype.str}|{array.shape}".encode())
        digest.update(array.tobytes())
    return digest.hexdigest()


def cold_caches() -> None:
    """Drop the program's module-level caches, as a fresh process starts."""
    from repro.core.lfsr import clear_sequence_cache
    from repro.soc.chip import clear_background_template_cache
    from repro.soc.cpu import clear_m0_window_cache

    clear_sequence_cache()
    clear_m0_window_cache()
    clear_background_template_cache()


def sweep(args: argparse.Namespace) -> None:
    from perfbench.campaign_sweep import SETUPS, cell_spec, cell_checks

    plan = json.loads(pathlib.Path(args.plan).read_text())
    from repro.pipeline.runner import ExperimentRunner

    # Layer spans come from the last warm-up and the serial grids.  On
    # process grids the work runs in forked workers, so a second tracer
    # records only the parent-side pool span there, and the workers
    # inherit a disabled layer tracer.
    layer_tracer, pool_tracer = Tracer(enabled=False), Tracer(enabled=False)
    if args.spans:
        probes.install(layer_tracer, ("layers",))
        probes.install(pool_tracer, ("backends",))
    counters: Dict[str, int] = {}

    def add_counters(before: Dict[str, int], runner) -> None:
        for key, value in probes.counter_delta(before, probes.cache_counters(runner)).items():
            counters[key] = counters.get(key, 0) + value

    # Each warm-up starts from cold caches and a fresh runner, so it builds
    # the chips (RTL stepping, M0 window) and fills the templates again.  A
    # traced run adds one more warm-up, traced, to carry that cold work.
    setup_times: List[float] = []
    traced_setup_s = 0.0
    for index in range(SETUPS + bool(args.spans)):
        cold_caches()
        runner = ExperimentRunner()
        traced = index == SETUPS
        layer_tracer.enabled = traced
        before = probes.cache_counters(runner)
        start = time.perf_counter()
        warm = runner.run_many([cell_spec(c, s) for c, s in plan["warm"]], backend="serial")
        wall = time.perf_counter() - start
        layer_tracer.enabled = False
        if not warm.ok:
            raise SystemExit(f"warm-up failed: {[cell.error for cell in warm.failures]}")
        if traced:
            add_counters(before, runner)
            traced_setup_s = wall
        else:
            setup_times.append(wall)

    grids: List[Dict[str, Any]] = []
    serial_grids = 0
    for backend, cells in plan["grids"]:
        serial = backend == "serial"
        # A traced run keeps its first serial grid untraced, as the
        # reference for the tracing overhead.
        traced = bool(args.spans) and (serial_grids > 0 or not serial)
        serial_grids += serial
        layer_tracer.enabled = traced and serial
        pool_tracer.enabled = traced and not serial
        before = probes.cache_counters(runner)
        start = time.perf_counter()
        result = runner.run_many(
            [cell_spec(c, s) for c, s in cells], backend=backend, max_workers=2
        )
        wall = time.perf_counter() - start
        layer_tracer.enabled = pool_tracer.enabled = False
        if traced and serial:
            add_counters(before, runner)
        grids.append(
            {
                "backend": backend,
                "wall_s": wall,
                "traced": traced,
                "cells": [
                    {
                        "name": cell.name,
                        "elapsed_s": cell.provenance.elapsed_s,
                        "failures": cell_checks(cell),
                    }
                    for cell in result
                ],
            }
        )
    chip, seed = plan["check"]
    shared_spec = cell_spec(chip, seed).with_overrides(repetitions=10)
    shared = {}
    for backend in ("serial", "process"):
        cell = runner.run_many([shared_spec], backend=backend, max_workers=2)[0]
        shared[backend] = result_digest(cell) if cell.ok else None
    if args.spans:
        layer_tracer.spans = spans.combine([layer_tracer.spans, pool_tracer.spans])
        layer_tracer.dump(args.spans, {"counters": counters})
    usage_self = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    usage_children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    _write_json(
        args.out,
        {
            "setup_s": setup_times,
            "traced_setup_s": traced_setup_s,
            "grids": grids,
            "shared_cell": shared,
            "peak_rss_mb": max(usage_self, usage_children) / 1024.0,
        },
    )


def serve(args: argparse.Namespace) -> None:
    from perfbench.verify_mix import DIFFICULTY
    from repro.service.server import ServiceConfig, build_server

    tracer = Tracer(enabled=False)
    if args.spans:
        probes.install(tracer, ("layers", "service"))
    server = build_server(
        ServiceConfig(host="127.0.0.1", port=0, data_dir=args.data_dir, difficulty=DIFFICULTY)
    )
    runner = server.service.runner
    stop = threading.Event()
    before: Dict[str, int] = {}

    def start_tracing(signum, frame) -> None:
        before.update(probes.cache_counters(runner))
        tracer.enabled = bool(args.spans)

    signal.signal(signal.SIGTERM, lambda signum, frame: stop.set())
    signal.signal(signal.SIGUSR1, start_tracing)
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.1}, daemon=True
    )
    thread.start()
    try:
        write_atomic(pathlib.Path(args.ready), server.url)
        while not stop.wait(0.2):
            pass
    finally:
        server.shutdown()
        server.server_close()
        thread.join(10)
    tracer.enabled = False
    if args.spans:
        counters = probes.counter_delta(before, probes.cache_counters(runner)) if before else {}
        tracer.dump(args.spans, {"counters": counters})


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("sweep")
    p.add_argument("--plan", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--spans")
    p = sub.add_parser("serve")
    p.add_argument("--data-dir", required=True)
    p.add_argument("--ready", required=True)
    p.add_argument("--spans")
    args = parser.parse_args()
    {"sweep": sweep, "serve": serve}[args.command](args)


if __name__ == "__main__":
    main()
