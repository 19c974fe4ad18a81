"""Command-line interface for the reproduction.

Registry-driven: every paper experiment (and the extra campaign scenarios)
is a named :class:`repro.core.spec.ScenarioSpec` in
:data:`repro.pipeline.DEFAULT_REGISTRY`, and the CLI resolves names through
one :class:`repro.pipeline.ExperimentRunner`::

    python -m repro list                      # what can run
    python -m repro run fig5 --quick          # one scenario by name
    python -m repro run my_spec.json          # ... or from a spec file
    python -m repro sweep fig3 fig5 fig6      # batched, shared caches
    python -m repro sweep fig5/chip1-active --grid-seeds 1 2 3 \
        --backend process --workers 2         # cartesian grid, process pool
    python -m repro sweep fig2 fig3 fig5 fig6 robustness table1 table2 --quick

``run`` prints one scenario's text report; ``sweep`` prints each cell's
report followed by a one-line summary.  ``--seed`` overrides a scenario's
default seed and ``--json <path>`` writes the machine-readable result
artifact (spec, scalars, provenance, report), so sweeps are scriptable
without pytest; ``--save <path>`` additionally persists the arrays to a
sibling ``.npz``.

``--store DIR`` memoizes every completed cell in a content-addressed
result store keyed by (spec hash, code version); adding ``--resume``
serves already-stored cells from disk instead of recomputing, making
interrupted sweeps resumable::

    python -m repro sweep fig6/chip1 --grid-seeds 1 2 3 \
        --store results/ --resume
    python -m repro store stats results/      # also: gc, verify

Sweeps run under a supervision policy (see
:mod:`repro.pipeline.faults`): ``--timeout`` bounds each cell's wall
clock (a hung worker is killed and replaced), ``--retries``/
``--retry-backoff`` re-run transiently failed cells (timeouts, worker
crashes) with deterministic exponential backoff, and
``--on-failure raise`` aborts on the first cell that exhausts its
attempts instead of recording it as FAILED::

    python -m repro sweep fig2 --grid-seeds 1 2 3 --timeout 120 --retries 2

``serve`` exposes the same scenarios as an HTTP detection service (see
:mod:`repro.service`): PoW-metered ``/verify``/``/issue`` endpoints,
HMAC-signed transcripts, an append-only hash-chained operation ledger,
and the result store as a response cache.  ``serve ledger verify``
integrity-checks the ledger offline::

    python -m repro serve --port 8731 --data-dir service-data \
        --difficulty 12 --workers 4
    python -m repro serve ledger verify --data-dir service-data
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from typing import List, Optional

from repro.core.config import QUICK_CYCLES, QUICK_REPETITIONS  # noqa: F401 (re-export)
from repro.pipeline import faults
from repro.pipeline.registry import DEFAULT_REGISTRY, RunOptions, SpecGrid
from repro.pipeline.runner import ExperimentRunner
from repro.pipeline.store import ResultStore


def _add_scenario_options(parser: argparse.ArgumentParser) -> None:
    """Options shared by every scenario-running sub-command."""
    parser.add_argument(
        "--cycles",
        type=int,
        default=None,
        help="clock cycles per correlation (default: the paper's 300,000)",
    )
    parser.add_argument(
        "--repetitions",
        type=int,
        default=None,
        help="repetitions for the Fig. 6 campaign (default: the paper's 100)",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="reduced acquisition length and noise for a fast demonstration run",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=None,
        help="override the scenario's default seed",
    )
    parser.add_argument(
        "--json",
        dest="json_path",
        default=None,
        metavar="PATH",
        help="write the machine-readable result artifact (JSON) to PATH",
    )
    parser.add_argument(
        "--save",
        dest="save_path",
        default=None,
        metavar="PATH",
        help="save the full result artifact (JSON + .npz arrays) under PATH",
    )
    parser.add_argument(
        "--store",
        dest="store_dir",
        default=None,
        metavar="DIR",
        help=(
            "memoize completed cells in a content-addressed result store "
            "at DIR, keyed by (spec hash, code version)"
        ),
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help=(
            "serve cells already present in --store from disk instead of "
            "recomputing them (failed cells always re-execute)"
        ),
    )


def build_parser() -> argparse.ArgumentParser:
    """Build the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Clock-Modulation Based Watermark for Protection of "
            "Embedded Processors' (DATE 2014): regenerate the paper's tables and "
            "figures, or run any registered scenario."
        ),
    )
    subparsers = parser.add_subparsers(dest="experiment", required=True, metavar="command")

    list_parser = subparsers.add_parser(
        "list", help="list every registered scenario"
    )
    list_parser.add_argument(
        "--json",
        dest="json_path",
        default=None,
        metavar="PATH",
        help="write the scenario listing as JSON to PATH",
    )

    run_parser = subparsers.add_parser(
        "run", help="run one scenario by registry name or from a spec JSON file"
    )
    run_parser.add_argument(
        "scenario", help="registry name (see 'list') or path to a spec .json"
    )
    _add_scenario_options(run_parser)

    sweep_parser = subparsers.add_parser(
        "sweep",
        help="run several scenarios through one runner (shared chips and caches)",
    )
    sweep_parser.add_argument(
        "scenarios",
        nargs="+",
        help="registry names and/or spec .json paths, in execution order",
    )
    _add_scenario_options(sweep_parser)
    sweep_parser.add_argument(
        "--backend",
        choices=("serial", "process"),
        default="serial",
        help="execution backend: in-process serial (default) or a process pool",
    )
    sweep_parser.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="worker processes for --backend process (default: one per scenario, capped at the CPU count)",
    )
    sweep_parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "per-cell wall-clock budget; a hung cell is timed out (and its "
            "worker killed and replaced on --backend process) instead of "
            "stalling the sweep"
        ),
    )
    sweep_parser.add_argument(
        "--retries",
        type=int,
        default=0,
        metavar="N",
        help=(
            "extra attempts for transiently failed cells (timeouts, worker "
            "crashes); deterministic in-cell exceptions never retry "
            "(default: 0)"
        ),
    )
    sweep_parser.add_argument(
        "--retry-backoff",
        type=float,
        default=0.1,
        metavar="SECONDS",
        help=(
            "base delay before a retry, doubled per attempt with "
            "deterministic jitter (default: 0.1)"
        ),
    )
    sweep_parser.add_argument(
        "--on-failure",
        choices=faults.ON_FAILURE_CHOICES,
        default=faults.ON_FAILURE_RECORD,
        help=(
            "record: a cell that exhausts its attempts becomes a FAILED "
            "result and the sweep continues (default); raise: abort the "
            "sweep on the first such cell (completed cells are already in "
            "--store)"
        ),
    )
    sweep_parser.add_argument(
        "--grid-chips",
        nargs="+",
        default=None,
        metavar="CHIP",
        help="expand each scenario across these chips (cartesian grid axis)",
    )
    sweep_parser.add_argument(
        "--grid-noise-scales",
        nargs="+",
        type=float,
        default=None,
        metavar="SCALE",
        help="expand across measurement-noise scale factors (1.0 = the bench as specified)",
    )
    sweep_parser.add_argument(
        "--grid-lengths",
        nargs="+",
        type=int,
        default=None,
        metavar="CYCLES",
        help="expand across acquisition lengths (cycles per correlation)",
    )
    sweep_parser.add_argument(
        "--grid-seeds",
        nargs="+",
        type=int,
        default=None,
        metavar="SEED",
        help="expand across seeds",
    )

    store_parser = subparsers.add_parser(
        "store",
        help="inspect or maintain a content-addressed result store",
    )
    store_parser.add_argument(
        "action",
        choices=("stats", "gc", "verify"),
        help=(
            "stats: entry counts and size; gc: drop stale/corrupt entries; "
            "verify: integrity-check every entry (exit 1 on problems)"
        ),
    )
    store_parser.add_argument("dir", help="the store directory")

    serve_parser = subparsers.add_parser(
        "serve",
        help="run the HTTP detection service (see also: serve ledger verify)",
    )
    serve_parser.add_argument(
        "maintenance",
        nargs="*",
        metavar="MAINTENANCE",
        help="offline maintenance instead of serving: 'ledger verify'",
    )
    serve_parser.add_argument(
        "--host", default="127.0.0.1", help="bind address (default: 127.0.0.1)"
    )
    serve_parser.add_argument(
        "--port",
        type=int,
        default=8731,
        help="TCP port; 0 binds an ephemeral port (default: 8731)",
    )
    serve_parser.add_argument(
        "--data-dir",
        default="service-data",
        metavar="DIR",
        help=(
            "service state root: server key, commitment salt, and the "
            "default store/ledger locations (default: service-data)"
        ),
    )
    serve_parser.add_argument(
        "--store",
        dest="store_dir",
        default=None,
        metavar="DIR",
        help="result store (response cache) directory (default: DATA_DIR/store)",
    )
    serve_parser.add_argument(
        "--ledger",
        dest="ledger_path",
        default=None,
        metavar="PATH",
        help="operation ledger file (default: DATA_DIR/ledger.jsonl)",
    )
    serve_parser.add_argument(
        "--difficulty",
        type=int,
        default=12,
        metavar="BITS",
        help=(
            "PoW leading-zero bits a request ticket must show; "
            "0 disables the gate (default: 12)"
        ),
    )
    serve_parser.add_argument(
        "--workers",
        type=int,
        default=4,
        metavar="N",
        help="maximum concurrent request-handler threads (default: 4)",
    )
    return parser


def _run_options(args: argparse.Namespace) -> RunOptions:
    return RunOptions(
        quick=args.quick,
        cycles=args.cycles,
        repetitions=args.repetitions,
        seed=args.seed,
    )


def _write_json(path: str, payload) -> None:
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _save_artifact(result, save_path: str, default_stem: str) -> None:
    """Persist an artifact, deriving a sanitized filename under directories.

    Scenario names may contain ``/`` (``"fig5/chip-1"``); when ``--save``
    points at a directory the file name comes from the result's sanitized
    ``artifact_stem`` (or ``default_stem`` for sweeps) instead of the raw
    name, so nothing lands in an unintended subdirectory.
    """
    path = pathlib.Path(save_path)
    if path.is_dir() or str(save_path).endswith(("/", "\\")):
        stem = getattr(result, "artifact_stem", default_stem)
        path = path / stem
    result.save(path)


def _print_banner(label: str, value: str) -> None:
    print("=" * 78)
    print(f"{label}: {value}")
    print("=" * 78)


def _store_for(args: argparse.Namespace) -> Optional[ResultStore]:
    """The result store the command-line options select, if any."""
    store_dir = getattr(args, "store_dir", None)
    return ResultStore(store_dir) if store_dir else None


def _print_store_summary(store: Optional[ResultStore]) -> None:
    """One line of store traffic (the CI smoke test greps for it)."""
    if store is None:
        return
    stats = store.stats()
    print(
        f"store {stats.root}: {stats.hits} hit(s), {stats.misses} miss(es), "
        f"{stats.writes} written, {stats.entries} entr(y/ies) on disk"
    )


def _cmd_list(args: argparse.Namespace) -> int:
    entries = DEFAULT_REGISTRY.entries()
    width = max(len(entry.name) for entry in entries)
    ref_width = max(len(entry.paper_ref) for entry in entries)
    for entry in entries:
        print(f"{entry.name:<{width}}  {entry.paper_ref:<{ref_width}}  {entry.title}")
    if args.json_path:
        _write_json(
            args.json_path,
            [
                {"name": e.name, "paper_ref": e.paper_ref, "title": e.title}
                for e in entries
            ],
        )
    return 0


def _resolve_all(runner: ExperimentRunner, args, names) -> List:
    """Resolve registry names and spec files, honouring the CLI options.

    Registry entries consume :class:`RunOptions` through their factories;
    specs loaded from ``.json`` files get the explicitly passed options
    applied as overrides: ``--seed``/``--repetitions`` replace the spec's
    values, ``--quick`` replaces its measurement with the quick preset,
    and a bare ``--cycles`` changes only the acquisition length while
    keeping the spec's other bench fields.
    """
    options = _run_options(args)
    specs = []
    for name in names:
        if DEFAULT_REGISTRY.has(name):
            specs.append(DEFAULT_REGISTRY.build(name, options))
        else:
            specs.append(options.apply_to(runner.resolve(name)))
    return specs


def _resolve_or_exit(
    parser: argparse.ArgumentParser,
    runner: ExperimentRunner,
    args: argparse.Namespace,
    names,
) -> List:
    """Resolve scenario arguments, reporting bad names/files as usage errors.

    Only *resolution* failures become argparse errors; failures during
    execution propagate with their full context.
    """
    try:
        return _resolve_all(runner, args, names)
    except (KeyError, ValueError, FileNotFoundError) as error:
        parser.error(str(error))


def _cmd_run(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    runner = ExperimentRunner()
    spec = _resolve_or_exit(parser, runner, args, [args.scenario])[0]
    store = _store_for(args)
    result = runner.run(spec, store=store, resume=args.resume)
    _print_banner("scenario", result.name)
    print(result.report)
    print()
    print(f"spec hash: {result.spec.spec_hash()[:12]}  elapsed: {result.provenance.elapsed_s:.2f} s")
    _print_store_summary(store)
    if args.json_path:
        _write_json(args.json_path, result.to_json_dict())
    if args.save_path:
        _save_artifact(result, args.save_path, result.spec.kind)
    return 0


def _expand_grid(parser: argparse.ArgumentParser, args: argparse.Namespace, specs):
    """Expand each resolved spec across the ``--grid-*`` axes, if any."""
    axes = {
        "chips": args.grid_chips,
        "noise_scales": args.grid_noise_scales,
        "lengths": args.grid_lengths,
        "seeds": args.grid_seeds,
    }
    if all(axis is None for axis in axes.values()):
        return specs
    expanded = []
    try:
        for spec in specs:
            expanded.extend(SpecGrid(spec).build(**axes))
    except ValueError as error:
        parser.error(str(error))
    return expanded


def _cmd_sweep(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    runner = ExperimentRunner()
    specs = _resolve_or_exit(parser, runner, args, args.scenarios)
    specs = _expand_grid(parser, args, specs)
    store = _store_for(args)
    retry = None
    if args.retries:
        retry = faults.RetryPolicy(
            max_attempts=args.retries + 1, backoff_s=args.retry_backoff
        )
    try:
        sweep = runner.run_many(
            specs,
            backend=args.backend,
            max_workers=args.workers,
            store=store,
            resume=args.resume,
            timeout=args.timeout,
            retry=retry,
            on_failure=args.on_failure,
        )
    except faults.CellFailed as failure:
        print(f"sweep aborted (--on-failure raise): {failure}", file=sys.stderr)
        _print_store_summary(store)
        return 1
    print(sweep.to_text())
    _print_store_summary(store)
    if args.json_path:
        _write_json(args.json_path, sweep.to_json_dict())
    if args.save_path:
        _save_artifact(sweep, args.save_path, "sweep")
    return 0 if sweep.ok else 1


def _cmd_store(args: argparse.Namespace) -> int:
    store = ResultStore(args.dir)
    if args.action == "stats":
        print(store.stats().to_text())
        return 0
    if args.action == "gc":
        removed, freed = store.gc()
        print(f"store {store.root}: removed {removed} file(s), freed {freed / 1e6:.2f} MB")
        return 0
    problems = store.verify()
    for problem in problems:
        print(f"PROBLEM {problem}")
    entries = store.stats().entries
    print(
        f"store {store.root}: {entries} entr(y/ies) verified, "
        f"{len(problems)} problem(s)"
    )
    return 1 if problems else 0


def _cmd_serve(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    from repro.service.ledger import Ledger
    from repro.service.server import ServiceConfig, build_server

    config = ServiceConfig(
        host=args.host,
        port=args.port,
        data_dir=args.data_dir,
        store_dir=args.store_dir,
        ledger_path=args.ledger_path,
        difficulty=args.difficulty,
        workers=args.workers,
    )
    if args.maintenance:
        if args.maintenance == ["ledger", "verify"]:
            ledger = Ledger(config.resolved_ledger_path())
            problems = ledger.verify()
            for problem in problems:
                print(f"PROBLEM {problem}")
            print(
                f"ledger {ledger.path}: {ledger.count} record(s), "
                f"{len(problems)} problem(s)"
            )
            return 1 if problems else 0
        parser.error(
            f"unknown serve maintenance command {' '.join(args.maintenance)!r}; "
            "supported: 'ledger verify'"
        )

    import logging
    import signal
    import threading

    # INFO so the cache decisions ("store hit" / "computed") land in the
    # server log -- the CI smoke job greps for them.
    logging.basicConfig(
        level=logging.INFO, format="%(asctime)s %(name)s %(message)s"
    )
    server = build_server(config)

    def request_shutdown(signum, frame) -> None:
        # shutdown() joins the serve_forever loop; calling it from the
        # signal handler's (main) thread would deadlock, so hand it off.
        threading.Thread(target=server.shutdown, daemon=True).start()

    signal.signal(signal.SIGTERM, request_shutdown)
    signal.signal(signal.SIGINT, request_shutdown)
    print(f"detection service listening on {server.url}", flush=True)
    print(
        f"data dir {config.resolved_data_dir()}  "
        f"store {config.resolved_store_dir()}  "
        f"ledger {config.resolved_ledger_path()}  "
        f"difficulty {config.difficulty}  workers {config.workers}",
        flush=True,
    )
    try:
        server.serve_forever()
    finally:
        server.server_close()
    print("graceful shutdown complete", flush=True)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)

    if getattr(args, "cycles", None) is not None and args.cycles <= 0:
        parser.error("--cycles must be positive")
    if getattr(args, "repetitions", None) is not None and args.repetitions <= 0:
        parser.error("--repetitions must be positive")
    if getattr(args, "workers", None) is not None and args.workers <= 0:
        parser.error("--workers must be positive")
    if getattr(args, "grid_lengths", None) is not None and any(
        length <= 0 for length in args.grid_lengths
    ):
        parser.error("--grid-lengths values must be positive")
    if getattr(args, "resume", False) and not getattr(args, "store_dir", None):
        parser.error("--resume requires --store DIR")
    if getattr(args, "timeout", None) is not None and args.timeout <= 0:
        parser.error("--timeout must be positive")
    if getattr(args, "retries", 0) and args.retries < 0:
        parser.error("--retries must be non-negative")
    if getattr(args, "retry_backoff", None) is not None and args.retry_backoff < 0:
        parser.error("--retry-backoff must be non-negative")

    try:
        if args.experiment == "list":
            return _cmd_list(args)
        if args.experiment == "run":
            return _cmd_run(parser, args)
        if args.experiment == "sweep":
            return _cmd_sweep(parser, args)
        if args.experiment == "store":
            return _cmd_store(args)
        return _cmd_serve(parser, args)
    except BrokenPipeError:
        # stdout was piped into something like `head` that exited early.
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
