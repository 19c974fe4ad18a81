"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload campaign-sweep --seed 1 --seconds 32 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones (plus the tracing overhead).  A human-readable report comes first;
the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
0 whenever the workload ran to the end, even with failed operations
(they are counted); it is 2 when the program under test is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import shutil
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))

from perfbench import campaign_sweep, layers, verify_mix  # noqa: E402
from perfbench.common import SRC, Context, Outcome, fresh_work_dir  # noqa: E402

WORKLOADS = {
    "campaign-sweep": campaign_sweep.run,
    "verify-mix": verify_mix.run,
}

END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms"}


def environment() -> str:
    import numpy
    import scipy
    from repro.pipeline.artifacts import current_commit

    return (
        f"commit {current_commit()[:12]}, python {platform.python_version()}, "
        f"numpy {numpy.__version__}, scipy {scipy.__version__}, "
        f"nproc {len(os.sched_getaffinity(0))}"
    )


def report(ctx: Context, outcome: Outcome) -> None:
    print(f"# perfbench {ctx.workload} seed={ctx.seed} seconds={ctx.seconds:g} trace={int(ctx.trace)}")
    print(f"# {environment()}")
    print(f"# operations: {outcome.attempted} attempted, {outcome.failed} failed")
    for problem in outcome.problems[:20]:
        print(f"#   FAILED {problem}")
    for name, (value, unit, note) in outcome.named.items():
        print(f"{name:34s} {value:12.4f} {unit:5s}  {note}")
    if ctx.trace:
        for name, value in outcome.layers.items():
            print(f"{name:50s} {value:14.6f} {layers.UNITS[name]}")
        for note in layers.ratio_notes(outcome.layers) + outcome.layer_notes:
            print(f"# {note}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: the program under test is missing ({SRC / 'repro'})", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))  # the verify-mix generator is a repro.service client
    work = fresh_work_dir(args.workload)
    ctx = Context(args.workload, args.seed, args.seconds, bool(args.trace), work)
    try:
        outcome = WORKLOADS[args.workload](ctx)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    report(ctx, outcome)
    if args.trace:
        metrics = {name: {"value": value, "unit": layers.UNITS[name]} for name, value in outcome.layers.items()}
    else:
        metrics = {
            name: {"value": outcome.end_to_end[name], "unit": unit}
            for name, unit in END_TO_END_UNITS.items()
        }
    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
