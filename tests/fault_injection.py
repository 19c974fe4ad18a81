"""Fault injection for the sweep-supervision tests.

``with inject_faults(Fault("fig2[seed=1]", "kill", (1,))): ...`` makes a
named sweep cell misbehave on chosen attempts, on either backend, by
patching two library names for the duration of the block:

* ``repro.pipeline.backends._attempt`` runs one attempt of one cell on
  either backend and is the one call that knows the attempt number.  A
  ``kill`` in a forked pool worker ends that worker with
  ``os._exit(KILL_EXIT_CODE)``, a real death the pool must notice.  A
  ``kill`` in the process that installed the harness (the serial drain,
  or the pool's serial fallback) returns ``faults.crash_failure``, the
  failure the pool records for a dead worker, because ending that process
  would end the test run.
* ``repro.pipeline.runner.Pipeline.execute`` fires ``raise`` (a
  ``faults.TransientError``) and ``hang`` (``time.sleep``) inside the
  attempt's ``try`` and SIGALRM deadline, so failure classification and
  the serial timeout run exactly as for a stage that fails by itself.

Pool workers are forked, so they inherit both patches.  A fault fires on
every attempt it names, so a fault plan reproduces exactly; an attempt
that no fault names runs the unmodified pipeline.
"""

from __future__ import annotations

import contextlib
import os
import time
from typing import Iterator, List, NamedTuple, Optional, Tuple

from repro.pipeline import backends, faults
from repro.pipeline.runner import Pipeline

#: Exit status of a worker ended by a ``kill`` fault.
KILL_EXIT_CODE = 173

MODES = ("raise", "hang", "kill")


class Fault(NamedTuple):
    """Make ``cell`` misbehave on chosen attempts."""

    #: The cell's name, e.g. ``"fig2[seed=1]"``.
    cell: str
    #: ``"raise"``, ``"hang"`` or ``"kill"``.
    mode: str
    #: 1-based attempts the fault fires on; empty means every attempt.
    attempts: Tuple[int, ...] = ()
    #: How long a ``hang`` sleeps.
    hang_s: float = 3600.0


@contextlib.contextmanager
def inject_faults(*plan: Fault) -> Iterator[None]:
    """Install ``plan`` for the duration of the block (see the module doc)."""
    for fault in plan:
        if fault.mode not in MODES:
            raise ValueError(f"unknown fault mode {fault.mode!r}")
    installer = os.getpid()
    run_attempt = backends._attempt
    execute = Pipeline.execute
    #: The raise/hang fault of the attempt running in this process.
    armed: List[Fault] = []

    def fault_for(cell: str, attempt: int) -> Optional[Fault]:
        for fault in plan:
            if fault.cell == cell and (not fault.attempts or attempt in fault.attempts):
                return fault
        return None

    def attempt_with_faults(spec, attempt, runner, timeout_s=None):
        fault = fault_for(spec.name or spec.kind, attempt)
        if fault is not None and fault.mode == "kill":
            if os.getpid() != installer:
                os._exit(KILL_EXIT_CODE)
            return faults.crash_failure(
                f"injected worker kill of cell {fault.cell} on attempt {attempt}"
            )
        armed[:] = [] if fault is None else [fault]
        try:
            return run_attempt(spec, attempt, runner, timeout_s)
        finally:
            armed.clear()

    def execute_with_faults(self, runner=None):
        if armed:
            fault = armed.pop()
            if fault.mode == "raise":
                raise faults.TransientError(f"injected failure of cell {fault.cell}")
            time.sleep(fault.hang_s)
        return execute(self, runner)

    backends._attempt = attempt_with_faults
    Pipeline.execute = execute_with_faults
    try:
        yield
    finally:
        backends._attempt = run_attempt
        Pipeline.execute = execute
