"""Execution backends for :meth:`repro.pipeline.runner.ExperimentRunner.run_many`.

Two backends execute a resolved list of :class:`ScenarioSpec` cells:

``serial`` (the default)
    The cells run in submission order inside the calling process, through
    the caller's runner (shared chip provider, warm module-level caches).
    Per-cell wall-clock timeouts use a SIGALRM deadline (main thread
    only).

``process``
    The cells are dispatched to a supervised pool of worker processes.
    Each worker runs one cell at a time over its own pipe, builds one
    :class:`ExperimentRunner` on first use (on fork platforms it adopts a
    copy-on-write snapshot of the sweep runner, inheriting warm chips and
    templates), and ships results back through
    :meth:`ScenarioResult.to_wire` -- the same JSON + ``.npz``
    serialization as ``save``/``load``, so scalars, arrays and reports
    stay bit-identical to the serial backend while the in-memory
    ``payload`` is dropped.

Both backends drain one :class:`_Sweep` -- the specs, their result
slots, a queue of ``(index, attempt, ready_at)`` attempts and per-cell
worker-crash counts -- so the supervision policy
(:class:`repro.pipeline.faults.Supervision`) is written once:

* every failure is classified (see :data:`faults.FAILURE_KINDS`) and
  captured per cell, so one bad cell never kills the sweep;
* transient failures retry with deterministic backoff; a retry goes to
  the front of the queue, so the serial backend finishes a cell before it
  starts the next, and re-executes the same frozen spec bit-identically;
* a cell over its wall-clock budget is interrupted (serial) or has its
  worker killed and replaced (process);
* a cell that kills its worker :data:`QUARANTINE_AFTER_CRASHES` times is
  quarantined, and a pool that loses :data:`SERIAL_FALLBACK_CRASHES`
  workers requeues its in-flight attempts and drains the rest serially;
* ``on_result`` fires as each cell settles, which is how ``run_many``
  flushes completed cells to the result store incrementally;
* :class:`faults.SweepInterrupted` records running attempts and queued
  cells as ``cancelled``, never as failures.
"""

from __future__ import annotations

import contextlib
import dataclasses
import logging
import math
import multiprocessing
import multiprocessing.connection
import os
import signal
import threading
import time
import traceback
from collections import deque
from typing import (
    Callable,
    Deque,
    Dict,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
    cast,
)

from repro.core.spec import ScenarioSpec
from repro.pipeline import faults
from repro.pipeline.artifacts import Provenance, ScenarioResult

logger = logging.getLogger(__name__)

#: Concrete execution backends.
BACKENDS = ("serial", "process")

#: A cell whose worker dies this many times is quarantined -- recorded as
#: FAILED (``worker-crash``) and never resubmitted -- instead of being
#: allowed to keep killing fresh workers.
QUARANTINE_AFTER_CRASHES = 2

#: Worker deaths (across all cells) after which the process pool is
#: declared unsound and the rest of the sweep drains serially.
SERIAL_FALLBACK_CRASHES = 5

#: Supervisor idle tick: the upper bound on how late a deadline or a
#: backed-off retry is noticed (messages from workers wake it instantly).
_SUPERVISOR_TICK_S = 0.2

#: The per-cell result callback: ``on_result(index, result)``.
OnResult = Optional[Callable[[int, ScenarioResult], None]]


def _cell_name(spec: ScenarioSpec) -> str:
    return spec.name or spec.kind


def failed_result(
    spec: ScenarioSpec,
    error: str,
    kind: str = faults.EXCEPTION,
    attempts: int = 1,
) -> ScenarioResult:
    """The placeholder artifact recording one failed sweep cell."""
    return ScenarioResult(
        spec=spec,
        provenance=Provenance(
            spec_hash=spec.spec_hash(), elapsed_s=0.0, attempts=attempts
        ),
        report=(
            f"scenario {_cell_name(spec)} FAILED: {kind} "
            f"after {attempts} attempt(s)\n{error}"
        ),
        error=error,
        error_kind=kind,
    )


def cancelled_result(spec: ScenarioSpec, attempts: int = 0) -> ScenarioResult:
    """The artifact recording a cell the sweep never finished.

    ``attempts`` counts the attempts *started* before the interrupt (0
    for a cell that was still queued).  Distinct from a failure: the cell
    did not break, the sweep stopped -- its report says CANCELLED, not
    FAILED, and resuming against a result store re-executes exactly
    these cells.
    """
    error = (
        "sweep interrupted before this cell finished; "
        "resume with a result store to execute it"
    )
    return ScenarioResult(
        spec=spec,
        provenance=Provenance(
            spec_hash=spec.spec_hash(), elapsed_s=0.0, attempts=attempts
        ),
        report=f"scenario {_cell_name(spec)} CANCELLED: {error}",
        error=error,
        error_kind=faults.CANCELLED,
    )


def available_cpus() -> int:
    """CPUs this process may actually schedule onto (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def default_max_workers(num_specs: int) -> int:
    """Worker count when the caller does not pin one."""
    return max(1, min(num_specs, available_cpus()))


# -- the sweep both backends drain ---------------------------------------------


class _Sweep:
    """One sweep's cells, attempt queue and supervision policy.

    A backend takes attempts with :meth:`start` and reports each outcome
    through :meth:`succeed` or :meth:`fail`; :meth:`cancel` closes the
    sweep on an interrupt.  ``running`` mirrors the attempts a backend has
    started and not yet reported, so a cancel records them as started.
    """

    def __init__(
        self,
        specs: Sequence[ScenarioSpec],
        sup: faults.Supervision,
        on_result: OnResult,
    ) -> None:
        self.specs = list(specs)
        self.sup = sup
        self.on_result = on_result
        self.results: List[Optional[ScenarioResult]] = [None] * len(self.specs)
        #: (index, attempt, ready_at) attempts awaiting a start; ``ready_at``
        #: (monotonic seconds) gates a backed-off retry.
        self.queue: Deque[Tuple[int, int, float]] = deque(
            (index, 1, 0.0) for index in range(len(self.specs))
        )
        #: index -> attempt started and not yet reported
        self.running: Dict[int, int] = {}
        #: index -> worker crashes caused by that cell
        self.crashes: Dict[int, int] = {}

    def unfinished(self) -> int:
        return sum(result is None for result in self.results)

    def start(self, now: float) -> Optional[Tuple[int, int]]:
        """Begin the first queued attempt whose backoff has elapsed by ``now``."""
        for position, (index, attempt, ready_at) in enumerate(self.queue):
            if ready_at <= now:
                self.running[index] = attempt
                del self.queue[position]
                return index, attempt
        return None

    def requeue(self, index: int, attempt: int) -> None:
        """Put a started attempt back at the front, to start again as is."""
        self.queue.appendleft((index, attempt, 0.0))
        del self.running[index]

    def succeed(self, index: int, attempt: int, result: ScenarioResult) -> None:
        self.running.pop(index, None)
        result.provenance = dataclasses.replace(result.provenance, attempts=attempt)
        self.settle(index, result)

    def fail(self, index: int, attempt: int, failure: faults.CellFailure) -> None:
        """Quarantine the cell, queue a backed-off retry, or settle it FAILED."""
        self.running.pop(index, None)
        spec = self.specs[index]
        if failure.kind == faults.WORKER_CRASH:
            crashes = self.crashes[index] = self.crashes.get(index, 0) + 1
            if crashes >= QUARANTINE_AFTER_CRASHES:
                self.settle(
                    index,
                    failed_result(
                        spec,
                        f"{failure.message}\nquarantined after {crashes} worker "
                        "crash(es); not retried",
                        kind=faults.WORKER_CRASH,
                        attempts=attempt,
                    ),
                )
                return
        if self.sup.retry.should_retry(failure, attempt):
            delay = self.sup.retry.backoff_for(attempt, key=spec.spec_hash())
            logger.warning(
                "cell %s attempt %d failed (%s); retrying in %.2f s",
                _cell_name(spec), attempt, failure.kind, delay,
            )
            self.queue.appendleft((index, attempt + 1, time.monotonic() + delay))
            return
        self.settle(
            index,
            failed_result(spec, failure.message, kind=failure.kind, attempts=attempt),
        )

    def settle(self, index: int, result: ScenarioResult) -> None:
        """Record a cell's final result; raise under ``on_failure="raise"``."""
        self.results[index] = result
        if self.on_result is not None:
            self.on_result(index, result)
        if (
            not result.ok
            and result.error_kind != faults.CANCELLED
            and self.sup.on_failure == faults.ON_FAILURE_RAISE
        ):
            raise faults.CellFailed(result)

    def cancel(self) -> None:
        """Record running attempts and queued cells as cancelled."""
        started = {index: attempt - 1 for index, attempt, _ in self.queue}
        started.update(self.running)
        self.queue.clear()
        self.running.clear()
        for index, result in enumerate(self.results):
            if result is None:
                self.settle(
                    index, cancelled_result(self.specs[index], started.get(index, 0))
                )

    def run(self, drain: Callable[[], None]) -> List[ScenarioResult]:
        """Run a backend's ``drain`` until every cell settles or is cancelled."""
        try:
            drain()
        except faults.SweepInterrupted as stop:
            logger.warning(
                "%s; cancelling %d unfinished cell(s)", stop, self.unfinished()
            )
            self.cancel()
        # The backend or ``cancel`` settled every slot.
        return cast(List[ScenarioResult], self.results)


# -- serial backend ------------------------------------------------------------


_warned_no_alarm = False


@contextlib.contextmanager
def _cell_timeout(timeout_s: Optional[float]) -> Iterator[None]:
    """Arm a SIGALRM deadline raising :class:`faults.CellTimeout`.

    Only usable on the main thread of a POSIX process; elsewhere the
    timeout is skipped with a (one-time) warning rather than silently
    promising supervision it cannot deliver.
    """
    global _warned_no_alarm
    usable = (
        timeout_s is not None
        and hasattr(signal, "SIGALRM")
        and threading.current_thread() is threading.main_thread()
    )
    if not usable:
        if timeout_s is not None and not _warned_no_alarm:
            _warned_no_alarm = True
            logger.warning(
                "serial per-cell timeout unavailable here (needs SIGALRM on "
                "the main thread); cells run without a deadline"
            )
        yield
        return

    assert timeout_s is not None  # implied by ``usable``; narrows for mypy

    def on_alarm(signum, frame):
        raise faults.CellTimeout()

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, timeout_s)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def _attempt(
    spec: ScenarioSpec,
    attempt: int,
    runner,
    timeout_s: Optional[float] = None,
) -> Union[ScenarioResult, faults.CellFailure]:
    """One attempt of one cell on either backend: its result or its failure.

    ``timeout_s`` arms the serial SIGALRM deadline (the pool enforces its
    deadlines from the parent instead).  Every attempt re-executes the
    same frozen spec; the 1-based ``attempt`` number is passed for
    wrappers such as the fault-injection harness in
    ``tests/fault_injection.py``.
    """
    from repro.pipeline.runner import Pipeline

    try:
        with _cell_timeout(timeout_s):
            result = Pipeline.from_spec(spec).execute(runner)
    except faults.CellTimeout:
        assert timeout_s is not None  # only an armed deadline raises it
        return faults.timeout_failure(timeout_s)
    except Exception as exc:
        return faults.classify_exception(exc, traceback.format_exc())
    return result


def _drain_serial(sweep: _Sweep, runner) -> None:
    """Run the sweep's queued attempts in order, in this process."""
    while sweep.queue:
        # The head always runs next: a backed-off retry is never overtaken.
        _, _, ready_at = sweep.queue[0]
        delay = ready_at - time.monotonic()
        if delay > 0:
            time.sleep(delay)
        started = sweep.start(math.inf)
        assert started is not None  # the queue is not empty
        index, attempt = started
        outcome = _attempt(sweep.specs[index], attempt, runner, sweep.sup.timeout_s)
        if isinstance(outcome, ScenarioResult):
            sweep.succeed(index, attempt, outcome)
        else:
            sweep.fail(index, attempt, outcome)


def run_serial(
    specs: Sequence[ScenarioSpec],
    runner,
    supervision: Optional[faults.Supervision] = None,
    on_result: OnResult = None,
) -> List[ScenarioResult]:
    """Execute every cell in order through the caller's runner.

    ``on_result(index, result)`` fires as each cell settles (success,
    failure, or cancellation).  A :class:`faults.SweepInterrupted` raised
    mid-sweep (see :func:`faults.graceful_shutdown`) records the running
    and queued cells as ``cancelled`` and returns the partial results
    instead of propagating.
    """
    sweep = _Sweep(specs, supervision or faults.Supervision(), on_result)
    return sweep.run(lambda: _drain_serial(sweep, runner))


# -- process backend -----------------------------------------------------------


def _pool_context():
    """Prefer ``fork`` so workers inherit warm module-level caches."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - platforms without fork
        return multiprocessing.get_context()


def _supervised_worker(conn, runner) -> None:
    """Worker body: one cell at a time over ``conn``, until ``None``/EOF.

    Exceptions never cross the pipe raw: the worker ships ``("ok", wire)``
    or ``("failed", CellFailure)``, classified as on the serial backend.
    A worker that exits mid-cell is observed by the parent as a dead
    worker (:meth:`_ProcessPool._reap`).  SIGINT is ignored -- a Ctrl-C to
    the foreground process group must interrupt only the parent's
    supervisor, not look like a spontaneous crash of every worker.
    """
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):  # pragma: no cover - exotic contexts
        pass
    from repro.pipeline.runner import ExperimentRunner

    if runner is None:
        runner = ExperimentRunner()
    while True:
        try:
            task = conn.recv()
        except (EOFError, OSError, KeyboardInterrupt):
            return
        if task is None:
            return
        spec_json, attempt = task
        spec = ScenarioSpec.from_json(spec_json)
        outcome = _attempt(spec, attempt, runner)
        if isinstance(outcome, ScenarioResult):
            message = ("ok", outcome.to_wire())
        else:
            message = ("failed", outcome)
        try:
            conn.send(message)
        except (BrokenPipeError, OSError):  # parent went away
            return


class _Task(NamedTuple):
    """One in-flight attempt of one cell on one worker."""

    index: int
    attempt: int
    #: Monotonic seconds; ``inf`` without a per-cell timeout.
    deadline: float


class _Worker:
    """A worker process, its parent-side pipe end, and its current task."""

    __slots__ = ("process", "conn", "task")

    def __init__(self, process, conn):
        self.process = process
        self.conn = conn
        self.task: Optional[_Task] = None


class _ProcessPool:
    """Drains a :class:`_Sweep` on a pool of single-cell worker processes.

    The event loop dispatches at most one attempt per worker, watches
    worker pipes and process sentinels, kills and replaces a worker whose
    attempt overruns its deadline, and reports every outcome to the sweep.
    After :data:`SERIAL_FALLBACK_CRASHES` worker deaths it requeues its
    in-flight attempts and hands the sweep to the serial drain.
    """

    def __init__(
        self,
        sweep: _Sweep,
        max_workers: int,
        runner,
    ) -> None:
        self.sweep = sweep
        self.max_workers = max_workers
        self.runner = runner
        self.context = _pool_context()
        self.crashes = 0
        self.workers: List[_Worker] = []

    def drain(self) -> None:
        sweep = self.sweep
        for _ in range(min(self.max_workers, len(sweep.specs))):
            self.workers.append(self._spawn_worker())
        try:
            while sweep.unfinished():
                self._reap()
                if self.crashes >= SERIAL_FALLBACK_CRASHES:
                    self._fall_back()
                    return
                self._dispatch()
                if sweep.unfinished():
                    self._wait()
        finally:
            self._shutdown()

    # -- workers ---------------------------------------------------------------

    def _spawn_worker(self) -> _Worker:
        parent_conn, child_conn = self.context.Pipe()
        # Under fork the runner reference crosses via copy-on-write memory
        # (nothing is pickled) and the worker inherits its warm chips;
        # other start methods rebuild a fresh runner per worker.
        runner = self.runner if self.context.get_start_method() == "fork" else None
        process = self.context.Process(
            target=_supervised_worker,
            args=(child_conn, runner),
            daemon=True,
        )
        process.start()
        child_conn.close()
        return _Worker(process, parent_conn)

    def _replace_worker(self, worker: _Worker) -> None:
        try:
            worker.conn.close()
        except OSError:  # pragma: no cover - already closed
            pass
        if worker.process.is_alive():
            worker.process.kill()
        worker.process.join(1.0)
        self.workers[self.workers.index(worker)] = self._spawn_worker()

    def _shutdown(self) -> None:
        for worker in self.workers:
            if worker.task is None and worker.process.is_alive():
                try:
                    worker.conn.send(None)  # polite: let idle workers exit
                except (BrokenPipeError, OSError):
                    pass
        for worker in self.workers:
            try:
                worker.conn.close()
            except OSError:  # pragma: no cover
                pass
            worker.process.join(0.2)
            if worker.process.is_alive():
                worker.process.kill()
                worker.process.join(1.0)

    # -- event loop ------------------------------------------------------------

    def _receive(self, worker: _Worker) -> bool:
        """Consume one buffered worker message; ``False`` at end-of-file.

        A dead worker's closed pipe reads as *ready*, so ``poll()`` alone
        cannot tell a result from a corpse: only ``recv`` can.
        """
        if not worker.conn.poll(0):
            return True
        try:
            status, payload = worker.conn.recv()
        except (EOFError, OSError):
            return False
        task, worker.task = worker.task, None
        if task is None:  # pragma: no cover - defensive
            return True
        if status == "ok":
            self.sweep.succeed(
                task.index, task.attempt, ScenarioResult.from_wire(payload)
            )
        else:
            self.sweep.fail(task.index, task.attempt, payload)
        return True

    def _reap(self) -> None:
        """Collect results, then replace dead workers and overdue ones."""
        now = time.monotonic()
        timeout_s = self.sweep.sup.timeout_s
        for worker in list(self.workers):
            # A worker that finished its cell and then died still has the
            # result buffered: consume it before declaring the crash.
            alive = self._receive(worker) and worker.process.is_alive()
            task = worker.task
            if alive and (task is None or now < task.deadline):
                continue
            worker.task = None
            if alive:
                # Overdue: only an armed deadline is ever passed.
                assert task is not None and timeout_s is not None
                logger.warning(
                    "cell %s attempt %d exceeded its %.1f s timeout; killing "
                    "worker pid %s",
                    _cell_name(self.sweep.specs[task.index]), task.attempt,
                    timeout_s, worker.process.pid,
                )
                self._replace_worker(worker)
                self.sweep.fail(
                    task.index, task.attempt, faults.timeout_failure(timeout_s)
                )
                continue
            self._replace_worker(worker)
            # An idle worker dying is still a broken pool.
            self.crashes += 1
            if task is None:
                continue
            detail = (
                f"worker process died (exit code {worker.process.exitcode}) "
                f"while executing attempt {task.attempt} of cell "
                f"{_cell_name(self.sweep.specs[task.index])}"
            )
            logger.warning("%s", detail)
            self.sweep.fail(task.index, task.attempt, faults.crash_failure(detail))

    def _dispatch(self) -> None:
        now = time.monotonic()
        timeout_s = self.sweep.sup.timeout_s
        for worker in self.workers:
            if worker.task is not None:
                continue
            started = self.sweep.start(now)
            if started is None:
                return
            index, attempt = started
            try:
                worker.conn.send(
                    (self.sweep.specs[index].to_json(indent=None), attempt)
                )
            except (BrokenPipeError, OSError):
                # Worker died before it could accept the task; requeue and
                # let the reaper replace the worker.
                self.sweep.requeue(index, attempt)
                continue
            deadline = now + timeout_s if timeout_s is not None else math.inf
            worker.task = _Task(index, attempt, deadline)

    def _wait(self) -> None:
        now = time.monotonic()
        waits = [_SUPERVISOR_TICK_S]
        waits.extend(ready_at - now for _, _, ready_at in self.sweep.queue)
        handles = []
        for worker in self.workers:
            if worker.task is not None:
                waits.append(worker.task.deadline - now)
                handles.extend((worker.conn, worker.process.sentinel))
        timeout = max(0.001, min(waits))
        if handles:
            multiprocessing.connection.wait(handles, timeout)
        else:
            time.sleep(min(timeout, 0.05))

    def _fall_back(self) -> None:
        """Requeue in-flight attempts, stop the pool, drain serially."""
        in_flight = [worker.task for worker in self.workers if worker.task is not None]
        for task in sorted(in_flight, reverse=True):
            self.sweep.requeue(task.index, task.attempt)
        logger.warning(
            "process pool broke %d time(s); falling back to the serial "
            "backend for %d unfinished cell(s)",
            self.crashes, self.sweep.unfinished(),
        )
        for worker in self.workers:
            worker.task = None
            if worker.process.is_alive():
                worker.process.kill()
        runner = self.runner
        if runner is None:
            from repro.pipeline.runner import ExperimentRunner

            runner = ExperimentRunner()
        _drain_serial(self.sweep, runner)


def run_process(
    specs: Sequence[ScenarioSpec],
    max_workers: Optional[int] = None,
    runner=None,
    supervision: Optional[faults.Supervision] = None,
    on_result: OnResult = None,
) -> List[ScenarioResult]:
    """Execute the cells on a supervised process pool, in submission order.

    When ``runner`` is the sweep's :class:`ExperimentRunner` and the
    platform forks workers, the workers adopt (a copy-on-write snapshot
    of) that runner, inheriting its warm chips; otherwise each worker
    builds a fresh runner on first use.  Supervision semantics (timeouts,
    retries, quarantine, serial fallback, cancellation, ``on_result``)
    are those of :class:`_Sweep`, shared with :func:`run_serial`.
    """
    sweep = _Sweep(specs, supervision or faults.Supervision(), on_result)
    if max_workers is None:
        max_workers = default_max_workers(len(specs))
    return sweep.run(_ProcessPool(sweep, max_workers, runner).drain)
