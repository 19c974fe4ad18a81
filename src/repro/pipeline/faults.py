"""Fault taxonomy and supervision policy for sweep execution.

This module is the *policy* half of the fault-tolerance layer (the
*mechanism* -- one sweep state drained by the serial loop or the process
pool -- lives in :mod:`repro.pipeline.backends`, with its fixed
quarantine and serial-fallback thresholds):

* a failure taxonomy: every failed sweep cell is classified as one of
  :data:`FAILURE_KINDS` (``exception`` / ``timeout`` / ``worker-crash`` /
  ``cancelled``), recorded on :attr:`ScenarioResult.error_kind`;
* :class:`RetryPolicy` -- bounded retries with exponential backoff and
  *deterministic* jitter (seeded by the spec hash, so a retried sweep is
  reproducible).  Only transient failures retry: timeouts, worker
  crashes, and exceptions deriving from :class:`TransientError`.  A
  deterministic in-cell exception (bad spec, bug in a stage) fails
  immediately on its first attempt -- retrying it could only burn time;
* :class:`Supervision` -- the per-sweep policy: per-cell wall-clock
  timeout, retry policy, and what to do when a cell exhausts its attempts
  (``on_failure``);
* :func:`graceful_shutdown` -- a context manager turning SIGINT/SIGTERM
  into :class:`SweepInterrupted` so a sweep stops *between* (or inside) a
  cell, marks unfinished cells ``cancelled``, and returns normally with
  every completed cell already flushed to the result store.

Retried cells are bit-identical to a clean run: a retry re-executes the
same frozen spec with the same seeds.
"""

from __future__ import annotations

import contextlib
import hashlib
import signal
import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator, Optional, Union

if TYPE_CHECKING:  # circular at runtime: artifacts imports nothing from here
    from repro.pipeline.artifacts import ScenarioResult

#: Failure categories recorded on ``ScenarioResult.error_kind``.
EXCEPTION = "exception"
TIMEOUT = "timeout"
WORKER_CRASH = "worker-crash"
CANCELLED = "cancelled"
FAILURE_KINDS = (EXCEPTION, TIMEOUT, WORKER_CRASH, CANCELLED)

#: ``Supervision.on_failure`` choices: record the FAILED cell and keep
#: sweeping (the historical behaviour), or abort the sweep by raising
#: :class:`CellFailed` as soon as one cell exhausts its attempts.
ON_FAILURE_RECORD = "record"
ON_FAILURE_RAISE = "raise"
ON_FAILURE_CHOICES = (ON_FAILURE_RECORD, ON_FAILURE_RAISE)


class TransientError(Exception):
    """Base class for in-cell exceptions worth retrying.

    Raise (or subclass) this for failures that are plausibly environmental
    -- an I/O hiccup, a flaky resource -- rather than deterministic
    properties of the cell.  Everything else is assumed deterministic and
    never retried.
    """


class CellTimeout(BaseException):
    """Raised inside a cell when its wall-clock budget expires.

    A ``BaseException`` so stage code catching broad ``Exception`` cannot
    swallow the supervisor's deadline; the supervised execution loops
    always catch it explicitly.
    """


class SweepInterrupted(BaseException):
    """Raised by :func:`graceful_shutdown` handlers on SIGINT/SIGTERM.

    A ``BaseException`` for the same reason as :class:`CellTimeout`: it
    must cut through a running cell to reach the supervision loop, which
    marks unfinished cells ``cancelled`` and returns the partial sweep.
    """

    def __init__(self, signum: int) -> None:
        super().__init__(f"sweep interrupted by signal {signum}")
        self.signum = signum


class CellFailed(Exception):
    """Raised by ``on_failure="raise"`` when a cell exhausts its attempts.

    Carries the failed :class:`~repro.pipeline.artifacts.ScenarioResult`
    as ``result``; everything the sweep completed before the failure has
    already been delivered to the caller's ``on_result`` hook (and
    therefore flushed to the result store, when one is attached).
    """

    def __init__(self, result: "ScenarioResult") -> None:
        super().__init__(
            f"scenario {result.name!r} failed "
            f"({result.error_kind or EXCEPTION}, "
            f"{result.provenance.attempts} attempt(s)):\n{result.error}"
        )
        self.result = result


@dataclass(frozen=True)
class CellFailure:
    """One classified failure of one attempt of one cell."""

    kind: str
    message: str
    retryable: bool


def classify_exception(exc: BaseException, message: str) -> CellFailure:
    """Classify an in-cell exception into the failure taxonomy.

    ``message`` is the full traceback text (it becomes
    ``ScenarioResult.error``).  :class:`TransientError` subclasses are
    retryable; any other exception is deterministic.  (A dead worker is
    no exception: the pool records it with :func:`crash_failure`.)
    """
    if isinstance(exc, TransientError):
        return CellFailure(kind=EXCEPTION, message=message, retryable=True)
    return CellFailure(kind=EXCEPTION, message=message, retryable=False)


def timeout_failure(timeout_s: float) -> CellFailure:
    """The (always retryable) failure recorded for a timed-out attempt."""
    return CellFailure(
        kind=TIMEOUT,
        message=f"cell exceeded its {timeout_s:g} s wall-clock timeout",
        retryable=True,
    )


def crash_failure(detail: str) -> CellFailure:
    """The (always retryable) failure recorded for a dead worker."""
    return CellFailure(kind=WORKER_CRASH, message=detail, retryable=True)


#: Growth of the retry delay per failed attempt.
BACKOFF_FACTOR = 2.0
#: Cap on one retry delay, in seconds (before jitter).
MAX_BACKOFF_S = 30.0
#: Fractional spread of the deterministic jitter on each delay.
JITTER = 0.1


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retries with exponential backoff and deterministic jitter.

    ``max_attempts`` counts *total* attempts (1 = never retry).  The delay
    before attempt ``n + 1`` is ``backoff_s * BACKOFF_FACTOR ** (n - 1)``
    capped at :data:`MAX_BACKOFF_S`, then jittered by up to ``+/- JITTER``
    (fractional).  The jitter is a pure function of ``(key, attempt)`` --
    the key is the cell's spec hash -- so two runs of the same sweep back
    off identically and stay reproducible.
    """

    max_attempts: int = 3
    backoff_s: float = 0.1

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if self.backoff_s < 0:
            raise ValueError("backoff_s must be non-negative")

    @classmethod
    def none(cls) -> "RetryPolicy":
        """The no-retry policy (every cell gets exactly one attempt)."""
        return cls(max_attempts=1)

    @classmethod
    def coerce(cls, value: Optional[Union[int, "RetryPolicy"]]) -> "RetryPolicy":
        """``None``, a retry *count*, or a policy -> a policy.

        An integer is the number of *retries* (extra attempts after the
        first), matching the CLI's ``--retries`` flag.
        """
        if value is None:
            return cls.none()
        if isinstance(value, RetryPolicy):
            return value
        if isinstance(value, int) and not isinstance(value, bool):
            if value < 0:
                raise ValueError("retry count must be non-negative")
            return cls(max_attempts=value + 1)
        raise TypeError(
            f"retry must be a RetryPolicy, an int retry count, or None; "
            f"got {type(value).__name__}"
        )

    def should_retry(self, failure: CellFailure, attempt: int) -> bool:
        """Whether ``failure`` on (1-based) ``attempt`` earns another try."""
        return failure.retryable and attempt < self.max_attempts

    def backoff_for(self, attempt: int, key: str = "") -> float:
        """Seconds to wait after (1-based) ``attempt`` failed.

        Deterministic: the jitter fraction comes from
        ``sha256(key:attempt)``, not a live RNG, so resumed/retried sweeps
        are reproducible run to run.
        """
        base = min(self.backoff_s * BACKOFF_FACTOR ** (attempt - 1), MAX_BACKOFF_S)
        if base <= 0.0:
            return base
        digest = hashlib.sha256(f"{key}:{attempt}".encode("utf-8")).digest()
        fraction = int.from_bytes(digest[:8], "big") / 2.0**64
        return base * (1.0 + JITTER * (2.0 * fraction - 1.0))


@dataclass(frozen=True)
class Supervision:
    """The complete fault-tolerance policy of one ``run_many`` sweep."""

    #: Per-cell wall-clock budget in seconds (``None`` = unlimited).  On
    #: the process backend a cell over budget has its worker killed and
    #: replaced; on the serial backend a SIGALRM deadline interrupts it.
    timeout_s: Optional[float] = None
    retry: RetryPolicy = field(default_factory=RetryPolicy.none)
    #: ``"record"``: a cell that exhausts its attempts becomes a FAILED
    #: result and the sweep continues.  ``"raise"``: the sweep aborts
    #: with :class:`CellFailed` (completed cells are already flushed).
    on_failure: str = ON_FAILURE_RECORD

    def __post_init__(self) -> None:
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ValueError("timeout_s must be positive (or None)")
        if self.on_failure not in ON_FAILURE_CHOICES:
            raise ValueError(
                f"on_failure must be one of {ON_FAILURE_CHOICES}, "
                f"got {self.on_failure!r}"
            )


#: Signals :func:`graceful_shutdown` converts into an orderly stop.
_SHUTDOWN_SIGNALS = ("SIGINT", "SIGTERM")


@contextlib.contextmanager
def graceful_shutdown() -> Iterator[None]:
    """Convert the first SIGINT/SIGTERM into :class:`SweepInterrupted`.

    Installed around supervised sweep execution (main thread only --
    elsewhere this is a no-op, since Python only delivers signals to the
    main thread).  The first signal raises :class:`SweepInterrupted` in
    the main thread, which the supervision loops catch to mark unfinished
    cells ``cancelled`` and return the partial sweep; further signals
    during the cleanup are ignored so the orderly shutdown can finish.
    """
    if threading.current_thread() is not threading.main_thread():
        yield
        return
    fired = []

    def handler(signum, frame):
        if fired:
            return
        fired.append(signum)
        raise SweepInterrupted(signum)

    previous = {}
    for name in _SHUTDOWN_SIGNALS:
        signum = getattr(signal, name, None)
        if signum is None:  # pragma: no cover - platform without the signal
            continue
        try:
            previous[signum] = signal.signal(signum, handler)
        except (ValueError, OSError):  # pragma: no cover - exotic contexts
            pass
    try:
        yield
    finally:
        for signum, old in previous.items():
            signal.signal(signum, old)
