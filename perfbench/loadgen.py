"""Open-loop request generator.

Requests are due on a fixed schedule whether or not earlier ones have
finished, as independent users would send them.  A small pool of sender
threads takes requests in due order; when every sender is busy the next
request waits, and that wait counts: each latency is measured from the
moment the request was *due*, not from when a sender got to it.  How late
the senders ran is reported separately.

A schedule of requests with no due time (:func:`back_to_back_schedule`)
makes a closed loop instead: each sender sends its next request as soon as
its last one returns, so the server sets the pace, and each latency is
measured from the send.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Sequence


@dataclass(frozen=True)
class Request:
    """One scheduled request; ``due_s`` is relative to the phase start, or
    ``None`` for a request due whenever a sender is free."""

    index: int
    due_s: Optional[float]
    kind: str
    payload: Any


@dataclass
class Outcome:
    """What happened to one request (times relative to the phase start)."""

    request: Request
    sent_s: float = 0.0
    done_s: float = 0.0
    response: Any = None
    error: Optional[str] = None

    @property
    def due_s(self) -> float:
        return self.sent_s if self.request.due_s is None else self.request.due_s

    @property
    def latency_s(self) -> float:
        return self.done_s - self.due_s

    @property
    def late_s(self) -> float:
        return max(0.0, self.sent_s - self.due_s)


def fixed_rate_schedule(
    rate_per_s: float, duration_s: float, make: Callable[[int], "tuple[str, Any]"]
) -> List[Request]:
    """Requests evenly spaced at ``rate_per_s`` for ``duration_s`` seconds."""
    count = max(1, int(round(rate_per_s * duration_s)))
    requests = []
    for index in range(count):
        kind, payload = make(index)
        requests.append(Request(index, index / rate_per_s, kind, payload))
    return requests


def back_to_back_schedule(count: int, make: Callable[[int], "tuple[str, Any]"]) -> List[Request]:
    """``count`` requests, each due whenever a sender is free."""
    return [Request(index, None, *make(index)) for index in range(count)]


@dataclass
class OpenLoop:
    """Sends a schedule through ``send`` with at most ``senders`` in flight."""

    send: Callable[[Request], Any]
    senders: int = 2
    clock: Callable[[], float] = time.perf_counter
    sleep: Callable[[float], None] = time.sleep
    _next: int = field(default=0, init=False)
    _lock: threading.Lock = field(default_factory=threading.Lock, init=False)

    def run(self, schedule: Sequence[Request], stop_s: Optional[float] = None) -> List[Outcome]:
        """Outcomes of the requests sent; none is sent once ``stop_s`` has passed."""
        outcomes = [Outcome(request) for request in schedule]
        self._next = 0
        origin = self.clock()

        def sender() -> None:
            while True:
                with self._lock:
                    index = self._next
                    if index >= len(outcomes):
                        return
                    if stop_s is not None and self.clock() - origin >= stop_s:
                        return
                    self._next += 1
                outcome = outcomes[index]
                if outcome.request.due_s is not None:
                    wait = outcome.request.due_s - (self.clock() - origin)
                    if wait > 0:
                        self.sleep(wait)
                outcome.sent_s = self.clock() - origin
                try:
                    outcome.response = self.send(outcome.request)
                except Exception as error:  # every failure is an outcome, never a crash
                    outcome.error = f"{type(error).__name__}: {error}"
                outcome.done_s = self.clock() - origin

        threads = [threading.Thread(target=sender, daemon=True) for _ in range(self.senders)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return outcomes[: self._next]
