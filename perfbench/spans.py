"""In-memory spans recorded around calls into the program's layers.

A :class:`Tracer` keeps every span in a list until the process writes them
out with :meth:`Tracer.dump`; nothing touches disk while a workload runs.
Each span records its name, start and end (``time.perf_counter``), the
span that was open on the same thread when it began (its parent), the id
of the operation it belongs to (a scenario, sweep cell or request) and
optional attributes such as row counts.

A layer's *self time* is its span's duration minus the part of that
interval covered by its child spans (:func:`self_times`).  Children may
overlap each other; the covered part is the union of their intervals,
clipped to the parent.
"""

from __future__ import annotations

import functools
import itertools
import json
import pathlib
import threading
import time
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple, Union

from perfbench.common import write_atomic


@dataclass
class Span:
    """One timed call."""

    id: int
    name: str
    start: float
    end: float
    parent: Optional[int] = None
    op: Optional[str] = None
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


NameFor = Union[str, Callable[[Optional[str]], str]]


class Tracer:
    """Records spans from any thread; disabled tracers only pass calls through."""

    def __init__(self, enabled: bool = True, clock: Callable[[], float] = time.perf_counter):
        self.enabled = enabled
        self.clock = clock
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()

    # -- per-thread context ----------------------------------------------------

    def _stack(self) -> List[Tuple[int, str]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current_op(self) -> Optional[str]:
        return getattr(self._local, "op", None)

    def _record(self, span: Span) -> None:
        with self._lock:
            self.spans.append(span)

    # -- wrapping --------------------------------------------------------------

    def wrap(
        self,
        fn: Callable,
        name: NameFor,
        attrs: Optional[Callable[[Any, tuple, dict], Dict[str, Any]]] = None,
        op: Optional[Callable[[tuple, dict], str]] = None,
    ) -> Callable:
        """``fn`` timed as a span.

        ``name`` may be a callable of the parent span's name, so one
        function can be attributed to the layer that called it.
        ``attrs(result, args, kwargs)`` adds attributes after the call;
        ``op(args, kwargs)`` starts a new operation id for the call's
        duration.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            stack = self._stack()
            parent = stack[-1] if stack else None
            span_name = name(parent[1] if parent else None) if callable(name) else name
            span_id = next(self._ids)
            previous_op = self.current_op()
            if op is not None:
                self._local.op = op(args, kwargs)
            stack.append((span_id, span_name))
            start = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = self.clock()
                stack.pop()
                span = Span(
                    span_id, span_name, start, end,
                    parent[0] if parent else None, self.current_op(),
                )
                self._local.op = previous_op
                self._record(span)
            if attrs is not None:
                span.attrs.update(attrs(result, args, kwargs))
            return result

        return traced

    # -- persistence -----------------------------------------------------------

    def dump(self, path: Union[str, pathlib.Path], extra: Optional[Dict[str, Any]] = None) -> None:
        """Write every span (plus ``extra`` metadata) as one JSON document."""
        with self._lock:
            spans = [asdict(span) for span in self.spans]
        write_atomic(pathlib.Path(path), json.dumps({"spans": spans, "extra": extra or {}}))


def load(path: Union[str, pathlib.Path]) -> Tuple[List[Span], Dict[str, Any]]:
    """Spans and metadata written by :meth:`Tracer.dump`."""
    document = json.loads(pathlib.Path(path).read_text())
    return [Span(**span) for span in document["spans"]], document.get("extra", {})


def combine(groups: Iterable[List[Span]]) -> List[Span]:
    """Span lists from several processes, renumbered so ids stay unique."""
    merged: List[Span] = []
    offset = 0
    for group in groups:
        top = 0
        for span in group:
            merged.append(
                Span(
                    span.id + offset, span.name, span.start, span.end,
                    None if span.parent is None else span.parent + offset,
                    span.op, span.attrs,
                )
            )
            top = max(top, span.id)
        offset += top
    return merged


def covered(intervals: Iterable[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted(
        (max(start, lo), min(end, hi)) for start, end in intervals if end > lo and start < hi
    )
    total = 0.0
    run_start = run_end = None
    for start, end in clipped:
        if run_end is None or start > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = start, end
        else:
            run_end = max(run_end, end)
    if run_end is not None:
        total += run_end - run_start
    return total


def self_times(spans: Iterable[Span]) -> Dict[int, float]:
    """Span id -> duration minus the time its children cover."""
    spans = list(spans)
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return {
        span.id: span.duration - covered(children.get(span.id, ()), span.start, span.end)
        for span in spans
    }


@dataclass
class LayerTotals:
    """Per-name aggregate of a set of spans."""

    calls: int = 0
    self_s: float = 0.0
    total_s: float = 0.0
    attrs: Dict[str, float] = field(default_factory=dict)


def by_name(spans: Iterable[Span]) -> Dict[str, LayerTotals]:
    """Calls, summed self time, summed duration and summed numeric attrs per name."""
    spans = list(spans)
    own = self_times(spans)
    totals: Dict[str, LayerTotals] = {}
    for span in spans:
        entry = totals.setdefault(span.name, LayerTotals())
        entry.calls += 1
        entry.self_s += own[span.id]
        entry.total_s += span.duration
        for key, value in span.attrs.items():
            if isinstance(value, (int, float)):
                entry.attrs[key] = entry.attrs.get(key, 0.0) + float(value)
    return totals
