"""Deterministic fault injection for sweep cells.

The chaos harness makes a *named* cell misbehave on chosen attempts so the
fault-tolerance layer (:mod:`repro.pipeline.faults`,
:mod:`repro.pipeline.backends`) can be exercised reproducibly -- by the
test suite, the CI chaos job, and ``sweep --chaos`` on the command line.

A :class:`ChaosPlan` is a list of :class:`FaultSpec` rules (JSON text may
also wrap the list as ``{"faults": [...]}``)::

    ChaosPlan.coerce([
        {"cell": "fig2[seed=1]", "mode": "kill", "attempts": [1]},
        {"cell": "fig2[seed=2]", "mode": "raise", "attempts": [1]},
    ])

Modes:

``raise``
    Raise :class:`repro.pipeline.faults.InjectedFault` (a transient,
    retryable exception) instead of running the cell.
``hang``
    Sleep ``hang_s`` seconds (default one hour) before running the cell --
    with a per-cell timeout the attempt is timed out and retried; without
    one the sweep stalls there, which is how the SIGTERM/resume tests
    freeze a sweep at a known point.
``kill``
    Hard-kill the worker with ``os._exit`` (no cleanup, no exception) on
    the process backend; the serial backend has no worker to kill, so the
    kill is *simulated* by raising
    :class:`repro.pipeline.faults.WorkerCrashError` (classified and
    retried exactly like a real crash).

Injection happens strictly *before* the cell's pipeline executes, so an
attempt that survives injection is bit-identical to a clean run of the
same spec.  A rule fires on every matching attempt, so a plan fires
identically in every process and on every re-run.
"""

from __future__ import annotations

import fnmatch
import json
import os
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.pipeline import faults

#: Exit status of a chaos-killed worker (distinctive in ps/exit logs).
KILL_EXIT_CODE = 173

MODES = ("raise", "hang", "kill")

#: Default hang duration: long enough that an un-timed-out hang is
#: indistinguishable from a genuinely stuck cell.
DEFAULT_HANG_S = 3600.0


@dataclass(frozen=True)
class FaultSpec:
    """One injection rule: make ``cell`` misbehave on chosen attempts."""

    #: Scenario name to target; ``fnmatch`` patterns are allowed, so
    #: ``"fig2[seed=*]"`` faults every seed of a grid axis.
    cell: str
    mode: str
    #: 1-based attempt numbers on which the fault fires; empty = every
    #: attempt (a *poison* cell that never recovers).
    attempts: Tuple[int, ...] = ()
    hang_s: float = DEFAULT_HANG_S

    def __post_init__(self) -> None:
        object.__setattr__(self, "attempts", tuple(self.attempts))
        if not self.cell:
            raise ValueError("fault 'cell' must be a non-empty name/pattern")
        if self.mode not in MODES:
            raise ValueError(
                f"unknown fault mode {self.mode!r}; expected one of {MODES}"
            )
        if any(int(a) != a or a < 1 for a in self.attempts):
            raise ValueError("fault 'attempts' must be 1-based attempt numbers")
        if self.hang_s <= 0:
            raise ValueError("fault 'hang_s' must be positive")

    def matches(self, cell_name: str, attempt: int) -> bool:
        """Whether this rule applies to ``cell_name`` on ``attempt``.

        Exact equality is checked before the ``fnmatch`` pattern: grid
        cell names contain ``[...]`` (``"fig2[seed=1]"``), which fnmatch
        would otherwise misread as a character class, so a rule naming a
        cell verbatim must always hit it.
        """
        if self.attempts and attempt not in self.attempts:
            return False
        if cell_name == self.cell:
            return True
        return fnmatch.fnmatchcase(cell_name, self.cell)

    def to_json_dict(self) -> Dict[str, Any]:
        """JSON-able representation (the ``--chaos`` wire form)."""
        payload: Dict[str, Any] = {"cell": self.cell, "mode": self.mode}
        if self.attempts:
            payload["attempts"] = list(self.attempts)
        if self.hang_s != DEFAULT_HANG_S:
            payload["hang_s"] = self.hang_s
        return payload

    @classmethod
    def from_json_dict(cls, payload: Dict[str, Any]) -> "FaultSpec":
        """Rebuild from :meth:`to_json_dict` output (extra keys rejected)."""
        unknown = set(payload) - {"cell", "mode", "attempts", "hang_s"}
        if unknown:
            raise ValueError(f"unknown fault field(s): {sorted(unknown)}")
        return cls(
            cell=payload["cell"],
            mode=payload["mode"],
            attempts=tuple(payload.get("attempts", ())),
            hang_s=float(payload.get("hang_s", DEFAULT_HANG_S)),
        )


@dataclass(frozen=True)
class ChaosPlan:
    """A set of injection rules, safe to ship to worker processes."""

    faults: Tuple[FaultSpec, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "faults", tuple(self.faults))

    @classmethod
    def coerce(
        cls,
        value: Optional[Union["ChaosPlan", str, Sequence]],
    ) -> Optional["ChaosPlan"]:
        """``None``, a plan, JSON text, or a rule list -> an optional plan.

        JSON text may be either a list of fault objects or
        ``{"faults": [...]}`` (extra keys rejected).
        """
        if value is None or isinstance(value, ChaosPlan):
            return value
        if isinstance(value, str):
            value = json.loads(value)
        if isinstance(value, dict):
            unknown = set(value) - {"faults"}
            if unknown:
                raise ValueError(f"unknown chaos plan field(s): {sorted(unknown)}")
            value = value.get("faults", ())
        rules: List[FaultSpec] = []
        for entry in value:
            if isinstance(entry, FaultSpec):
                rules.append(entry)
            else:
                rules.append(FaultSpec.from_json_dict(entry))
        return cls(faults=tuple(rules))

    def to_json(self) -> str:
        """The plan as JSON (accepted back by :meth:`coerce`)."""
        return json.dumps(
            {"faults": [f.to_json_dict() for f in self.faults]}, sort_keys=True
        )

    def fault_for(self, cell_name: str, attempt: int) -> Optional[FaultSpec]:
        """The first rule firing for ``cell_name`` on 1-based ``attempt``."""
        for fault in self.faults:
            if fault.matches(cell_name, attempt):
                return fault
        return None


def trigger(fault: FaultSpec, serial: bool = False) -> None:
    """Fire one fault at the injection point (just before the cell runs).

    ``serial=True`` replaces the hard ``os._exit`` kill with a raised
    :class:`~repro.pipeline.faults.WorkerCrashError` -- on the serial
    backend the "worker" is the caller's own process, and actually killing
    it would take the whole sweep (and test suite) down with it.
    """
    if fault.mode == "raise":
        raise faults.InjectedFault(
            f"chaos: injected failure for cell pattern {fault.cell!r}"
        )
    if fault.mode == "hang":
        time.sleep(fault.hang_s)
        return
    if serial:
        raise faults.WorkerCrashError(
            f"chaos: injected worker kill for cell pattern {fault.cell!r} "
            "(simulated on the serial backend)"
        )
    os._exit(KILL_EXIT_CODE)
