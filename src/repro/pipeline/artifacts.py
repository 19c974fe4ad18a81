"""Typed result artifacts produced by the pipeline runner.

A :class:`ScenarioResult` bundles everything one scenario run produced:

* the :class:`repro.core.spec.ScenarioSpec` that was executed,
* ``scalars`` -- JSON-able headline metrics,
* ``arrays`` -- named numpy arrays (correlation spectra, traces, ...),
* ``report`` -- the human-readable text report,
* ``provenance`` -- spec hash, commit, environment, timings.

Artifacts round-trip through a JSON file plus a sibling ``.npz`` for the
arrays: ``ScenarioResult.load(result.save(path))`` reproduces every array
bit-exactly.  A :class:`SweepResult` is an ordered collection of scenario
results sharing one artifact pair.
"""

from __future__ import annotations

import datetime
import functools
import io
import json
import pathlib
import platform
import re
import subprocess
import sys
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Union

import numpy as np

from repro.core.spec import ScenarioSpec

PathLike = Union[str, pathlib.Path]

#: Schema version of the artifact JSON form.  Part of the result store's
#: code-version salt: bumping it invalidates memoized results whose
#: serialized shape changed.  v2 added ``error_kind`` (failure taxonomy)
#: and ``provenance.attempts`` (retry accounting).  Only this version
#: loads: a v1 artifact embeds a spec of a schema the spec reader rejects.
ARTIFACT_SCHEMA_VERSION = 2


def _check_schema_version(payload: Dict[str, Any]) -> None:
    """Reject an artifact document written under another schema version."""
    version = payload.get("schema_version")
    if version != ARTIFACT_SCHEMA_VERSION:
        raise ValueError(f"unsupported artifact schema version {version!r}")


@functools.lru_cache(maxsize=1)
def current_commit() -> str:
    """The repository's HEAD commit, or ``"unknown"`` outside a checkout.

    Cached per process: provenance stamping must not pay one subprocess
    per scenario in a large sweep.
    """
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=pathlib.Path(__file__).resolve().parent,
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    if out.returncode != 0:
        return "unknown"
    return out.stdout.strip() or "unknown"


def environment_stamp() -> Dict[str, str]:
    """The runtime environment recorded into every artifact."""
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": sys.platform,
        "machine": platform.machine(),
    }


def provenance_clock() -> str:
    """The sole sanctioned wall-clock read: a UTC ISO-8601 creation stamp.

    Every provenance timestamp flows through this helper so
    deterministic-replay tooling can monkeypatch one symbol instead of
    chasing ``datetime.now`` call sites.
    """
    return datetime.datetime.now(datetime.timezone.utc).isoformat(
        timespec="seconds"
    )


@dataclass(frozen=True)
class Provenance:
    """Where a result came from: spec identity, code version, environment."""

    spec_hash: str
    commit: str = field(default_factory=current_commit)
    environment: Dict[str, str] = field(default_factory=environment_stamp)
    created_at: str = ""
    elapsed_s: float = 0.0
    #: Execution attempts this result took (1 = first try; >1 means the
    #: supervision layer retried a transient failure).
    attempts: int = 1

    def __post_init__(self) -> None:
        if not self.created_at:
            object.__setattr__(self, "created_at", provenance_clock())

    def to_json_dict(self) -> Dict[str, Any]:
        """JSON-able representation."""
        return {
            "spec_hash": self.spec_hash,
            "commit": self.commit,
            "environment": dict(self.environment),
            "created_at": self.created_at,
            "elapsed_s": self.elapsed_s,
            "attempts": self.attempts,
        }

    @classmethod
    def from_json_dict(cls, payload: Dict[str, Any]) -> "Provenance":
        """Rebuild from :meth:`to_json_dict` output."""
        return cls(
            spec_hash=payload["spec_hash"],
            commit=payload.get("commit", "unknown"),
            environment=dict(payload.get("environment", {})),
            created_at=payload.get("created_at", ""),
            elapsed_s=float(payload.get("elapsed_s", 0.0)),
            attempts=int(payload["attempts"]),
        )


def _json_path(path: PathLike) -> pathlib.Path:
    path = pathlib.Path(path)
    if path.suffix != ".json":
        path = path.with_suffix(path.suffix + ".json") if path.suffix else path.with_suffix(".json")
    return path


def _npz_path(json_path: pathlib.Path) -> pathlib.Path:
    return json_path.with_suffix(".npz")


@dataclass
class ScenarioResult:
    """Everything one executed scenario produced."""

    spec: ScenarioSpec
    provenance: Provenance
    scalars: Dict[str, Any] = field(default_factory=dict)
    arrays: Dict[str, np.ndarray] = field(default_factory=dict)
    report: str = ""
    #: The legacy result object (``Fig5Result``, ``Table1Result``, ...).
    #: Not serialized; ``None`` after :meth:`load` and under the process
    #: backend (results cross the process boundary serialized).
    payload: Any = None
    #: Traceback text when the scenario failed instead of producing a
    #: result (sweep backends capture per-cell failures); ``None`` on
    #: success.
    error: Optional[str] = None
    #: Failure category of ``error`` -- one of
    #: :data:`repro.pipeline.faults.FAILURE_KINDS` (``exception`` /
    #: ``timeout`` / ``worker-crash`` / ``cancelled``); ``None`` on
    #: success.  A never-executed cell is ``cancelled``, not a generic
    #: failure, so reports distinguish "it broke" from "it never ran".
    error_kind: Optional[str] = None

    @property
    def name(self) -> str:
        """Scenario name (falls back to the kind)."""
        return self.spec.name or self.spec.kind

    @property
    def ok(self) -> bool:
        """Whether the scenario executed without error."""
        return self.error is None

    @property
    def artifact_stem(self) -> str:
        """The scenario name sanitized into a single path component.

        Grid-cell and sub-scenario names contain ``/`` (``"fig5/chip-1"``);
        using them raw as filenames writes into unintended subdirectories.
        Every run of filesystem-hostile characters becomes one ``-``.
        """
        stem = re.sub(r"[^\w.+=,@-]+", "-", self.name).strip("-.")
        return stem or self.spec.kind

    def to_json_dict(self) -> Dict[str, Any]:
        """JSON-able representation (array *metadata* only, data lives in .npz)."""
        return {
            "schema_version": ARTIFACT_SCHEMA_VERSION,
            "spec": self.spec.to_json_dict(),
            "provenance": self.provenance.to_json_dict(),
            "scalars": dict(self.scalars),
            "arrays": self._arrays_metadata(),
            "report": self.report,
            "error": self.error,
            "error_kind": self.error_kind,
        }

    def _arrays_metadata(self) -> Dict[str, Dict[str, Any]]:
        # An array-stripped result (see from_wire) keeps the
        # metadata it arrived with, so the wire JSON round-trips exactly
        # even though the data itself is gone.
        if self.arrays:
            return {
                key: {"shape": list(value.shape), "dtype": str(value.dtype)}
                for key, value in self.arrays.items()
            }
        stripped: Dict[str, Dict[str, Any]] = getattr(self, "_stripped_arrays", {})
        return {key: dict(meta) for key, meta in stripped.items()}

    @classmethod
    def _from_json_dict(
        cls, payload: Dict[str, Any], arrays: Dict[str, np.ndarray]
    ) -> "ScenarioResult":
        _check_schema_version(payload)
        return cls(
            spec=ScenarioSpec.from_json_dict(payload["spec"]),
            provenance=Provenance.from_json_dict(payload["provenance"]),
            scalars=dict(payload.get("scalars", {})),
            arrays=arrays,
            report=payload.get("report", ""),
            error=payload.get("error"),
            error_kind=payload.get("error_kind"),
        )

    def to_wire(self) -> Dict[str, Any]:
        """In-memory equivalent of :meth:`save`: JSON text + ``.npz`` bytes.

        This is how the process backend ships results across the worker
        boundary -- the same serialization as the on-disk artifact, so
        :meth:`from_wire` reproduces scalars, arrays and report bit-exactly
        while the non-serializable ``payload`` is dropped, exactly like
        :meth:`load`.
        """
        npz_bytes: Optional[bytes] = None
        if self.arrays:
            buffer = io.BytesIO()
            np.savez(buffer, **self.arrays)
            npz_bytes = buffer.getvalue()
        return {"json": self.wire_json(), "npz": npz_bytes}

    def wire_json(self) -> str:
        """The JSON text of :meth:`to_wire`, without encoding the arrays."""
        return json.dumps(self.to_json_dict(), sort_keys=True)

    @classmethod
    def from_wire(cls, wire: Dict[str, Any]) -> "ScenarioResult":
        """Rebuild a result from :meth:`to_wire` output (arrays bit-exact).

        A wire form whose ``npz`` payload was stripped (``None``) still
        round-trips: the array metadata from the JSON side is retained,
        and ``to_wire()`` re-emits it unchanged -- so a signed transcript
        re-verifies from the wire JSON alone, no ``.npz`` required.
        """
        payload = json.loads(wire["json"])
        arrays: Dict[str, np.ndarray] = {}
        if wire.get("npz"):
            with np.load(io.BytesIO(wire["npz"]), allow_pickle=False) as data:
                arrays = {key: np.array(data[key]) for key in data.files}
        result = cls._from_json_dict(payload, arrays)
        metadata = payload.get("arrays") or {}
        if metadata and not arrays:
            result._stripped_arrays = {
                key: dict(meta) for key, meta in metadata.items()
            }
        return result

    def save(self, path: PathLike) -> pathlib.Path:
        """Write ``<path>.json`` (+ sibling ``.npz`` when arrays exist).

        Overwriting an artifact that *had* arrays with one that has none
        removes the now-orphaned sibling ``.npz``: the new JSON no longer
        references it, and leaving it behind would make a later save with
        arrays ambiguous about whose data the file holds.
        """
        json_path = _json_path(path)
        json_path.parent.mkdir(parents=True, exist_ok=True)
        payload = self.to_json_dict()
        if self.arrays:
            payload["arrays_file"] = _npz_path(json_path).name
            np.savez(_npz_path(json_path), **self.arrays)
        else:
            _npz_path(json_path).unlink(missing_ok=True)
        json_path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        return json_path

    @classmethod
    def load(cls, path: PathLike) -> "ScenarioResult":
        """Read an artifact written by :meth:`save` (arrays bit-exact)."""
        json_path = _json_path(path)
        payload = json.loads(json_path.read_text())
        arrays: Dict[str, np.ndarray] = {}
        arrays_file = payload.get("arrays_file")
        if arrays_file:
            with np.load(json_path.parent / arrays_file, allow_pickle=False) as data:
                arrays = {key: np.array(data[key]) for key in data.files}
        return cls._from_json_dict(payload, arrays)


@dataclass
class SweepResult:
    """An ordered batch of scenario results from one ``run_many`` call.

    ``elapsed_s`` is the *wall-clock* duration of the whole sweep as seen
    by the caller -- under the process backend it is what the sweep
    actually took, not the sum of per-result ``provenance.elapsed_s``
    (which overlap across workers).
    """

    results: List[ScenarioResult] = field(default_factory=list)
    elapsed_s: float = 0.0

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self):
        return iter(self.results)

    def __getitem__(self, index: int) -> ScenarioResult:
        return self.results[index]

    def get(
        self,
        name: str,
        *,
        seed: Optional[int] = None,
        index: Optional[int] = None,
    ) -> ScenarioResult:
        """Look up one result by scenario name, raising on ambiguity.

        A grid sweep legitimately contains the same registry name at
        several seeds; a bare ``get(name)`` with more than one match is an
        error rather than a silent first-match.  Disambiguate with
        ``seed=`` (match ``result.spec.seed``) and/or ``index=`` (position
        among the same-named matches, in submission order).
        """
        matches = [
            (position, result)
            for position, result in enumerate(self.results)
            if result.name == name
        ]
        if seed is not None:
            matches = [(p, r) for p, r in matches if r.spec.seed == seed]
        if not matches:
            qualifier = f" with seed {seed}" if seed is not None else ""
            raise KeyError(
                f"no result named {name!r}{qualifier}; "
                f"available: {[r.name for r in self.results]}"
            )
        if index is not None:
            if not 0 <= index < len(matches):
                raise KeyError(
                    f"index {index} out of range: {len(matches)} results "
                    f"match {name!r}"
                )
            return matches[index][1]
        if len(matches) > 1:
            cells = [
                f"#{position} (seed {result.spec.seed})"
                for position, result in matches
            ]
            raise KeyError(
                f"ambiguous name {name!r}: {len(matches)} results match "
                f"({', '.join(cells)}); qualify with seed= and/or index="
            )
        return matches[0][1]

    @property
    def names(self) -> List[str]:
        """Scenario names in execution order."""
        return [result.name for result in self.results]

    @property
    def failures(self) -> List[ScenarioResult]:
        """The results whose scenario failed (``error`` set), in order."""
        return [result for result in self.results if not result.ok]

    @property
    def ok(self) -> bool:
        """Whether every scenario in the sweep succeeded."""
        return not self.failures

    def to_text(self) -> str:
        """All reports concatenated in execution order.

        When cells failed, the summary is followed by one line per
        failure with its taxonomy category and attempt count, e.g.
        ``fig2[seed=3]: worker-crash after 2 attempt(s)`` -- so a report
        distinguishes a crashed cell from a timed-out one from a cell
        that was cancelled before it ever ran.
        """
        blocks = []
        for result in self.results:
            bar = "=" * 78
            blocks.append(f"{bar}\nscenario: {result.name}\n{bar}\n{result.report}")
        summary = (
            f"sweep of {len(self.results)} scenarios in {self.elapsed_s:.2f} s"
        )
        # Cells cancelled by an interrupt never ran -- they are counted
        # apart from genuine failures, not reported as FAILED.
        failed = [r for r in self.failures if r.error_kind != "cancelled"]
        cancelled = [r for r in self.failures if r.error_kind == "cancelled"]
        if failed or cancelled:
            counts = []
            if failed:
                counts.append(f"{len(failed)} FAILED")
            if cancelled:
                counts.append(f"{len(cancelled)} cancelled")
            summary += f" ({', '.join(counts)})"
            for result in self.failures:
                summary += (
                    f"\n  {result.name}: {result.error_kind or 'exception'}"
                    f" after {result.provenance.attempts} attempt(s)"
                )
        return "\n\n".join(blocks + [summary])

    def to_json_dict(self) -> Dict[str, Any]:
        """JSON-able representation of the whole sweep."""
        return {
            "schema_version": ARTIFACT_SCHEMA_VERSION,
            "elapsed_s": self.elapsed_s,
            "results": [result.to_json_dict() for result in self.results],
        }

    def save(self, path: PathLike) -> pathlib.Path:
        """Write one ``<path>.json`` + one ``.npz`` holding every array.

        Array keys are namespaced ``"<index>/<name>"`` so same-named arrays
        of different scenarios never collide.
        """
        json_path = _json_path(path)
        json_path.parent.mkdir(parents=True, exist_ok=True)
        payload = self.to_json_dict()
        stacked: Dict[str, np.ndarray] = {}
        for index, result in enumerate(self.results):
            for key, value in result.arrays.items():
                stacked[f"{index}/{key}"] = value
        if stacked:
            payload["arrays_file"] = _npz_path(json_path).name
            np.savez(_npz_path(json_path), **stacked)
        else:
            # Same stale-sibling hazard as ScenarioResult.save: an earlier
            # sweep with arrays must not leave its .npz next to a new
            # array-less sweep JSON.
            _npz_path(json_path).unlink(missing_ok=True)
        json_path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        return json_path

    @classmethod
    def load(cls, path: PathLike) -> "SweepResult":
        """Read a sweep artifact written by :meth:`save`."""
        json_path = _json_path(path)
        payload = json.loads(json_path.read_text())
        _check_schema_version(payload)
        stacked: Dict[str, np.ndarray] = {}
        arrays_file = payload.get("arrays_file")
        if arrays_file:
            with np.load(json_path.parent / arrays_file, allow_pickle=False) as data:
                stacked = {key: np.array(data[key]) for key in data.files}
        results = []
        for index, entry in enumerate(payload.get("results", [])):
            prefix = f"{index}/"
            arrays = {
                key[len(prefix):]: value
                for key, value in stacked.items()
                if key.startswith(prefix)
            }
            results.append(ScenarioResult._from_json_dict(entry, arrays))
        return cls(results=results, elapsed_s=float(payload.get("elapsed_s", 0.0)))
