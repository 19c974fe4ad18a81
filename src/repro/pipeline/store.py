"""Content-addressed result store: memoized scenario results on disk.

A :class:`ResultStore` persists every successful
:class:`repro.pipeline.artifacts.ScenarioResult` under a key derived from
the spec's content hash *and* a code-version salt::

    key = sha256(spec.spec_hash() + "\\n" + salt)
    salt = "commit=<HEAD>,spec-schema=v1,artifact-schema=v1"

so a memoized cell is served again only while both the scenario *and* the
code that produced it are unchanged -- a new commit (or a spec/artifact
schema bump) silently invalidates every older entry, and ``gc()`` reclaims
them.  Entries reuse the artifact serialization
(:meth:`ScenarioResult.to_wire`): one JSON document per cell plus a
sibling ``.npz`` whose bytes are integrity-checked against a recorded
sha256 digest on every read, so a truncated or bit-flipped array file is
detected and treated as a miss rather than served as data.

Failed cells (``result.ok`` is ``False``) are never memoized: ``put``
refuses them and ``get`` double-checks the stored document, so a resumed
sweep always re-executes exactly the cells that did not finish.

Layout (two-level fan-out keeps directories small at 10^5+ cells)::

    <root>/<key[:2]>/<key>.json     # entry document (see below)
    <root>/<key[:2]>/<key>.npz      # arrays, only when the result has any

Writes are atomic (temp file + ``os.replace``, ``.npz`` before ``.json``
so the JSON is the commit point); concurrent writers of the same cell --
two sweep processes computing one deterministic scenario -- therefore
always leave a self-consistent entry behind.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import pathlib
import threading
import zipfile
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple, Union

from repro.core.spec import SPEC_SCHEMA_VERSION, ScenarioSpec
from repro.pipeline.artifacts import (
    ARTIFACT_SCHEMA_VERSION,
    ScenarioResult,
    current_commit,
)

logger = logging.getLogger(__name__)

PathLike = Union[str, pathlib.Path]

#: Schema version of the store's entry documents.
STORE_SCHEMA_VERSION = 1

#: Everything a corrupt-but-parseable entry can raise while
#: :meth:`ScenarioResult.from_wire` rebuilds it (bad JSON shapes, missing
#: keys, truncated npz payloads).  Deliberately *not* ``Exception``: the
#: BaseException-derived sweep control flow (``CellTimeout``,
#: ``SweepInterrupted``) and genuine bugs must propagate, not be recorded
#: as cache corruption (EXC001).
_REBUILD_ERRORS = (
    KeyError,
    IndexError,
    TypeError,
    ValueError,
    AttributeError,
    OSError,
    EOFError,
    zipfile.BadZipFile,
)


def code_version_salt(commit: Optional[str] = None) -> str:
    """The code-version component of every store key.

    Combines the repository HEAD commit with the spec and artifact schema
    versions: any of those changing means previously memoized results may
    no longer be reproducible by (or readable to) the current code, so
    they must miss.  Outside a git checkout the commit is ``"unknown"``
    and only the schema versions invalidate.
    """
    return (
        f"commit={commit if commit is not None else current_commit()}"
        f",spec-schema=v{SPEC_SCHEMA_VERSION}"
        f",artifact-schema=v{ARTIFACT_SCHEMA_VERSION}"
    )


def store_key(spec_hash: str, salt: str) -> str:
    """The content-addressed key of one (scenario, code version) cell."""
    return hashlib.sha256(f"{spec_hash}\n{salt}".encode("utf-8")).hexdigest()


def _npz_digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@dataclass(frozen=True)
class StoreStats:
    """One snapshot of a store: on-disk contents plus session counters.

    ``entries``/``stale``/``invalid``/``total_bytes``/``per_kind`` are
    re-scanned from disk on every :meth:`ResultStore.stats` call;
    ``hits``/``misses``/``writes``/``corrupt`` count this process's
    traffic through the owning :class:`ResultStore` instance
    (:meth:`ResultStore.counters`).  Every read is one hit or one miss.
    ``corrupt`` counts reads, not entries: each read that found a corrupt
    entry, and so also counted a miss.  One corrupt entry read twice (a
    cold ``/verify`` reads the store before and inside its in-flight
    lock) counts 2.
    """

    root: str
    salt: str
    #: Entries readable under the store's current code-version salt.
    entries: int = 0
    #: Readable entries written under *another* salt (``gc()`` removes them).
    stale: int = 0
    #: Unparseable entry documents (``gc()`` removes them too).
    invalid: int = 0
    total_bytes: int = 0
    per_kind: Dict[str, int] = field(default_factory=dict)
    hits: int = 0
    misses: int = 0
    writes: int = 0
    corrupt: int = 0

    def to_text(self) -> str:
        """Human-readable multi-line summary (the CLI ``store stats`` body)."""
        lines = [
            f"store:   {self.root}",
            f"salt:    {self.salt}",
            f"entries: {self.entries} current"
            + (f", {self.stale} stale" if self.stale else "")
            + (f", {self.invalid} invalid" if self.invalid else ""),
            f"size:    {self.total_bytes / 1e6:.2f} MB",
        ]
        for kind in sorted(self.per_kind):
            lines.append(f"  kind {kind}: {self.per_kind[kind]}")
        return "\n".join(lines)


class ResultStore:
    """Directory-backed memoization of scenario results by content key.

    ``salt`` defaults to :func:`code_version_salt`; tests (and tools that
    must read entries across commits) may pin their own.
    """

    def __init__(self, root: PathLike, salt: Optional[str] = None) -> None:
        self.root = pathlib.Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.salt = salt if salt is not None else code_version_salt()
        # Counter updates come from concurrent service/sweep threads; the
        # file operations themselves are already safe (atomic replace).
        self._stats_lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._writes = 0
        self._corrupt = 0

    @classmethod
    def coerce(
        cls, store: Optional[Union["ResultStore", PathLike]]
    ) -> Optional["ResultStore"]:
        """``None``, a path, or an existing store -> an optional store."""
        if store is None or isinstance(store, ResultStore):
            return store
        return cls(store)

    # -- key / path helpers ----------------------------------------------------

    def key_for(self, spec: ScenarioSpec) -> str:
        """The key ``spec`` is stored under at this code version."""
        return store_key(spec.spec_hash(), self.salt)

    def _json_path(self, key: str) -> pathlib.Path:
        return self.root / key[:2] / f"{key}.json"

    def _npz_path(self, key: str) -> pathlib.Path:
        return self.root / key[:2] / f"{key}.npz"

    def _entry_paths(self) -> Iterator[pathlib.Path]:
        return sorted(self.root.glob("*/*.json"))

    # -- read side -------------------------------------------------------------

    def has(self, spec: ScenarioSpec) -> bool:
        """Whether an entry document exists for ``spec`` (no counters)."""
        return self._json_path(self.key_for(spec)).is_file()

    def __contains__(self, spec: ScenarioSpec) -> bool:
        return self.has(spec)

    def get(
        self, spec: ScenarioSpec, *, arrays: bool = True
    ) -> Optional[ScenarioResult]:
        """The memoized result for ``spec``, or ``None`` on a miss.

        A hit reproduces scalars, arrays and report bit-identically to the
        run that was stored (the arrays round-trip through the same
        ``.npz`` bytes, verified against the recorded digest).  A corrupt
        entry -- unreadable JSON, missing/bit-flipped ``.npz``, or a
        failed cell that somehow reached the store -- is logged, counted
        as one corrupt read in ``stats().corrupt`` and reported as a miss,
        never raised.

        ``arrays=False`` is for readers that answer from the JSON side
        only (the detection service): the ``.npz`` is still read and its
        digest checked, but it is not decoded, so the read never takes
        the npz decode lock.  The hit is the array-stripped result of
        :meth:`ScenarioResult.from_wire` -- no array data, shapes and
        dtypes kept -- whose ``wire_json()`` is byte-identical.
        """
        key = self.key_for(spec)
        json_path = self._json_path(key)
        try:
            document = json.loads(json_path.read_text())
        except FileNotFoundError:
            with self._stats_lock:
                self._misses += 1
            return None
        except (OSError, json.JSONDecodeError) as error:
            self._note_corrupt(key, f"unreadable entry document ({error})")
            return None
        problem = self._document_problem(document, key)
        if problem is not None:
            self._note_corrupt(key, problem)
            return None
        npz_bytes: Optional[bytes] = None
        if document["npz_sha256"] is not None:
            try:
                npz_bytes = self._npz_path(key).read_bytes()
            except OSError as error:
                self._note_corrupt(key, f"missing arrays file ({error})")
                return None
            if _npz_digest(npz_bytes) != document["npz_sha256"]:
                self._note_corrupt(key, "arrays digest mismatch")
                return None
        try:
            result = ScenarioResult._from_wire_parts(
                document["artifact"], npz_bytes if arrays else None
            )
        except _REBUILD_ERRORS as error:
            self._note_corrupt(key, f"artifact failed to rebuild ({error})")
            return None
        with self._stats_lock:
            self._hits += 1
        return result

    def _note_corrupt(self, key: str, problem: str) -> None:
        with self._stats_lock:
            self._corrupt += 1
            self._misses += 1
        logger.warning("result store %s: entry %s %s; treating as a miss",
                       self.root, key[:12], problem)

    def _document_problem(self, document, key: str) -> Optional[str]:
        """Why an entry document must not be served, or ``None`` if fine."""
        if not isinstance(document, dict):
            return "is not a JSON object"
        if document.get("store_schema_version") != STORE_SCHEMA_VERSION:
            return (
                "has unsupported store schema "
                f"{document.get('store_schema_version')!r}"
            )
        for field_name in ("key", "spec_hash", "salt", "artifact"):
            if field_name not in document:
                return f"is missing the {field_name!r} field"
        if "npz_sha256" not in document:
            return "is missing the 'npz_sha256' field"
        if document["key"] != key:
            return "was stored under a different key"
        if store_key(document["spec_hash"], document["salt"]) != key:
            return "key does not match its (spec hash, salt)"
        artifact = document["artifact"]
        if not isinstance(artifact, dict):
            return "artifact is not a JSON object"
        if artifact.get("error") is not None:
            # Defense in depth: put() refuses failed results, but a store
            # is plain files anyone can write -- never serve a failure.
            return "records a failed cell"
        return None

    # -- write side ------------------------------------------------------------

    def put(self, result: ScenarioResult) -> pathlib.Path:
        """Memoize one successful result; returns the entry document path.

        Failed cells are never memoized (a resumed sweep must re-execute
        them), so ``put`` raises :class:`ValueError` on ``result.ok``
        being ``False``.
        """
        if not result.ok:
            raise ValueError(
                f"refusing to memoize failed scenario {result.name!r}: "
                "failed cells must re-execute on resume"
            )
        key = self.key_for(result.spec)
        wire = result.to_wire()
        npz_bytes: Optional[bytes] = wire["npz"]
        document = {
            "store_schema_version": STORE_SCHEMA_VERSION,
            "key": key,
            "spec_hash": result.spec.spec_hash(),
            "salt": self.salt,
            "npz_sha256": _npz_digest(npz_bytes) if npz_bytes is not None else None,
            "artifact": json.loads(wire["json"]),
        }
        json_path = self._json_path(key)
        json_path.parent.mkdir(parents=True, exist_ok=True)
        # .npz first, entry document last: the JSON is the commit point,
        # so a reader never sees a document whose arrays are not on disk
        # yet.  Identical concurrent writers interleave harmlessly -- the
        # npz bytes are deterministic for one scenario, and os.replace is
        # atomic, so any winner leaves a self-consistent pair.
        if npz_bytes is not None:
            self._atomic_write(self._npz_path(key), npz_bytes)
        else:
            self._npz_path(key).unlink(missing_ok=True)
        self._atomic_write(
            json_path,
            (json.dumps(document, indent=2, sort_keys=True) + "\n").encode("utf-8"),
        )
        with self._stats_lock:
            self._writes += 1
        return json_path

    @staticmethod
    def _atomic_write(path: pathlib.Path, data: bytes) -> None:
        tmp = path.with_name(f"{path.name}.tmp-{os.getpid()}")
        try:
            tmp.write_bytes(data)
            os.replace(tmp, path)
        finally:
            tmp.unlink(missing_ok=True)

    # -- maintenance -----------------------------------------------------------

    def stats(self) -> StoreStats:
        """Scan the directory and combine it with this session's counters."""
        entries = stale = invalid = total_bytes = 0
        per_kind: Dict[str, int] = {}
        for json_path in self._entry_paths():
            total_bytes += json_path.stat().st_size
            npz_path = json_path.with_suffix(".npz")
            if npz_path.is_file():
                total_bytes += npz_path.stat().st_size
            try:
                document = json.loads(json_path.read_text())
                salt = document["salt"]
                kind = document["artifact"]["spec"]["kind"]
            except (OSError, json.JSONDecodeError, KeyError, TypeError):
                invalid += 1
                continue
            if salt != self.salt:
                stale += 1
                continue
            entries += 1
            per_kind[kind] = per_kind.get(kind, 0) + 1
        return StoreStats(
            root=str(self.root),
            salt=self.salt,
            entries=entries,
            stale=stale,
            invalid=invalid,
            total_bytes=total_bytes,
            per_kind=per_kind,
            **self.counters(),
        )

    def counters(self) -> Dict[str, int]:
        """This session's ``hits``/``misses``/``writes``/``corrupt``, from memory.

        The counters of :class:`StoreStats` without its disk scan.
        """
        with self._stats_lock:
            return {
                "hits": self._hits,
                "misses": self._misses,
                "writes": self._writes,
                "corrupt": self._corrupt,
            }

    def verify(self) -> List[str]:
        """Integrity-check every entry; returns a list of problems.

        Checks each entry document (schema, key consistency, no failed
        cells), rebuilds its artifact, re-hashes its ``.npz`` bytes, and
        flags orphaned ``.npz`` files with no entry document.  An empty
        list means the whole store is servable.
        """
        problems: List[str] = []
        seen_npz = set()
        for json_path in self._entry_paths():
            key = json_path.stem
            try:
                document = json.loads(json_path.read_text())
            except (OSError, json.JSONDecodeError) as error:
                problems.append(f"{key}: unreadable entry document ({error})")
                continue
            problem = self._document_problem(document, key)
            if problem is not None:
                problems.append(f"{key}: {problem}")
                continue
            npz_bytes = None
            if document["npz_sha256"] is not None:
                npz_path = self._npz_path(key)
                seen_npz.add(npz_path)
                try:
                    npz_bytes = npz_path.read_bytes()
                except OSError:
                    problems.append(f"{key}: arrays file missing")
                    continue
                if _npz_digest(npz_bytes) != document["npz_sha256"]:
                    problems.append(f"{key}: arrays digest mismatch")
                    continue
            try:
                ScenarioResult._from_wire_parts(document["artifact"], npz_bytes)
            except _REBUILD_ERRORS as error:
                problems.append(f"{key}: artifact failed to rebuild ({error})")
        for npz_path in sorted(self.root.glob("*/*.npz")):
            if npz_path not in seen_npz and not npz_path.with_suffix(".json").is_file():
                problems.append(f"{npz_path.stem}: orphaned arrays file")
        return problems

    def gc(self) -> Tuple[int, int]:
        """Remove stale-salt, invalid and orphaned files.

        Returns ``(files_removed, bytes_freed)``.  Entries written under
        the current salt that verify cleanly are kept; everything else --
        another commit's entries, unreadable documents, ``.npz`` files
        whose document is gone or whose digest does not match -- is
        deleted, so the store only ever holds cells the current code
        would serve.
        """
        removed = freed = 0

        def drop(path: pathlib.Path) -> None:
            nonlocal removed, freed
            try:
                freed += path.stat().st_size
                path.unlink()
                removed += 1
            except OSError:  # pragma: no cover - racing cleanup
                pass

        for json_path in self._entry_paths():
            key = json_path.stem
            npz_path = self._npz_path(key)
            try:
                document = json.loads(json_path.read_text())
            except (OSError, json.JSONDecodeError):
                document = None
            stale = (
                document is None
                or self._document_problem(document, key) is not None
                or document["salt"] != self.salt
            )
            if not stale and document["npz_sha256"] is not None:
                try:
                    stale = _npz_digest(npz_path.read_bytes()) != document["npz_sha256"]
                except OSError:
                    stale = True
            if stale:
                drop(json_path)
                if npz_path.is_file():
                    drop(npz_path)
        for npz_path in sorted(self.root.glob("*/*.npz")):
            if not npz_path.with_suffix(".json").is_file():
                drop(npz_path)
        for shard in sorted(self.root.glob("*/")):
            try:
                shard.rmdir()  # only succeeds when the shard emptied out
            except OSError:
                pass
        return removed, freed
