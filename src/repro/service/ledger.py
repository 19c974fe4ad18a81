"""Append-only, hash-chained JSONL operation ledger.

Every service operation (an issued watermark, a verification) appends one
record.  Records are chained: each embeds the previous record's digest,
and its own digest covers ``{index, prev, payload}`` in canonical JSON::

    {"index": 0, "prev": "000...0", "payload": {...}, "digest": sha256(...)}
    {"index": 1, "prev": "<digest of record 0>", "payload": {...}, ...}

so editing, reordering or deleting any interior record breaks the chain.
Tail truncation -- deleting the newest records, which a bare chain cannot
detect -- is caught by a sidecar *head* file (``<ledger>.head``) updated
atomically on every append with the current record count and tip digest;
:meth:`Ledger.verify` cross-checks the chain against it.

The ledger is plain text on purpose: ``jq``-able, greppable, and
verifiable by a third party with nothing but this module (no server key
involved -- transcript signatures are a separate layer, see
:mod:`repro.service.transcripts`).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pathlib
import threading
from typing import Any, Dict, List, Optional, Union

from repro.service.protocol import canonical_json

__all__ = ["GENESIS_DIGEST", "Ledger", "LedgerAnchor"]

PathLike = Union[str, pathlib.Path]

#: The ``prev`` digest of the first record (no predecessor).
GENESIS_DIGEST = "0" * 64

#: Fields every ledger line must carry.
_RECORD_FIELDS = ("index", "prev", "payload", "digest")


def _record_digest(index: int, prev: str, payload: Dict[str, Any]) -> str:
    body = canonical_json({"index": index, "prev": prev, "payload": payload})
    return hashlib.sha256(body.encode("utf-8")).hexdigest()


@dataclasses.dataclass(frozen=True)
class LedgerAnchor:
    """Where one record landed: its index and chain digest (the "TXID")."""

    index: int
    digest: str

    def to_json_dict(self) -> Dict[str, Any]:
        """JSON-able representation (embedded in service responses)."""
        return {"index": self.index, "digest": self.digest}


class Ledger:
    """One append-only JSONL ledger file plus its head sidecar.

    Appends are serialized under a lock and flushed to disk before the
    head file is atomically replaced -- the head never references a
    record that is not durably in the ledger.  Opening an existing ledger
    recovers the tip by scanning once.
    """

    def __init__(self, path: PathLike) -> None:
        self.path = pathlib.Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self._count, self._tip = self._scan_tip()

    @property
    def head_path(self) -> pathlib.Path:
        """The sidecar recording the expected record count and tip digest."""
        return self.path.with_name(self.path.name + ".head")

    @property
    def count(self) -> int:
        """Records appended so far (as recovered at open plus this session)."""
        with self._lock:
            return self._count

    @property
    def tip_digest(self) -> str:
        """Digest of the newest record (:data:`GENESIS_DIGEST` when empty)."""
        with self._lock:
            return self._tip

    def _scan_tip(self) -> "tuple[int, str]":
        count, tip = 0, GENESIS_DIGEST
        try:
            lines = self.path.read_text().splitlines()
        except FileNotFoundError:
            return count, tip
        for line in lines:
            if not line.strip():
                continue
            try:
                record = json.loads(line)
                tip = record["digest"]
            except (json.JSONDecodeError, KeyError, TypeError):
                # A torn trailing write; verify() reports it, appends go
                # after it so the damage stays visible rather than being
                # silently overwritten.
                continue
            count += 1
        return count, tip

    # -- writing ---------------------------------------------------------------

    def append(self, payload: Dict[str, Any]) -> LedgerAnchor:
        """Append one record; returns its anchor (index + chain digest)."""
        with self._lock:
            index = self._count
            digest = _record_digest(index, self._tip, payload)
            record = {
                "index": index,
                "prev": self._tip,
                "payload": payload,
                "digest": digest,
            }
            line = json.dumps(record, sort_keys=True) + "\n"
            with open(self.path, "a", encoding="utf-8") as handle:
                handle.write(line)
                handle.flush()
                os.fsync(handle.fileno())
            self._count = index + 1
            self._tip = digest
            self._write_head(self._count, digest)
            return LedgerAnchor(index=index, digest=digest)

    def _write_head(self, count: int, digest: str) -> None:
        head = canonical_json({"count": count, "digest": digest}) + "\n"
        tmp = self.head_path.with_name(f"{self.head_path.name}.tmp-{os.getpid()}")
        try:
            tmp.write_text(head)
            os.replace(tmp, self.head_path)
        finally:
            tmp.unlink(missing_ok=True)

    # -- verification ----------------------------------------------------------

    def verify(self) -> List[str]:
        """Integrity-check the whole ledger; returns a list of problems.

        Detects edited payloads (digest mismatch), spliced/reordered/
        deleted interior records (chain break, index gap), torn trailing
        writes (unparseable line) and tail truncation (head sidecar
        disagrees with the file).  An empty list means every record is
        intact and the chain reaches the recorded head.
        """
        problems: List[str] = []
        records: List[Dict[str, Any]] = []
        try:
            lines = self.path.read_text().splitlines()
        except FileNotFoundError:
            lines = []
        for lineno, line in enumerate(lines, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                problems.append(
                    f"line {lineno}: unparseable record (torn or tampered write)"
                )
                continue
            if not isinstance(record, dict) or any(
                field not in record for field in _RECORD_FIELDS
            ):
                problems.append(
                    f"line {lineno}: record is missing required fields "
                    f"{_RECORD_FIELDS}"
                )
                continue
            records.append(record)
        prev = GENESIS_DIGEST
        for position, record in enumerate(records):
            label = f"record {record.get('index')!r} (position {position})"
            if record["index"] != position:
                problems.append(
                    f"{label}: index does not match its position "
                    "(record inserted or deleted)"
                )
            if record["prev"] != prev:
                problems.append(
                    f"{label}: chain break -- prev digest does not match "
                    "the preceding record"
                )
            expected = _record_digest(
                record["index"], record["prev"], record["payload"]
            )
            if record["digest"] != expected:
                problems.append(f"{label}: digest mismatch (payload tampered)")
            prev = record["digest"]
        head = self._read_head()
        if head is None:
            if records:
                problems.append(
                    "head sidecar missing: tail truncation cannot be ruled out"
                )
        else:
            if head.get("count") != len(records):
                problems.append(
                    f"truncation: head records {head.get('count')} entr(y/ies) "
                    f"but the ledger holds {len(records)}"
                )
            elif records and head.get("digest") != records[-1]["digest"]:
                problems.append(
                    "head digest does not match the newest record "
                    "(tail rewritten)"
                )
        return problems

    def _read_head(self) -> Optional[Dict[str, Any]]:
        try:
            head = json.loads(self.head_path.read_text())
        except (FileNotFoundError, json.JSONDecodeError, OSError):
            return None
        return head if isinstance(head, dict) else None

