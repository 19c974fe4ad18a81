"""Signed detection transcripts: HMAC-SHA256 over canonical JSON.

A *transcript* is the publicly shareable record of one service operation:
for ``/verify`` the detection statistic, decision, detection parameters,
spec hash, code commit, schema versions and a provenance summary; for
``/issue`` the embedded (seed-redacted) watermark configuration and the
salted seed commitment.  The server signs ``canonical_json(transcript)``
with a persistent HMAC key, so anyone holding the key can re-verify a
transcript offline -- no server, no arrays, no ``.npz`` payload required
(:func:`build_verify_transcript` deliberately reads only wire-JSON fields
of the result, never the arrays).

Secrets live under the service data dir, created on first use:

* ``hmac.key`` -- the transcript-signing key;
* ``server_salt.bin`` -- the commitment salt (``/issue`` logs
  ``sha256(salt | seed)``, never the raw watermark seed).

Key creation is the service's one sanctioned entropy site (DET001): the
key *must* differ per deployment, which is exactly the property the
determinism rule exists to ban everywhere else.
"""

from __future__ import annotations

import hashlib
import hmac
import os
import pathlib
from typing import Any, Dict, Union

from repro.core.spec import ScenarioSpec
from repro.pipeline.artifacts import ScenarioResult, current_commit, provenance_clock
from repro.service.protocol import canonical_json, schema_versions

__all__ = [
    "HMAC_KEY_FILE",
    "SERVER_SALT_FILE",
    "TRANSCRIPT_VERSION",
    "build_issue_transcript",
    "build_verify_transcript",
    "load_or_create_secret",
    "redacted_watermark",
    "seed_commitment",
    "sign_transcript",
    "transcript_digest",
    "verify_signature",
]

PathLike = Union[str, pathlib.Path]

#: Version of the signed transcript shape.
TRANSCRIPT_VERSION = 1

#: File names under the service data dir.
HMAC_KEY_FILE = "hmac.key"
SERVER_SALT_FILE = "server_salt.bin"

#: Secrets shorter than this are refused (likely truncated files).
_MIN_SECRET_BYTES = 16

#: Scalar keys tried, in order, for the transcript's headline statistic.
_STATISTIC_KEYS = ("z_score", "peak_correlation", "detection_probability")

#: Scalar keys tried, in order, for the transcript's decision bit.
_DECISION_KEYS = ("detected", "decision")


def load_or_create_secret(path: PathLike, num_bytes: int = 32) -> bytes:
    """Read a secret file, creating it (0600) with fresh entropy if absent.

    Raises :class:`ValueError` on an existing-but-implausibly-short file
    rather than signing with a truncated key.
    """
    path = pathlib.Path(path)
    try:
        secret = path.read_bytes()
    except FileNotFoundError:
        path.parent.mkdir(parents=True, exist_ok=True)
        secret = os.urandom(num_bytes)
        tmp = path.with_name(f"{path.name}.tmp-{os.getpid()}")
        try:
            tmp.write_bytes(secret)
            os.chmod(tmp, 0o600)
            os.replace(tmp, path)
        finally:
            tmp.unlink(missing_ok=True)
        return secret
    if len(secret) < _MIN_SECRET_BYTES:
        raise ValueError(
            f"secret file {path} holds {len(secret)} byte(s); "
            f"at least {_MIN_SECRET_BYTES} required (truncated?)"
        )
    return secret


def server_key(data_dir: PathLike) -> bytes:
    """The transcript-signing HMAC key under ``data_dir`` (created once)."""
    return load_or_create_secret(pathlib.Path(data_dir) / HMAC_KEY_FILE)


def server_salt(data_dir: PathLike) -> bytes:
    """The commitment salt under ``data_dir`` (created once)."""
    return load_or_create_secret(pathlib.Path(data_dir) / SERVER_SALT_FILE)


# -- signing ---------------------------------------------------------------------


def sign_transcript(transcript: Dict[str, Any], key: bytes) -> str:
    """Hex HMAC-SHA256 over the canonical JSON form of ``transcript``."""
    return hmac.new(
        key, canonical_json(transcript).encode("utf-8"), hashlib.sha256
    ).hexdigest()


def verify_signature(
    transcript: Dict[str, Any], signature: str, key: bytes
) -> bool:
    """Constant-time check of a transcript signature."""
    return hmac.compare_digest(sign_transcript(transcript, key), str(signature))


def transcript_digest(transcript: Dict[str, Any]) -> str:
    """Unkeyed sha256 of the canonical transcript (the ledger's reference)."""
    return hashlib.sha256(
        canonical_json(transcript).encode("utf-8")
    ).hexdigest()


# -- commitments -----------------------------------------------------------------


def seed_commitment(seed: int, salt: bytes) -> str:
    """The salted commitment ``/issue`` logs instead of the raw seed."""
    return hashlib.sha256(salt + b"|" + str(int(seed)).encode("ascii")).hexdigest()


def redacted_watermark(spec: ScenarioSpec) -> Dict[str, Any]:
    """The spec's watermark config with the secret LFSR seed removed.

    Transcripts and ledger records are meant to be shown to third
    parties; the commitment proves the server knew the seed without
    revealing it.
    """
    config = spec.watermark.to_dict()
    config.pop("lfsr_seed", None)
    return config


# -- transcript builders ---------------------------------------------------------


def _first_scalar(scalars: Dict[str, Any], keys: "tuple[str, ...]") -> Any:
    for key in keys:
        if key in scalars:
            return scalars[key]
    return None


def build_verify_transcript(result: ScenarioResult) -> Dict[str, Any]:
    """The signed payload of one ``/verify`` operation.

    Built exclusively from the wire-JSON side of the result (spec,
    scalars, provenance, report text) -- never the arrays -- so a client
    holding only the array-stripped wire form reconstructs this
    transcript byte-identically and re-verifies the signature offline.
    Deterministic for a given stored result: serving the same cell twice
    yields byte-identical transcripts.
    """
    if not result.ok:
        raise ValueError(
            f"cannot build a transcript for failed scenario {result.name!r}"
        )
    scalars = dict(result.scalars)
    provenance = result.provenance
    return {
        "transcript_version": TRANSCRIPT_VERSION,
        "type": "verify",
        "scenario": result.name,
        "kind": result.spec.kind,
        "spec_hash": provenance.spec_hash,
        "statistic": _first_scalar(scalars, _STATISTIC_KEYS),
        "decision": _first_scalar(scalars, _DECISION_KEYS),
        "scalars": scalars,
        "detection_params": result.spec.detection.to_dict(),
        "commit": provenance.commit,
        "schema_versions": schema_versions(),
        "provenance": {
            "created_at": provenance.created_at,
            "elapsed_s": provenance.elapsed_s,
            "attempts": provenance.attempts,
            "environment": dict(provenance.environment),
        },
        "report_sha256": hashlib.sha256(
            result.report.encode("utf-8")
        ).hexdigest(),
    }


def build_issue_transcript(
    spec: ScenarioSpec, commitment: str
) -> Dict[str, Any]:
    """The signed payload of one ``/issue`` operation (seed redacted)."""
    return {
        "transcript_version": TRANSCRIPT_VERSION,
        "type": "issue",
        "scenario": spec.name or spec.kind,
        "kind": spec.kind,
        "spec_hash": spec.spec_hash(),
        "watermark": redacted_watermark(spec),
        "commitment": commitment,
        "commit": current_commit(),
        "schema_versions": schema_versions(),
        "issued_at": provenance_clock(),
    }
