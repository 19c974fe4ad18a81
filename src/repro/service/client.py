"""Stdlib client for the detection service: ticket mining + posting.

:class:`ServiceClient` wraps ``urllib.request`` -- no dependencies -- and
does the protocol chores a caller shouldn't hand-roll: it discovers the
server's PoW difficulty from ``/healthz``, mines the hashcash nonce for
each POST body (:func:`repro.service.protocol.mine_nonce`), and turns
structured error responses into :class:`ServiceHTTPError`.  Tests, the
example script and the CI smoke job all drive the service through this
module.

Offline use: :func:`result_from` rebuilds the (array-stripped)
:class:`~repro.pipeline.artifacts.ScenarioResult` from a ``/verify``
response, and :meth:`ServiceClient.verify_transcript` checks a response's
HMAC signature against a key file -- no server required for either.
"""

from __future__ import annotations

import json
import pathlib
import urllib.error
import urllib.request
from typing import Any, Dict, Optional, Union

from repro.pipeline.artifacts import ScenarioResult
from repro.service.protocol import (
    ISSUE_ENDPOINT,
    PROTOCOL_VERSION,
    VERIFY_ENDPOINT,
    mine_nonce,
)
from repro.service.transcripts import verify_signature

__all__ = ["ServiceClient", "ServiceHTTPError", "result_from"]


class ServiceHTTPError(Exception):
    """A non-2xx service response, decoded into its structured error."""

    def __init__(self, status: int, code: str, message: str) -> None:
        super().__init__(f"HTTP {status} [{code}]: {message}")
        self.status = status
        self.code = code
        self.message = message


def result_from(response: Dict[str, Any]) -> ScenarioResult:
    """The :class:`ScenarioResult` a ``/verify`` response carries.

    The service ships the wire JSON without the ``.npz`` array payload,
    so the rebuilt result has no array data (only the arrays' metadata);
    scalars, report and provenance are bit-exact.
    """
    return ScenarioResult.from_wire({"json": response["result_json"], "npz": None})


class ServiceClient:
    """One client identity against one detection service."""

    def __init__(
        self,
        base_url: str,
        client_id: str = "local",
        difficulty: Optional[int] = None,
        timeout_s: float = 120.0,
    ) -> None:
        self.base_url = base_url.rstrip("/")
        self.client_id = client_id
        self.timeout_s = timeout_s
        self._difficulty = difficulty

    # -- transport -------------------------------------------------------------

    def _request(
        self, method: str, path: str, body: Optional[bytes] = None
    ) -> Dict[str, Any]:
        request = urllib.request.Request(
            f"{self.base_url}{path}",
            data=body,
            method=method,
            headers={"Content-Type": "application/json"} if body else {},
        )
        try:
            with urllib.request.urlopen(request, timeout=self.timeout_s) as reply:
                return json.loads(reply.read().decode("utf-8"))
        except urllib.error.HTTPError as error:
            raw = error.read().decode("utf-8", errors="replace")
            try:
                detail = json.loads(raw).get("error", {})
            except json.JSONDecodeError:
                detail = {}
            raise ServiceHTTPError(
                error.code,
                detail.get("code", "unknown"),
                detail.get("message", raw.strip() or error.reason),
            ) from error

    def _get(self, path: str) -> Dict[str, Any]:
        return self._request("GET", path)

    def _post(self, endpoint: str, payload: Dict[str, Any]) -> Dict[str, Any]:
        body = dict(payload)
        body.setdefault("protocol_version", PROTOCOL_VERSION)
        body.setdefault("client_id", self.client_id)
        difficulty = self.difficulty()
        if difficulty > 0:
            body["nonce"] = mine_nonce(
                body["client_id"], endpoint, body, difficulty
            )
        return self._request(
            "POST", endpoint, json.dumps(body, sort_keys=True).encode("utf-8")
        )

    # -- endpoints -------------------------------------------------------------

    def difficulty(self) -> int:
        """The server's PoW difficulty (fetched from ``/healthz`` once)."""
        if self._difficulty is None:
            self._difficulty = int(self.healthz().get("difficulty", 0))
        return self._difficulty

    def healthz(self) -> Dict[str, Any]:
        """GET ``/healthz``."""
        return self._get("/healthz")

    def metrics(self) -> Dict[str, Any]:
        """GET ``/metrics``."""
        return self._get("/metrics")

    def verify(
        self,
        scenario: Optional[str] = None,
        spec: Optional[Dict[str, Any]] = None,
        overrides: Optional[Dict[str, Any]] = None,
    ) -> Dict[str, Any]:
        """POST ``/verify`` with a mined ticket; returns the response dict."""
        return self._post(
            VERIFY_ENDPOINT, self._scenario_body(scenario, spec, overrides)
        )

    def issue(
        self,
        scenario: Optional[str] = None,
        spec: Optional[Dict[str, Any]] = None,
        overrides: Optional[Dict[str, Any]] = None,
    ) -> Dict[str, Any]:
        """POST ``/issue`` with a mined ticket; returns the response dict."""
        return self._post(
            ISSUE_ENDPOINT, self._scenario_body(scenario, spec, overrides)
        )

    @staticmethod
    def _scenario_body(
        scenario: Optional[str],
        spec: Optional[Dict[str, Any]],
        overrides: Optional[Dict[str, Any]],
    ) -> Dict[str, Any]:
        body: Dict[str, Any] = {}
        if scenario is not None:
            body["scenario"] = scenario
        if spec is not None:
            body["spec"] = spec
        if overrides:
            body["overrides"] = dict(overrides)
        return body

    # -- offline checks --------------------------------------------------------

    @staticmethod
    def verify_transcript(
        response: Dict[str, Any], key: Union[bytes, str, pathlib.Path]
    ) -> bool:
        """Check a response's transcript signature against the server key.

        ``key`` is the raw key bytes or a path to the server's
        ``hmac.key`` file.  Runs entirely offline.
        """
        if not isinstance(key, bytes):
            key = pathlib.Path(key).read_bytes()
        return verify_signature(response["transcript"], response["signature"], key)
