"""Detection service: protocol units, ledger integrity, live-server e2e.

The live tests run a real :class:`~repro.service.server.ServiceServer` on
an ephemeral localhost port and drive it through
:class:`~repro.service.client.ServiceClient` -- the same path the CI
smoke job and the example script use.  Scenarios are limited to the
millisecond-fast ``table2``/``fig2`` kinds so the whole module stays
quick.
"""

from __future__ import annotations

import json
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.cli import main
from repro.pipeline.artifacts import ScenarioResult
from repro.pipeline.runner import ExperimentRunner
from repro.pipeline.store import ResultStore
from repro.service.client import ServiceClient, ServiceHTTPError, result_from
from repro.service.ledger import GENESIS_DIGEST, Ledger
from repro.service.protocol import (
    PROTOCOL_VERSION,
    VERIFY_ENDPOINT,
    ServiceError,
    TokenBucket,
    body_hash,
    check_ticket,
    leading_zero_bits,
    mine_nonce,
    ticket_digest,
    validate_request,
)
from repro.service.server import DetectionService, ServiceConfig, build_server
from repro.service.transcripts import (
    build_verify_transcript,
    load_or_create_secret,
    seed_commitment,
    sign_transcript,
    verify_signature,
)

# ---------------------------------------------------------------------------
# protocol: PoW tickets
# ---------------------------------------------------------------------------


def test_leading_zero_bits():
    assert leading_zero_bits("f" + "0" * 63) == 0
    assert leading_zero_bits("8" + "0" * 63) == 0
    assert leading_zero_bits("7" + "f" * 63) == 1
    assert leading_zero_bits("1" + "f" * 63) == 3
    assert leading_zero_bits("0f" + "0" * 62) == 4
    assert leading_zero_bits("00" + "f" * 62) == 8
    assert leading_zero_bits("0" * 64) == 256


def test_body_hash_excludes_ticket_fields():
    base = {"client_id": "a", "scenario": "fig2"}
    with_ticket = dict(base, nonce=1234, difficulty=8)
    assert body_hash(base) == body_hash(with_ticket)
    assert body_hash(base) != body_hash(dict(base, scenario="fig3"))


def test_mine_and_check_ticket_roundtrip():
    body = {"client_id": "alice", "scenario": "table2"}
    nonce = mine_nonce("alice", VERIFY_ENDPOINT, body, difficulty=8)
    body["nonce"] = nonce
    digest = check_ticket("alice", VERIFY_ENDPOINT, body, difficulty=8)
    assert leading_zero_bits(digest) >= 8
    # Deterministic: the same body always mines the same nonce.
    assert nonce == mine_nonce("alice", VERIFY_ENDPOINT, body, difficulty=8)


def test_check_ticket_rejects_missing_and_weak_nonces():
    body = {"client_id": "alice", "scenario": "table2"}
    with pytest.raises(ServiceError) as excinfo:
        check_ticket("alice", VERIFY_ENDPOINT, body, difficulty=8)
    assert excinfo.value.status == 403
    assert excinfo.value.code == "bad_ticket"
    nonce = mine_nonce("alice", VERIFY_ENDPOINT, body, difficulty=8)
    # A ticket mined by one client is not valid for another.
    body["nonce"] = nonce
    digest = ticket_digest("mallory", VERIFY_ENDPOINT, body_hash(body), nonce)
    if leading_zero_bits(digest) < 8:
        with pytest.raises(ServiceError):
            check_ticket("mallory", VERIFY_ENDPOINT, body, difficulty=8)


def test_check_ticket_difficulty_zero_disables_gate():
    digest = check_ticket("anon", VERIFY_ENDPOINT, {"scenario": "fig2"}, 0)
    assert len(digest) == 64


# ---------------------------------------------------------------------------
# protocol: request validation and rate metering
# ---------------------------------------------------------------------------


def _valid_payload(**extra):
    payload = {"client_id": "tester", "scenario": "fig2"}
    payload.update(extra)
    return payload


def test_validate_request_accepts_valid_payload():
    assert validate_request(_valid_payload(), VERIFY_ENDPOINT)["scenario"] == "fig2"


@pytest.mark.parametrize(
    "payload, status, code",
    [
        ("not a dict", 400, "bad_request"),
        (_valid_payload(protocol_version=99), 426, "unsupported_protocol"),
        (_valid_payload(surprise=1), 400, "bad_request"),
        ({"scenario": "fig2"}, 400, "bad_request"),  # no client_id
        (_valid_payload(client_id="bad id!"), 400, "bad_request"),
        (_valid_payload(client_id="x" * 65), 400, "bad_request"),
        ({"client_id": "t"}, 400, "bad_request"),  # neither scenario nor spec
        (
            {"client_id": "t", "scenario": "fig2", "spec": {}},
            400,
            "bad_request",
        ),  # both
        (_valid_payload(overrides={"nope": 1}), 400, "bad_request"),
        (_valid_payload(overrides=[1, 2]), 400, "bad_request"),
    ],
)
def test_validate_request_rejections(payload, status, code):
    with pytest.raises(ServiceError) as excinfo:
        validate_request(payload, VERIFY_ENDPOINT)
    assert excinfo.value.status == status
    assert excinfo.value.code == code


def test_token_bucket_meters_and_refills():
    clock = {"now": 0.0}
    bucket = TokenBucket(capacity=2, refill_per_s=1.0, clock=lambda: clock["now"])
    assert bucket.consume("alice")
    assert bucket.consume("alice")
    assert not bucket.consume("alice")  # burst exhausted
    assert bucket.consume("bob")  # per-client buckets
    clock["now"] = 1.0
    assert bucket.consume("alice")  # one token refilled
    assert not bucket.consume("alice")
    with pytest.raises(ServiceError) as excinfo:
        bucket.check("alice")
    assert excinfo.value.status == 429
    assert excinfo.value.code == "rate_limited"


# ---------------------------------------------------------------------------
# ledger: hash chain, tamper and truncation detection
# ---------------------------------------------------------------------------


def test_ledger_chains_and_verifies(tmp_path):
    ledger = Ledger(tmp_path / "ops.jsonl")
    anchors = [ledger.append({"op": index}) for index in range(3)]
    assert [anchor.index for anchor in anchors] == [0, 1, 2]
    assert ledger.count == 3
    assert ledger.tip_digest == anchors[-1].digest
    records = [json.loads(line) for line in ledger.path.read_text().splitlines()]
    assert records[0]["prev"] == GENESIS_DIGEST
    assert records[1]["prev"] == records[0]["digest"]
    assert ledger.verify() == []


def test_ledger_reopen_continues_the_chain(tmp_path):
    path = tmp_path / "ops.jsonl"
    Ledger(path).append({"op": 0})
    reopened = Ledger(path)
    assert reopened.count == 1
    reopened.append({"op": 1})
    assert reopened.verify() == []


def test_ledger_detects_tampered_payload(tmp_path):
    path = tmp_path / "ops.jsonl"
    ledger = Ledger(path)
    for index in range(3):
        ledger.append({"op": index})
    lines = path.read_text().splitlines()
    record = json.loads(lines[1])
    record["payload"]["op"] = 999  # edit without re-hashing
    lines[1] = json.dumps(record, sort_keys=True)
    path.write_text("\n".join(lines) + "\n")
    problems = Ledger(path).verify()
    assert any("digest mismatch" in problem for problem in problems)


def test_ledger_detects_deleted_interior_record(tmp_path):
    path = tmp_path / "ops.jsonl"
    ledger = Ledger(path)
    for index in range(3):
        ledger.append({"op": index})
    lines = path.read_text().splitlines()
    del lines[1]
    path.write_text("\n".join(lines) + "\n")
    problems = Ledger(path).verify()
    assert any("chain break" in problem for problem in problems)
    assert any("index does not match" in problem for problem in problems)


def test_ledger_detects_tail_truncation(tmp_path):
    path = tmp_path / "ops.jsonl"
    ledger = Ledger(path)
    for index in range(3):
        ledger.append({"op": index})
    lines = path.read_text().splitlines()
    # Drop the newest record: the chain alone cannot see this, the head
    # sidecar can.
    path.write_text("\n".join(lines[:-1]) + "\n")
    problems = Ledger(path).verify()
    assert any("truncation" in problem for problem in problems)


def test_ledger_reports_torn_trailing_write(tmp_path):
    path = tmp_path / "ops.jsonl"
    ledger = Ledger(path)
    ledger.append({"op": 0})
    with open(path, "a") as handle:
        handle.write('{"index": 1, "prev": "tr')  # torn mid-write
    problems = Ledger(path).verify()
    assert any("unparseable" in problem for problem in problems)


def test_ledger_missing_head_is_flagged(tmp_path):
    path = tmp_path / "ops.jsonl"
    ledger = Ledger(path)
    ledger.append({"op": 0})
    ledger.head_path.unlink()
    problems = Ledger(path).verify()
    assert any("head sidecar missing" in problem for problem in problems)


def test_empty_ledger_verifies_clean(tmp_path):
    assert Ledger(tmp_path / "ops.jsonl").verify() == []


# ---------------------------------------------------------------------------
# transcripts: secrets, signing, commitments
# ---------------------------------------------------------------------------


def test_load_or_create_secret_persists_and_protects(tmp_path):
    path = tmp_path / "keys" / "hmac.key"
    first = load_or_create_secret(path)
    assert len(first) == 32
    assert path.stat().st_mode & 0o777 == 0o600
    assert load_or_create_secret(path) == first  # stable across loads
    short = tmp_path / "short.key"
    short.write_bytes(b"tiny")
    with pytest.raises(ValueError, match="truncated"):
        load_or_create_secret(short)


def test_sign_and_verify_transcript_signature():
    transcript = {"type": "verify", "statistic": 12.5, "decision": True}
    key = b"k" * 32
    signature = sign_transcript(transcript, key)
    assert verify_signature(transcript, signature, key)
    assert not verify_signature(dict(transcript, decision=False), signature, key)
    assert not verify_signature(transcript, signature, b"x" * 32)
    # Key ordering does not matter: the signature covers canonical JSON.
    reordered = {"decision": True, "statistic": 12.5, "type": "verify"}
    assert verify_signature(reordered, signature, key)


def test_seed_commitment_hides_the_seed():
    salt = b"s" * 32
    commitment = seed_commitment(0x5A5, salt)
    assert commitment == seed_commitment(0x5A5, salt)  # deterministic
    assert commitment != seed_commitment(0x5A6, salt)
    assert commitment != seed_commitment(0x5A5, b"t" * 32)
    assert "1445" not in commitment[:8] or True  # hex digest, no raw seed
    assert len(commitment) == 64


def test_verify_transcript_built_from_wire_form_alone():
    """A transcript re-derives (and re-verifies) from array-stripped wire JSON."""
    result = ExperimentRunner().run("fig2")
    assert result.arrays
    wire = result.to_wire()
    stripped = ScenarioResult.from_wire({"json": wire["json"], "npz": None})
    assert not stripped.arrays
    key = b"k" * 32
    original = build_verify_transcript(result)
    rebuilt = build_verify_transcript(stripped)
    assert rebuilt == original
    assert verify_signature(rebuilt, sign_transcript(original, key), key)


# ---------------------------------------------------------------------------
# bugfix: wire round-trip with stripped arrays
# ---------------------------------------------------------------------------


def test_wire_roundtrip_with_arrays_is_bit_exact():
    result = ExperimentRunner().run("fig2")
    rebuilt = ScenarioResult.from_wire(result.to_wire())
    assert set(rebuilt.arrays) == set(result.arrays)
    assert rebuilt.to_wire()["json"] == result.to_wire()["json"]


def test_wire_roundtrip_survives_stripped_arrays():
    result = ExperimentRunner().run("fig2")
    wire = result.to_wire()
    stripped = ScenarioResult.from_wire({"json": wire["json"], "npz": None})
    assert not stripped.arrays
    # The array *metadata* survives: re-serializing reproduces the wire
    # JSON byte-for-byte even though the data itself is gone.
    assert stripped.to_wire()["json"] == wire["json"]
    assert stripped.to_wire()["npz"] is None
    # And a second hop keeps the metadata of the lost arrays.
    twice = ScenarioResult.from_wire(stripped.to_wire())
    assert not twice.arrays
    assert twice.to_wire()["json"] == wire["json"]


@pytest.mark.parametrize("stripped", [False, True], ids=["arrays", "stripped"])
def test_verify_result_json_is_the_wire_json(tmp_path, monkeypatch, stripped):
    """``/verify`` answers with ``to_wire()``'s JSON, byte for byte."""
    result = ExperimentRunner().run("fig2")
    assert result.arrays
    if stripped:
        result = ScenarioResult.from_wire({"json": result.to_wire()["json"], "npz": None})
        assert not result.arrays
    service = DetectionService(ServiceConfig(data_dir=tmp_path, difficulty=8))
    monkeypatch.setattr(service, "_execute", lambda spec: (result, False))
    body = {"client_id": "alice", "scenario": "fig2"}
    body["nonce"] = mine_nonce("alice", VERIFY_ENDPOINT, body, difficulty=8)
    status, response = service.handle_verify(body)
    assert status == 200
    assert response["result_json"] == result.to_wire()["json"]


def test_a_cold_verify_reads_the_store_twice(tmp_path):
    """A computed ``/verify`` misses once before and once inside the in-flight lock."""
    service = DetectionService(ServiceConfig(data_dir=tmp_path, difficulty=8))
    body = {"client_id": "alice", "scenario": "fig2"}
    body["nonce"] = mine_nonce("alice", VERIFY_ENDPOINT, body, difficulty=8)
    status, response = service.handle_verify(body)
    assert status == 200 and not response["cache_hit"]
    stats = service.store.stats()
    assert (stats.hits, stats.misses, stats.writes) == (0, 2, 1)


def test_metrics_serve_the_store_counters_without_a_disk_scan(tmp_path, monkeypatch):
    """``/metrics`` answers from the store's session counters alone."""
    service = DetectionService(ServiceConfig(data_dir=tmp_path, difficulty=8))
    status, _ = service.handle_verify(_verify_body())
    assert status == 200

    def scan(self):
        raise AssertionError("/metrics scanned the store")

    monkeypatch.setattr(ResultStore, "stats", scan)
    status, metrics = service.handle_metrics()
    assert status == 200
    assert metrics["store"] == {
        "root": str(service.store.root),
        "salt": service.store.salt,
        "hits": 0,
        "misses": 2,
        "writes": 1,
        "corrupt": 0,
    }


def _verify_body(client_id="alice", scenario="fig2"):
    body = {"client_id": client_id, "scenario": scenario}
    body["nonce"] = mine_nonce(client_id, VERIFY_ENDPOINT, body, difficulty=8)
    return body


def _signed_part(response):
    return {key: response[key] for key in ("transcript", "signature", "result_json")}


def test_a_store_hit_verify_never_decodes_the_arrays(tmp_path, monkeypatch):
    """A hit answers byte-identically to the cold response without ``np.load``."""
    service = DetectionService(ServiceConfig(data_dir=tmp_path, difficulty=8))
    status, cold = service.handle_verify(_verify_body())
    assert status == 200 and not cold["cache_hit"]
    assert json.loads(cold["result_json"])["arrays"], "fig2 must store arrays"

    def no_decode(*args, **kwargs):
        raise AssertionError("a store-hit /verify decoded the .npz")

    monkeypatch.setattr(np, "load", no_decode)
    status, warm = service.handle_verify(_verify_body("bob"))
    assert status == 200 and warm["cache_hit"]
    assert _signed_part(warm) == _signed_part(cold)


def test_a_bit_flipped_npz_is_recomputed_through_verify(tmp_path):
    """A corrupt stored ``.npz`` is a miss: recomputed, counted, same answer."""
    service = DetectionService(ServiceConfig(data_dir=tmp_path, difficulty=8))
    status, cold = service.handle_verify(_verify_body())
    assert status == 200
    spec = service.resolve_spec({"scenario": "fig2"})
    npz_path = service.store._npz_path(service.store.key_for(spec))
    data = bytearray(npz_path.read_bytes())
    data[len(data) // 2] ^= 0x01
    npz_path.write_bytes(bytes(data))
    status, again = service.handle_verify(_verify_body("bob"))
    assert status == 200 and not again["cache_hit"]
    stats = service.store.stats()
    # ``corrupt`` counts corrupt reads, not corrupt entries: both reads of
    # the request (before and inside the in-flight lock) see the one
    # flipped entry, and each is also a miss.  The recompute writes it back.
    assert (stats.corrupt, stats.misses, stats.writes) == (2, 4, 2)
    assert stats.entries == 1
    assert service.handle_metrics()[1]["store"]["corrupt"] == 2
    assert service.store.verify() == []
    # The recompute carries its own creation time and elapsed time; the
    # rest of the transcript, and the arrays' metadata, are the same.
    def unstamped(transcript):
        return {key: value for key, value in transcript.items() if key != "provenance"}

    assert unstamped(again["transcript"]) == unstamped(cold["transcript"])
    assert json.loads(again["result_json"])["arrays"] == json.loads(
        cold["result_json"]
    )["arrays"]
    status, warm = service.handle_verify(_verify_body("carol"))
    assert warm["cache_hit"] and _signed_part(warm) == _signed_part(again)


def test_a_spec_longer_than_the_shipped_m0_window_is_a_400(tmp_path):
    """A spec may not ask for more M0 window than ships: 400, nothing stored or logged."""
    service = DetectionService(ServiceConfig(data_dir=tmp_path, difficulty=8))
    spec = ExperimentRunner().resolve("fig5/chip1-active").to_json_dict()
    spec["m0_window_cycles"] = 16_385
    body = {"client_id": "alice", "spec": spec}
    body["nonce"] = mine_nonce("alice", VERIFY_ENDPOINT, body, difficulty=8)
    with pytest.raises(ServiceError) as excinfo:
        service.handle_verify(body)
    assert (excinfo.value.status, excinfo.value.code) == (400, "bad_request")
    assert "16384" in str(excinfo.value)
    stats = service.store.stats()
    assert (stats.entries, stats.writes) == (0, 0)
    assert service.ledger.count == 0


# ---------------------------------------------------------------------------
# live server end-to-end
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def live_server(tmp_path_factory):
    """One real HTTP server for the whole module (ephemeral port)."""
    data_dir = tmp_path_factory.mktemp("service-data")
    config = ServiceConfig(port=0, data_dir=data_dir, difficulty=8, workers=8)
    server = build_server(config)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)


@pytest.fixture()
def client(live_server):
    return ServiceClient(live_server.url, client_id="pytest@local")


def test_healthz_reports_protocol_and_difficulty(client):
    health = client.healthz()
    assert health["status"] == "ok"
    assert health["protocol_version"] == PROTOCOL_VERSION
    assert health["difficulty"] == 8
    assert "table2" in health["scenarios"]


def test_verify_second_request_is_a_pure_store_hit(live_server, client):
    store = live_server.service.store
    writes_before = store.stats().writes
    first = client.verify(scenario="table2", overrides={"seed": 4242})
    second = client.verify(scenario="table2", overrides={"seed": 4242})
    assert first["cache_hit"] is False
    assert second["cache_hit"] is True
    # One compute, one write -- the second request recomputed nothing.
    assert store.stats().writes == writes_before + 1
    # Byte-identical signed transcripts.
    assert json.dumps(first["transcript"], sort_keys=True) == json.dumps(
        second["transcript"], sort_keys=True
    )
    assert first["signature"] == second["signature"]
    assert first["result_json"] == second["result_json"]


def test_concurrent_identical_verifies_coalesce(live_server):
    store = live_server.service.store
    writes_before = store.stats().writes

    def post(index: int):
        worker = ServiceClient(
            live_server.url, client_id=f"worker{index}@local", difficulty=8
        )
        return worker.verify(scenario="table2", overrides={"seed": 990011})

    with ThreadPoolExecutor(max_workers=6) as pool:
        responses = list(pool.map(post, range(6)))
    # Exactly one computation hit the store; everyone else was served
    # from it, byte-identically.
    assert store.stats().writes == writes_before + 1
    transcripts = {
        json.dumps(response["transcript"], sort_keys=True)
        for response in responses
    }
    assert len(transcripts) == 1
    assert len({response["signature"] for response in responses}) == 1
    assert sum(1 for response in responses if not response["cache_hit"]) == 1


def test_verify_signature_checks_offline(live_server, client):
    response = client.verify(scenario="table2")
    key_path = live_server.service.config.resolved_data_dir() / "hmac.key"
    assert ServiceClient.verify_transcript(response, key_path)
    assert ServiceClient.verify_transcript(response, key_path.read_bytes())
    forged = dict(response, transcript=dict(response["transcript"], decision=False))
    assert not ServiceClient.verify_transcript(forged, key_path)


def test_verify_transcript_contents(client):
    response = client.verify(scenario="table2")
    transcript = response["transcript"]
    assert transcript["type"] == "verify"
    assert transcript["scenario"] == "table2"
    assert transcript["spec_hash"]
    assert transcript["schema_versions"]["protocol"] == PROTOCOL_VERSION
    assert "detection_params" in transcript
    assert transcript["provenance"]["attempts"] >= 1
    result = result_from(response)
    assert result.ok
    assert result.spec.spec_hash() == transcript["spec_hash"]


def test_verify_accepts_full_spec_document(client):
    spec = ExperimentRunner().resolve("table2").to_json_dict()
    response = client.verify(spec=spec)
    assert response["ok"] is True
    assert response["transcript"]["kind"] == "table2"


def test_verify_overrides_change_the_spec_hash(client):
    base = client.verify(scenario="table2")
    seeded = client.verify(scenario="table2", overrides={"seed": 777})
    assert base["transcript"]["spec_hash"] != seeded["transcript"]["spec_hash"]


def test_issue_redacts_the_seed_and_logs_a_commitment(live_server, client):
    response = client.issue(scenario="table2")
    assert "lfsr_seed" in response["watermark"]  # requester gets the secret
    assert "lfsr_seed" not in response["transcript"]["watermark"]
    assert len(response["commitment"]) == 64
    raw_seed = str(response["watermark"]["lfsr_seed"])
    ledger_text = live_server.service.ledger.path.read_text()
    for line in ledger_text.splitlines():
        record = json.loads(line)
        if record["payload"].get("type") == "issue":
            assert "lfsr_seed" not in record["payload"]["watermark"]
    assert f'"lfsr_seed": {raw_seed}' not in ledger_text


def test_bad_pow_ticket_is_rejected(live_server):
    cheat = ServiceClient(live_server.url, client_id="cheat@local", difficulty=0)
    # difficulty=0 means the client sends no nonce, but the server wants 8 bits.
    with pytest.raises(ServiceHTTPError) as excinfo:
        cheat.verify(scenario="table2")
    assert excinfo.value.status == 403
    assert excinfo.value.code == "bad_ticket"


def test_unknown_scenario_is_a_404(client):
    with pytest.raises(ServiceHTTPError) as excinfo:
        client.verify(scenario="not-a-scenario")
    assert excinfo.value.status == 404
    assert excinfo.value.code == "unknown_scenario"


def test_unknown_route_and_wrong_method(client):
    with pytest.raises(ServiceHTTPError) as excinfo:
        client._get("/nope")
    assert excinfo.value.status == 404
    with pytest.raises(ServiceHTTPError) as excinfo:
        client._get(VERIFY_ENDPOINT)
    assert excinfo.value.status == 405


def test_malformed_json_body_is_a_400(client):
    with pytest.raises(ServiceHTTPError) as excinfo:
        client._request("POST", VERIFY_ENDPOINT, b"{not json")
    assert excinfo.value.status == 400


def test_oversized_body_is_a_413(live_server):
    big = ServiceClient(live_server.url, client_id="big@local")
    payload = b"x" * (live_server.service.config.max_body_bytes + 1)
    with pytest.raises(ServiceHTTPError) as excinfo:
        big._request("POST", VERIFY_ENDPOINT, payload)
    assert excinfo.value.status == 413


def test_metrics_track_requests_and_cache(client):
    client.verify(scenario="table2")
    metrics = client.metrics()
    assert metrics["requests"]["total"] >= 1
    assert metrics["requests"]["by_endpoint"][VERIFY_ENDPOINT] >= 1
    cache = metrics["cache"]
    assert cache["hits"] + cache["misses"] >= 1
    assert 0.0 <= cache["hit_rate"] <= 1.0
    assert metrics["latency_ms"]["count"] >= 1
    assert metrics["latency_ms"]["p50"] <= metrics["latency_ms"]["p99"]
    assert metrics["ledger"]["records"] >= 1


def test_rate_limit_returns_429(tmp_path):
    config = ServiceConfig(
        port=0,
        data_dir=tmp_path,
        difficulty=0,
        rate_capacity=2,
        rate_refill_per_s=0.0,
    )
    server = build_server(config)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        greedy = ServiceClient(server.url, client_id="greedy@local", difficulty=0)
        greedy.verify(scenario="table2")
        greedy.verify(scenario="table2")
        with pytest.raises(ServiceHTTPError) as excinfo:
            greedy.verify(scenario="table2")
        assert excinfo.value.status == 429
        assert excinfo.value.code == "rate_limited"
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)


# ---------------------------------------------------------------------------
# CLI: serve ledger verify
# ---------------------------------------------------------------------------


def test_cli_serve_ledger_verify(tmp_path, capsys):
    data_dir = tmp_path / "service-data"
    ledger = Ledger(data_dir / "ledger.jsonl")
    for index in range(3):
        ledger.append({"op": index})
    assert main(["serve", "ledger", "verify", "--data-dir", str(data_dir)]) == 0
    assert "0 problem(s)" in capsys.readouterr().out
    # Tamper with a record: the CLI must catch it and exit nonzero.
    lines = ledger.path.read_text().splitlines()
    record = json.loads(lines[1])
    record["payload"]["op"] = 999
    lines[1] = json.dumps(record, sort_keys=True)
    ledger.path.write_text("\n".join(lines) + "\n")
    assert main(["serve", "ledger", "verify", "--data-dir", str(data_dir)]) == 1
    out = capsys.readouterr().out
    assert "PROBLEM" in out and "digest mismatch" in out


def test_cli_serve_rejects_unknown_maintenance(tmp_path):
    with pytest.raises(SystemExit):
        main(["serve", "ledger", "burn", "--data-dir", str(tmp_path)])
