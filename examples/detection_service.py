#!/usr/bin/env python3
"""Detection-as-a-service tour: a live server, a client, and the paper trail.

Shows the serving layer (:mod:`repro.service`) end to end, entirely
in-process on an ephemeral localhost port:

1. start the HTTP service (``/verify``, ``/issue``, ``/healthz``,
   ``/metrics``) with a PoW difficulty and a fresh data dir;
2. ``/issue`` a watermark: the requester receives the full config, the
   ledger records only a salted commitment to the secret LFSR seed;
3. ``/verify`` a detection scenario twice -- the first request executes
   the pipeline, the second is a pure result-store hit with a
   byte-identical signed transcript;
4. re-verify the transcript's HMAC signature offline, from the wire JSON
   alone (no arrays, no server);
5. integrity-check the append-only hash-chained operation ledger.

Run:  python examples/detection_service.py
"""

from __future__ import annotations

import tempfile
import threading
from pathlib import Path

from repro.service.client import ServiceClient, result_from
from repro.service.ledger import Ledger
from repro.service.server import ServiceConfig, build_server

SCENARIO = "fig5/chip1-active"


def banner(title: str) -> None:
    print()
    print("=" * 72)
    print(title)
    print("=" * 72)


def main() -> None:
    data_dir = Path(tempfile.mkdtemp(prefix="repro-service-"))
    config = ServiceConfig(port=0, data_dir=data_dir, difficulty=8)
    server = build_server(config)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()

    banner(f"1. service up at {server.url}")
    client = ServiceClient(server.url, client_id="example@local")
    health = client.healthz()
    print(f"protocol v{health['protocol_version']}, "
          f"PoW difficulty {health['difficulty']} bits, "
          f"{len(health['scenarios'])} scenarios registered")

    banner("2. /issue: embed a watermark, commit to its seed")
    issued = client.issue(scenario=SCENARIO)
    print(f"requester got the full config (seed included): "
          f"lfsr_seed={issued['watermark']['lfsr_seed']:#x}")
    print(f"transcript + ledger carry only the commitment: "
          f"{issued['commitment'][:24]}...")
    print(f"anchored at ledger index {issued['ledger']['index']}")

    banner("3. /verify twice: compute once, serve from the store after")
    first = client.verify(scenario=SCENARIO, overrides={"quick": True})
    second = client.verify(scenario=SCENARIO, overrides={"quick": True})
    transcript = first["transcript"]
    print(f"statistic={transcript['statistic']:.2f}  "
          f"decision={transcript['decision']}  "
          f"spec_hash={transcript['spec_hash'][:12]}")
    print(f"first request cache_hit={first['cache_hit']}, "
          f"second cache_hit={second['cache_hit']}")
    identical = (first["signature"] == second["signature"]
                 and first["transcript"] == second["transcript"])
    print(f"signed transcripts byte-identical: {identical}")

    banner("4. offline re-verification (wire JSON only, no server)")
    key_path = data_dir / "hmac.key"
    print(f"signature valid against {key_path.name}: "
          f"{ServiceClient.verify_transcript(second, key_path)}")
    result = result_from(second)
    print(f"rebuilt result: {result.name}, ok={result.ok}, "
          f"arrays={sorted(result.arrays)} "
          f"(array data stripped in transit; scalars and provenance bit-exact)")

    banner("5. the paper trail: hash-chained operation ledger")
    metrics = client.metrics()
    print(f"requests={metrics['requests']['total']}  "
          f"cache hit rate={metrics['cache']['hit_rate']:.0%}  "
          f"p50={metrics['latency_ms'].get('p50', 0):.1f} ms")
    server.shutdown()
    server.server_close()
    ledger = Ledger(data_dir / "ledger.jsonl")
    problems = ledger.verify()
    print(f"ledger: {ledger.count} record(s), "
          f"verify -> {len(problems)} problem(s)")
    print(f"tip digest {ledger.tip_digest[:24]}... "
          f"(also try: python -m repro serve ledger verify "
          f"--data-dir {data_dir})")


if __name__ == "__main__":
    main()
