"""Benchmark: warm (store-hit) and cold ``/verify`` latency.

Acceptance pin for the serving layer, gated absolutely:

* **Warm.**  :data:`WARM_REQUESTS` ``/verify`` requests of a scenario
  already in the service's result store -- full HTTP round trip, PoW
  ticket mining and check, transcript signing, ledger append included.
  Their p50 and p99 must stay under :data:`MAX_WARM_P50_S` and
  :data:`MAX_WARM_P99_S`.  Each must be a store hit, and the store must
  see no write, so a warm request that recomputed fails whatever it took.
* **Cold.**  The same scenario at fresh seeds (so every request misses the
  store) from cold module caches (LFSR sequences, the M0 window,
  background templates), as in a fresh server process.  The median of
  :data:`COLD_REQUESTS` must stay under :data:`MAX_COLD_S`.

Every request runs over a real localhost server through the stdlib
client, exactly like production traffic, and every warm response must be
the cold response's signed detection, byte for byte.
"""

import json
import statistics
import threading
import time

import numpy as np

from record import record_benchmark

from repro.core.lfsr import clear_sequence_cache
from repro.service.client import ServiceClient
from repro.service.server import ServiceConfig, build_server
from repro.soc.chip import clear_background_template_cache
from repro.soc.cpu import clear_m0_window_cache

SCENARIO = "fig5/chip1-active"
OVERRIDES = {"quick": True}
DIFFICULTY = 8
WARM_REQUESTS = 200
COLD_REQUESTS = 5
#: Ceilings sized from seven runs of this benchmark on a shared 2-CPU
#: x86-64 host.  Warm p50 read 2.0-2.8 ms and p99 3.9-5.3 ms: 6 ms and
#: 20 ms leave 2.1x and 3.8x headroom.  The cold median read 5.2-8.0 ms:
#: 15 ms leaves 1.9x.  Simulating the M0 window on every cold start, as
#: the library did before the window shipped as data, read 21-44 ms and
#: fails it.  A warm request that recomputed would fail the ``cache_hit``
#: and store-write asserts, which run whatever the timings.
MAX_WARM_P50_S = 0.006
MAX_WARM_P99_S = 0.020
MAX_COLD_S = 0.015


def _clear_module_caches() -> None:
    clear_sequence_cache()
    clear_background_template_cache()
    clear_m0_window_cache()


def _timed_verify(client, overrides):
    start = time.perf_counter()
    response = client.verify(scenario=SCENARIO, overrides=overrides)
    return time.perf_counter() - start, response


def test_bench_warm_verify_beats_cold(tmp_path, report, relaxed):
    # The warm loop sends far more requests per second than the default
    # per-client rate limit admits; the limiter's cost is the same.
    config = ServiceConfig(
        port=0,
        data_dir=tmp_path / "service-data",
        difficulty=DIFFICULTY,
        rate_capacity=10.0 * WARM_REQUESTS,
    )
    server = build_server(config)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        client = ServiceClient(
            server.url, client_id="bench@local", difficulty=DIFFICULTY
        )

        cold_times = []
        for round_index in range(COLD_REQUESTS):
            _clear_module_caches()
            elapsed, response = _timed_verify(client, {**OVERRIDES, "seed": 1000 + round_index})
            assert response["ok"] and response["cache_hit"] is False
            cold_times.append(elapsed)
        cold_s = statistics.median(cold_times)

        _clear_module_caches()
        _, cold = _timed_verify(client, OVERRIDES)
        assert cold["ok"] and cold["cache_hit"] is False

        warm_times = []
        for _ in range(WARM_REQUESTS):
            elapsed, warm = _timed_verify(client, OVERRIDES)
            assert warm["ok"] and warm["cache_hit"] is True
            warm_times.append(elapsed)

        # The warm response is the same signed detection, byte for byte.
        assert warm["signature"] == cold["signature"]
        assert json.dumps(warm["transcript"], sort_keys=True) == json.dumps(
            cold["transcript"], sort_keys=True
        )
        stats = server.service.store.stats()
        assert stats.writes == COLD_REQUESTS + 1, "the warm requests must recompute nothing"
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)

    warm_p50_s, warm_p99_s = np.percentile(warm_times, [50, 99])
    lines = [
        f"scenario: {SCENARIO} (quick), difficulty {DIFFICULTY} bits",
        f"cold /verify (store miss, cold caches), median of {COLD_REQUESTS}: "
        f"{cold_s * 1e3:.1f} ms (ceiling {MAX_COLD_S * 1e3:.0f} ms)",
        f"warm /verify (store hit) over {WARM_REQUESTS}: p50 {warm_p50_s * 1e3:.2f} ms "
        f"(ceiling {MAX_WARM_P50_S * 1e3:.0f} ms), p99 {warm_p99_s * 1e3:.2f} ms "
        f"(ceiling {MAX_WARM_P99_S * 1e3:.0f} ms)",
    ]
    report("Detection service: warm and cold /verify", "\n".join(lines))
    record_benchmark(
        "service_verify",
        {
            "scenario": SCENARIO,
            "difficulty_bits": DIFFICULTY,
            "cold_s": round(cold_s, 4),
            "warm_p50_s": round(float(warm_p50_s), 5),
            "warm_p99_s": round(float(warm_p99_s), 5),
            "warm_requests": WARM_REQUESTS,
            "max_cold_s": MAX_COLD_S,
            "max_warm_p50_s": MAX_WARM_P50_S,
            "max_warm_p99_s": MAX_WARM_P99_S,
            "transcripts_identical": True,
            "relaxed": relaxed,
        },
    )

    if not relaxed:
        assert cold_s <= MAX_COLD_S, (
            f"cold /verify median {cold_s * 1e3:.1f} ms (ceiling {MAX_COLD_S * 1e3:.0f} ms)"
        )
        assert warm_p50_s <= MAX_WARM_P50_S, (
            f"warm /verify p50 {warm_p50_s * 1e3:.2f} ms "
            f"(ceiling {MAX_WARM_P50_S * 1e3:.0f} ms)"
        )
        assert warm_p99_s <= MAX_WARM_P99_S, (
            f"warm /verify p99 {warm_p99_s * 1e3:.2f} ms "
            f"(ceiling {MAX_WARM_P99_S * 1e3:.0f} ms)"
        )
