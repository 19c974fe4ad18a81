"""Workload ``verify-mix``: request traffic against the detection service.

The server (``repro.service``, PoW difficulty 8) runs in its own process.
Set-up starts it with an empty data directory and pre-stores a working set
of 32 quick Fig. 5 panels (4 panels x 8 seeds from the workload seed)
through ``/verify``; set-up is repeated three times, each time with a
fresh server, and the last server takes the traffic.

Traffic comes from this process in three phases: ``light`` at 20 req/s
for an eighth of the budget, ``busy`` at 50 req/s for five eighths (1000
requests at 32 s), both open-loop at fixed rates, and ``closed`` for the
last quarter, where the two senders send back to back so the server sets
the pace; ``ops_per_s`` is the correct ``closed`` responses per second.
(A traced run replaces ``closed`` by a second, traced ``light`` phase.)
About 90% of requests read a working-set panel (a store hit); about 10%
write, asking for a panel at a seed nobody asked for before, which
computes, ``ResultStore.put``s and queues on the compute lock.  Client ids
come from a population of 64, so the per-client token bucket never refuses
at these rates.  An open-loop request is timed from when it was due, a
back-to-back one from when it was sent.

Checks, on set-up and traffic responses alike: every response carries a
transcript for the panel asked for whose HMAC signature verifies offline
against the server key, and every read of a spec returns the
byte-identical transcript that set-up stored.  The decisions are judged
over all distinct specs of the run, as one more operation: the paper's
``all_active_panels_detected`` and ``no_inactive_panel_detected`` hold
per panel only at the paper's seeds, and at a random seed an inactive
panel's best-rotation z-score tops the 4.0 threshold about one time in
seven on the quick bench, so the run fails when more than
:data:`MAX_MISS_RATE` of its active specs go undetected or more than
:data:`MAX_FALSE_ALARM_RATE` of its inactive specs are detected.
"""

from __future__ import annotations

import json
import pathlib
from random import Random
import signal
import subprocess
import time
from typing import Any, Dict, List, Optional, Tuple

from perfbench import layers, loadgen, probes, spans, stats
from perfbench.common import ROOT, Context, Outcome, child_command, child_env

PANELS = ("fig5/chip1-active", "fig5/chip1-inactive", "fig5/chip2-active", "fig5/chip2-inactive")
WORKING_SET_SEEDS = 8
CLIENTS = 64
DIFFICULTY = 8
WRITE_SHARE = 0.10
LIGHT_RATE, BUSY_RATE = 20.0, 50.0
#: Shares of the budget spent in the light and closed phases (4 s and 8 s
#: of 32, so busy gets 20 s, 1000 requests).
LIGHT_SHARE, CLOSED_SHARE = 1 / 8, 1 / 4
#: Requests made ready for the closed phase, per second of it (more than
#: two senders can send).
CLOSED_MAX_RATE = 1000
SENDERS = 2
SETUPS = 3
#: A request later than this counts as failed.
REQUEST_TIMEOUT_S = 10.0
#: Latency limit on the busy-phase p99.
P99_LIMIT_MS = 50.0
#: Largest share of a run's distinct active specs left undetected (about
#: 0.02 measured) and of its inactive specs detected (about 0.14).
MAX_MISS_RATE = 0.2
MAX_FALSE_ALARM_RATE = 0.3


class Server:
    """One ``perfbench.child serve`` process."""

    def __init__(self, data_dir: pathlib.Path, spans_file: Optional[pathlib.Path] = None):
        self.data_dir = data_dir
        ready = data_dir.with_name(data_dir.name + ".url")
        args = ["serve", "--data-dir", str(data_dir), "--ready", str(ready)]
        if spans_file is not None:
            args += ["--spans", str(spans_file)]
        log = data_dir.with_name(data_dir.name + ".log")
        with open(log, "w") as stderr:  # a file, not a pipe: a full pipe would stall the server
            self.proc = subprocess.Popen(
                child_command(*args), cwd=ROOT, env=child_env(),
                stdout=subprocess.DEVNULL, stderr=stderr,
            )
        deadline = time.monotonic() + 60
        while not ready.exists():
            if self.proc.poll() is not None or time.monotonic() > deadline:
                self.stop()
                raise RuntimeError(f"server did not start: {log.read_text()[-400:]}")
            time.sleep(0.01)
        self.url = ready.read_text()

    @property
    def key(self) -> bytes:
        from repro.service.transcripts import HMAC_KEY_FILE

        return (self.data_dir / HMAC_KEY_FILE).read_bytes()

    def start_tracing(self) -> None:
        self.proc.send_signal(signal.SIGUSR1)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


def body(panel: str, seed: int) -> Dict[str, Any]:
    return {"scenario": panel, "overrides": {"quick": True, "seed": seed}}


class Traffic:
    """The seeded request mix: working set, fresh write seeds, client ids."""

    def __init__(self, seed: int):
        self.rng = Random(seed)
        seeds = self.rng.sample(range(1, 10**6), WORKING_SET_SEEDS)
        self.working_set = [(panel, s) for panel in PANELS for s in seeds]
        self._fresh = iter(range(10**6 + self.rng.randrange(10**6), 10**9))

    def make(self, index: int) -> Tuple[str, Any]:
        client = f"bench-{self.rng.randrange(CLIENTS):02d}"
        if self.rng.random() < WRITE_SHARE:
            return "write", (client, body(self.rng.choice(PANELS), next(self._fresh)))
        return "read", (client, body(*self.rng.choice(self.working_set)))


def expected_decision(panel: str) -> bool:
    """The paper's decision: watermark detected on active panels only."""
    return panel.endswith("-active")


def spec_key(request_body: Dict[str, Any]) -> str:
    return json.dumps(request_body, sort_keys=True)


def canonical(transcript: Dict[str, Any]) -> str:
    return json.dumps(transcript, sort_keys=True, separators=(",", ":"))


def sender(url: str):
    from repro.service.client import ServiceClient

    clients: Dict[str, ServiceClient] = {}

    def send(request: loadgen.Request) -> Dict[str, Any]:
        client_id, request_body = request.payload
        client = clients.get(client_id)
        if client is None:
            client = clients[client_id] = ServiceClient(
                url, client_id=client_id, difficulty=DIFFICULTY, timeout_s=REQUEST_TIMEOUT_S
            )
        return client.verify(**request_body)

    return send


def setup(ctx: Context, index: int, traffic: Traffic, traced: bool) -> Tuple[Server, float, List[loadgen.Outcome]]:
    """Start a fresh server and pre-store the working set, one request at a time."""
    start = time.perf_counter()
    server = Server(
        ctx.path(f"service-{index}"), ctx.path("server.spans.json") if traced else None
    )
    try:
        schedule = [
            loadgen.Request(number, None, "prime", (f"bench-{number % CLIENTS:02d}", body(*spec)))
            for number, spec in enumerate(traffic.working_set)
        ]
        primed = loadgen.OpenLoop(sender(server.url), senders=1).run(schedule)
    except BaseException:
        server.stop()
        raise
    return server, time.perf_counter() - start, primed


def judge(outcomes: List[loadgen.Outcome], key: bytes, reference: Dict[str, str], outcome: Outcome) -> Tuple[List[float], int]:
    """Count failures; returns latencies, with every failure set to the timeout, and the passes."""
    from repro.service.transcripts import verify_signature

    latencies = []
    passed = 0
    for item in outcomes:
        outcome.attempted += 1
        problem = item.error
        response = item.response
        if problem is None and item.latency_s > REQUEST_TIMEOUT_S:
            problem = f"{item.latency_s:.1f} s late past the timeout"
        if problem is None and not verify_signature(response["transcript"], response["signature"], key):
            problem = "transcript signature does not verify"
        panel = item.request.payload[1]["scenario"]
        if problem is None and response["transcript"]["scenario"] != panel:
            problem = f"transcript is for {response['transcript']['scenario']!r}"
        if problem is None and item.request.kind == "read":
            expected = reference.get(spec_key(item.request.payload[1]))
            if canonical(response["transcript"]) != expected:
                problem = "read returned a transcript that differs from the stored one"
        if problem is not None:
            outcome.fail(f"request {item.request.index} ({item.request.kind}): {problem}")
            latencies.append(REQUEST_TIMEOUT_S)
        else:
            latencies.append(item.latency_s)
            passed += 1
    return latencies, passed


def judge_decisions(items: List[loadgen.Outcome], outcome: Outcome) -> Dict[str, Tuple[float, int]]:
    """Judge the detector over the distinct specs answered, as one operation.

    Returns ``{"miss": (rate, specs), "false_alarm": (rate, specs)}``.
    """
    decisions: Dict[str, Tuple[bool, bool]] = {}
    for item in items:
        if item.error is None:
            request_body = item.request.payload[1]
            decisions.setdefault(
                spec_key(request_body),
                (expected_decision(request_body["scenario"]), bool(item.response["transcript"]["decision"])),
            )
    active = [decision for expected, decision in decisions.values() if expected]
    inactive = [decision for expected, decision in decisions.values() if not expected]
    rates = {
        "miss": (1.0 - sum(active) / len(active) if active else 1.0, len(active)),
        "false_alarm": (sum(inactive) / len(inactive) if inactive else 1.0, len(inactive)),
    }
    outcome.attempted += 1
    if rates["miss"][0] > MAX_MISS_RATE or rates["false_alarm"][0] > MAX_FALSE_ALARM_RATE:
        outcome.fail(
            f"detector: {rates['miss'][0]:.2f} of {len(active)} active specs missed, "
            f"{rates['false_alarm'][0]:.2f} of {len(inactive)} inactive specs detected"
        )
    return rates


def run(ctx: Context) -> Outcome:
    outcome = Outcome()
    traffic = Traffic(ctx.seed)
    setup_times = []
    primed: List[Tuple[bytes, List[loadgen.Outcome]]] = []
    server = None
    try:
        for index in range(SETUPS):
            if server is not None:
                server.stop()
            server, seconds, items = setup(ctx, index, traffic, ctx.trace and index == SETUPS - 1)
            setup_times.append(seconds)
            primed.append((server.key, items))
        send = sender(server.url)
        client_tracer = spans.Tracer(enabled=False)
        if ctx.trace:
            probes.install(client_tracer, ("client",))
        light_s, closed_s = ctx.seconds * LIGHT_SHARE, ctx.seconds * CLOSED_SHARE
        phases = [("light", LIGHT_RATE, light_s, False)]
        if ctx.trace:
            phases.append(("light-traced", LIGHT_RATE, light_s, True))
        phases.append(("busy", BUSY_RATE, ctx.seconds - light_s - closed_s, ctx.trace))
        if not ctx.trace:
            phases.append(("closed", None, closed_s, False))
        results: Dict[str, List[loadgen.Outcome]] = {}
        for name, rate, duration, traced in phases:
            if traced and not client_tracer.enabled:
                server.start_tracing()
                client_tracer.enabled = True
            generator = loadgen.OpenLoop(send, senders=SENDERS)
            if rate is None:
                schedule = loadgen.back_to_back_schedule(int(CLOSED_MAX_RATE * duration), traffic.make)
                results[name] = generator.run(schedule, stop_s=duration)
            else:
                results[name] = generator.run(loadgen.fixed_rate_schedule(rate, duration, traffic.make))
        client_tracer.enabled = False
    finally:
        if server is not None:
            server.stop()

    for setup_key, items in primed:
        judge(items, setup_key, {}, outcome)
    key, stored = primed[-1]
    reference = {
        spec_key(item.request.payload[1]): canonical(item.response["transcript"])
        for item in stored if item.error is None
    }
    judged = {name: judge(items, key, reference, outcome) for name, items in results.items()}
    latencies = {name: lat for name, (lat, _) in judged.items()}
    rates = judge_decisions(stored + [i for phase in results.values() for i in phase], outcome)
    busy = latencies["busy"]
    busy_items = results["busy"]
    busy_tail = stats.tail(busy)
    writes = [
        lat for name in results for item, lat in zip(results[name], latencies[name])
        if item.request.kind == "write"
    ]
    outcome.end_to_end = {
        "setup_s": stats.median(setup_times),
        "op_p50_ms": 1e3 * stats.median(busy),
    }
    named = outcome.named
    named["setup_s"] = (stats.median(setup_times), "s", f"server start + 32-spec pre-store, n={SETUPS}")
    for name, limit, kind in (("miss", MAX_MISS_RATE, "active"), ("false_alarm", MAX_FALSE_ALARM_RATE, "inactive")):
        named[f"verify_{name}_rate"] = (
            rates[name][0], "ratio", f"of {rates[name][1]} distinct {kind} specs; limit {limit:g}"
        )
    if "closed" in results:
        closed_items = results["closed"]
        closed_wall = max(item.done_s for item in closed_items)
        outcome.end_to_end["ops_per_s"] = judged["closed"][1] / closed_wall
        named["ops_per_s"] = (
            outcome.end_to_end["ops_per_s"], "1/s",
            f"correct responses per second, {SENDERS} senders back to back, "
            f"{judged['closed'][1]} of {len(closed_items)} in {closed_wall:.2f} s",
        )
    named["verify_light_p50_ms"] = (1e3 * stats.median(latencies["light"]), "ms", f"{LIGHT_RATE:g} req/s, n={len(latencies['light'])}")
    named["verify_busy_p50_ms"] = (1e3 * stats.median(busy), "ms", f"{BUSY_RATE:g} req/s, n={len(busy)}")
    if busy_tail:
        named[f"verify_busy_p{busy_tail[0]:g}_ms"] = (
            1e3 * busy_tail[1], "ms",
            f"n={len(busy)}; limit p99 <= {P99_LIMIT_MS:g} ms "
            + (
                ("met" if 1e3 * busy_tail[1] <= P99_LIMIT_MS else "NOT met")
                if busy_tail[0] >= 99
                else "not assessed: p99 needs 10 samples beyond it"
            ),
        )
    if writes:
        named["verify_miss_p50_ms"] = (1e3 * stats.median(writes), "ms", f"writes in all phases, n={len(writes)}")

    if ctx.trace:
        server_spans, server_extra = spans.load(ctx.path("server.spans.json"))
        client_spans = list(client_tracer.spans)
        merged = spans.combine([server_spans, client_spans])
        traced_items = results["light-traced"] + results["busy"]
        late = [i.late_s * 1e3 for i in busy_items]
        late_tail = stats.tail(late)
        light, light_traced = stats.median(latencies["light"]), stats.median(latencies["light-traced"])
        extra = {
            **layers.import_breakdown(),
            "client.generator_late_ms.p99": late_tail[1] if late_tail else max(late),
            "client.generator_late_ms.max": max(late),
            "trace.overhead_pct": 100.0 * (light_traced - light) / light,
            "trace.unattributed_s": sum(i.latency_s for i in traced_items) - layers.total_self_s(merged),
        }
        outcome.layers = layers.layer_metrics(merged, server_extra.get("counters", {}), extra)
        outcome.layer_notes.extend(layers.span_table(merged))
        outcome.layer_notes.append(
            f"traced light p50 {light_traced * 1e3:.2f} ms vs untraced {light * 1e3:.2f} ms; "
            "unattributed = summed request latency (from due time) not covered by a "
            "server or client span: HTTP, JSON, queueing and sender waits"
        )
    return outcome
