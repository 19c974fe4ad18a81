"""Fast self-tests of the benchmark harness (no workload runs here)."""

from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys
from types import SimpleNamespace

ROOT = pathlib.Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

import pytest  # noqa: E402

from perfbench import campaign_sweep, layers, loadgen, stats, verify_mix  # noqa: E402
from perfbench.common import Outcome  # noqa: E402
from perfbench.spans import Span, Tracer, by_name, covered, self_times  # noqa: E402


# -- self time -----------------------------------------------------------------


def test_self_time_subtracts_nested_children():
    spans = [
        Span(1, "outer", 0.0, 10.0),
        Span(2, "middle", 2.0, 5.0, parent=1),
        Span(3, "inner", 3.0, 4.0, parent=2),
    ]
    assert self_times(spans) == {1: 7.0, 2: 2.0, 3: 1.0}


def test_self_time_counts_overlapping_children_once_and_clips_them():
    spans = [
        Span(1, "parent", 0.0, 10.0),
        Span(2, "a", 1.0, 4.0, parent=1),
        Span(3, "b", 3.0, 6.0, parent=1),  # overlaps a: [1, 6] is covered once
        Span(4, "c", 9.0, 12.0, parent=1),  # runs past the parent: only [9, 10] counts
    ]
    assert self_times(spans)[1] == pytest.approx(4.0)
    assert covered([(5.0, 7.0), (1.0, 2.0), (1.5, 3.0)], 0.0, 6.0) == pytest.approx(3.0)


def test_tracer_records_parents_ops_and_attributes():
    now = [0.0]

    def clock():
        return now[0]

    tracer = Tracer(clock=clock)

    def leaf():
        now[0] += 2.0
        return [1, 2, 3]

    traced_leaf = tracer.wrap(leaf, "leaf", attrs=lambda result, a, k: {"rows": len(result)})

    def root(name):
        now[0] += 1.0
        traced_leaf()
        traced_leaf()
        now[0] += 1.0

    tracer.wrap(root, "root", op=lambda args, kwargs: args[0])("cell-7")
    totals = by_name(tracer.spans)
    assert totals["root"].self_s == pytest.approx(2.0)
    assert totals["leaf"].calls == 2 and totals["leaf"].self_s == pytest.approx(4.0)
    assert totals["leaf"].attrs["rows"] == 6
    assert {span.op for span in tracer.spans} == {"cell-7"}
    root_id = next(span.id for span in tracer.spans if span.name == "root")
    assert all(span.parent == root_id for span in tracer.spans if span.name == "leaf")


def test_disabled_tracer_records_nothing():
    tracer = Tracer(enabled=False)
    assert tracer.wrap(lambda: 5, "x")() == 5
    assert tracer.spans == []


# -- percentiles ---------------------------------------------------------------


def test_percentile_needs_ten_samples_beyond_it():
    assert stats.percentile(list(range(1000)), 99) == 989.0  # 10 samples beyond
    assert stats.percentile(list(range(999)), 99) is None  # only 9 beyond
    assert stats.tail(list(range(400))) == (95.0, 379.0)
    assert stats.tail(list(range(12))) is None


# -- open-loop timing ----------------------------------------------------------


def test_latency_is_timed_from_the_due_time_under_a_stalled_server():
    now = [0.0]

    def sleep(seconds):
        now[0] += seconds

    def send(request):
        now[0] += 0.5 if request.index == 0 else 0.001  # the server stalls on the first request
        return "ok"

    schedule = loadgen.fixed_rate_schedule(100.0, 0.1, lambda i: ("read", None))
    outcomes = loadgen.OpenLoop(send, senders=1, clock=lambda: now[0], sleep=sleep).run(schedule)
    assert len(outcomes) == 10
    second = outcomes[1]
    # Due at 10 ms, sent only after the 500 ms stall: the wait is part of its latency.
    assert second.request.due_s == pytest.approx(0.01)
    assert second.late_s == pytest.approx(0.49)
    assert second.latency_s == pytest.approx(0.491)
    assert all(o.latency_s >= o.done_s - o.sent_s for o in outcomes)


def test_back_to_back_requests_are_timed_from_the_send_and_stop_on_time():
    now = [0.0]

    def send(request):
        now[0] += 0.3
        return "ok"

    schedule = loadgen.back_to_back_schedule(100, lambda i: ("read", None))
    outcomes = loadgen.OpenLoop(send, senders=1, clock=lambda: now[0]).run(schedule, stop_s=1.0)
    # Sent at 0, 0.3, 0.6 and 0.9 s; none is sent once 1 s has passed.
    assert len(outcomes) == 4
    assert [o.latency_s for o in outcomes] == pytest.approx([0.3] * 4)
    assert all(o.late_s == 0.0 for o in outcomes)


# -- failed operations ---------------------------------------------------------


def _response(key: bytes, transcript: dict) -> dict:
    from repro.service.transcripts import sign_transcript

    return {"transcript": transcript, "signature": sign_transcript(transcript, key)}


def test_judge_counts_every_kind_of_failed_request():
    key = b"k" * 32
    read_body = verify_mix.body("fig5/chip1-active", 3)
    stored = {"scenario": "fig5/chip1-active", "decision": True}
    reference = {verify_mix.spec_key(read_body): verify_mix.canonical(stored)}

    def item(index, kind, response=None, error=None, done=0.01):
        request = loadgen.Request(index, 0.0, kind, ("bench-00", read_body))
        return loadgen.Outcome(request, sent_s=0.0, done_s=done, response=response, error=error)

    forged = _response(key, stored)
    forged["signature"] = "0" * 64
    items = [
        item(0, "read", _response(key, stored)),  # good
        item(1, "read", error="ServiceHTTPError: HTTP 429 [rate_limited]"),  # refused
        item(2, "read", forged),  # badly signed
        item(3, "read", _response(key, {**stored, "statistic": 1.0})),  # differs from the store
        item(4, "write", _response(key, stored), done=verify_mix.REQUEST_TIMEOUT_S + 1),  # too late
        item(5, "write", _response(key, {"scenario": "fig5/chip2-active"})),  # another spec
        item(6, "write", _response(key, {**stored, "statistic": 9.5})),  # good write
        item(7, "prime", forged),  # set-up, badly signed
        item(8, "prime", _response(key, stored)),  # good set-up
    ]
    outcome = Outcome()
    latencies, passed = verify_mix.judge(items, key, reference, outcome)
    assert (outcome.attempted, outcome.failed, passed) == (9, 6, 3)
    assert latencies[1:6] + latencies[7:8] == [verify_mix.REQUEST_TIMEOUT_S] * 6
    assert latencies[0] == latencies[6] == latencies[8] == pytest.approx(0.01)
    assert any("differs from the stored one" in p for p in outcome.problems)


def _decided(panel, seed, decision):
    request = loadgen.Request(seed, None, "write", ("bench-00", verify_mix.body(panel, seed)))
    return loadgen.Outcome(request, response={"transcript": {"scenario": panel, "decision": decision}})


@pytest.mark.parametrize(
    "active_detected, inactive_detected, failed",
    [(10, 1, 0), (10, 3, 0), (7, 0, 1), (10, 4, 1), (10, 10, 1)],
)
def test_the_detector_is_judged_over_the_distinct_specs(active_detected, inactive_detected, failed):
    items = [_decided("fig5/chip1-active", s, s < active_detected) for s in range(10)]
    items += [_decided("fig5/chip2-inactive", s, s < inactive_detected) for s in range(10)]
    items += [_decided("fig5/chip1-active", 0, False)]  # a repeat of a spec counts once
    outcome = Outcome()
    rates = verify_mix.judge_decisions(items, outcome)
    assert (outcome.attempted, outcome.failed) == (1, failed)
    assert rates["miss"] == (pytest.approx(1 - active_detected / 10), 10)
    assert rates["false_alarm"] == (pytest.approx(inactive_detected / 10), 10)


def test_a_failed_or_wrong_sweep_cell_is_a_failure():
    failed = SimpleNamespace(ok=False, error="boom", scalars={})
    undetected = SimpleNamespace(ok=True, scalars={"peak_separated": True, "detection_rate": 0.5})
    good = SimpleNamespace(ok=True, scalars={"peak_separated": True, "detection_rate": 1.0})
    assert campaign_sweep.cell_checks(failed) == ["failed: boom"]
    assert campaign_sweep.cell_checks(undetected)
    assert campaign_sweep.cell_checks(good) == []


def test_sweep_seeds_never_repeat_across_grids_or_backends():
    plan = campaign_sweep.plan(5, 3)
    seeds = [s for _, s in plan["warm"]] + [s for _, cells in plan["grids"] for _, s in cells]
    assert len(seeds) == len(set(seeds))
    assert [backend for backend, _ in plan["grids"]] == ["serial", "process"] * 3
    assert campaign_sweep.plan(5, 3) == plan
    assert campaign_sweep.pairs(28) == campaign_sweep.pairs(1) == 2


# -- the declared metrics ------------------------------------------------------


def test_benchmark_json_declares_exactly_the_metrics_the_harness_prints():
    from perfbench import run

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == layers.UNITS
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == run.END_TO_END_UNITS
    assert {w["name"] for w in declared["workloads"]} == set(run.WORKLOADS)
    assert set(layers.layer_metrics([], {}, {})) == set(layers.UNITS)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "campaign-sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
