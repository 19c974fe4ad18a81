"""Fault-tolerant sweep execution: supervision policy + chaos harness.

The supervision layer must keep a sweep correct under every failure mode
it claims to handle: flaky cells retry and end bit-identical to a clean
run, hung cells are timed out (their worker killed and replaced) without
stalling siblings, a hard-killed worker is replaced and its cell
resubmitted, a poison cell is quarantined instead of killing workers
forever, a repeatedly-breaking pool degrades to the serial backend, and
SIGINT/SIGTERM stop the sweep orderly with completed cells already
flushed to the result store -- on *both* backends, driven by the
deterministic chaos harness (:mod:`repro.pipeline.chaos`).
"""

import json
import logging
import os
import signal
import threading
import time

import pytest

from repro.core.spec import ScenarioSpec
from repro.pipeline import ExperimentRunner, RunOptions, SpecGrid
from repro.pipeline import backends, chaos, faults
from repro.pipeline.artifacts import ScenarioResult, SweepResult
from repro.pipeline.store import ResultStore


def _specs(n=2):
    return SpecGrid("fig2", RunOptions()).build(seeds=list(range(1, n + 1)))


def _cell(seed):
    return f"fig2[seed={seed}]"


@pytest.fixture(scope="module")
def clean_sweep():
    """A fault-free serial baseline for bit-identity comparisons."""
    return ExperimentRunner().run_many(_specs(2), backend="serial")


def _assert_matches_clean(result, clean):
    assert result.scalars == clean.scalars
    assert result.report == clean.report
    assert set(result.arrays) == set(clean.arrays)
    for key in result.arrays:
        assert result.arrays[key].tobytes() == clean.arrays[key].tobytes()


class TestRetryPolicy:
    def test_defaults_and_validation(self):
        policy = faults.RetryPolicy()
        assert (policy.max_attempts, policy.backoff_s) == (3, 0.1)
        with pytest.raises(ValueError, match="max_attempts"):
            faults.RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError, match="backoff_s"):
            faults.RetryPolicy(backoff_s=-1.0)

    def test_coerce_forms(self):
        assert faults.RetryPolicy.coerce(None).max_attempts == 1
        assert faults.RetryPolicy.coerce(2).max_attempts == 3
        policy = faults.RetryPolicy(max_attempts=5)
        assert faults.RetryPolicy.coerce(policy) is policy
        with pytest.raises(ValueError, match="non-negative"):
            faults.RetryPolicy.coerce(-1)
        with pytest.raises(TypeError, match="retry"):
            faults.RetryPolicy.coerce("twice")

    def test_only_transient_failures_retry(self):
        policy = faults.RetryPolicy(max_attempts=3)
        transient = faults.timeout_failure(1.0)
        deterministic = faults.CellFailure(
            kind=faults.EXCEPTION, message="boom", retryable=False
        )
        assert policy.should_retry(transient, 1)
        assert policy.should_retry(transient, 2)
        assert not policy.should_retry(transient, 3)  # budget exhausted
        assert not policy.should_retry(deterministic, 1)

    def test_backoff_is_exponential_capped_and_deterministic(self):
        # The exact delays of the default policy: 0.1 s doubled per
        # attempt, capped at 30 s (attempts 10-12), jittered by +/-10%
        # from sha256(key:attempt).  Pinned to the last digit.
        policy = faults.RetryPolicy()
        assert [policy.backoff_for(n, key="cell") for n in range(1, 13)] == [
            0.09232894215664411,
            0.19557562028901937,
            0.43940669223485984,
            0.7747361088572315,
            1.5265222980305266,
            2.963642849453249,
            5.842956581975664,
            12.187660209346634,
            25.536550744746265,
            31.817333074044353,
            29.122191537477583,
            29.973866125986575,
        ]
        assert [policy.backoff_for(n) for n in range(1, 4)] == [
            0.10063905438293855,
            0.19282395784630904,
            0.4176770711553222,
        ]
        assert (faults.BACKOFF_FACTOR, faults.MAX_BACKOFF_S, faults.JITTER) == (
            2.0,
            30.0,
            0.1,
        )
        assert policy.backoff_for(1, key="cell") != policy.backoff_for(
            1, key="other-cell"
        )

    def test_zero_backoff_is_exact(self):
        policy = faults.RetryPolicy(backoff_s=0.0)
        assert [policy.backoff_for(n, key="cell") for n in (1, 2, 12)] == [0.0] * 3


class TestChaosPlan:
    def test_exact_cell_name_with_brackets_matches(self):
        # Grid names contain "[...]" which fnmatch would read as a
        # character class; a rule naming the cell verbatim must hit it.
        fault = chaos.FaultSpec(cell="fig2[seed=1]", mode="raise")
        assert fault.matches("fig2[seed=1]", 1)
        assert not fault.matches("fig2[seed=2]", 1)

    def test_glob_patterns_match(self):
        fault = chaos.FaultSpec(cell="fig2*", mode="raise")
        assert fault.matches("fig2[seed=7]", 1)
        assert not fault.matches("fig6[seed=7]", 1)

    def test_attempt_gating(self):
        fault = chaos.FaultSpec(cell="x", mode="raise", attempts=(2,))
        assert not fault.matches("x", 1)
        assert fault.matches("x", 2)
        poison = chaos.FaultSpec(cell="x", mode="raise")
        assert all(poison.matches("x", attempt) for attempt in (1, 2, 5))

    def test_validation(self):
        with pytest.raises(ValueError, match="mode"):
            chaos.FaultSpec(cell="x", mode="explode")
        with pytest.raises(ValueError, match="attempts"):
            chaos.FaultSpec(cell="x", mode="raise", attempts=(0,))
        for extra in ("oops", "probability"):
            with pytest.raises(ValueError, match="unknown fault field"):
                chaos.FaultSpec.from_json_dict(
                    {"cell": "x", "mode": "raise", extra: 0.5}
                )

    def test_json_round_trip_and_coerce(self):
        rules = [{"cell": "a", "mode": "hang", "hang_s": 2.5, "attempts": [1, 3]}]
        plan = chaos.ChaosPlan.coerce(rules)
        assert chaos.ChaosPlan.coerce(plan.to_json()) == plan
        assert chaos.ChaosPlan.coerce(json.dumps({"faults": rules})) == plan
        assert chaos.ChaosPlan.coerce(None) is None
        with pytest.raises(ValueError, match="unknown chaos plan field"):
            chaos.ChaosPlan.coerce(json.dumps({"seed": 3, "faults": rules}))

    def test_first_matching_rule_wins(self):
        plan = chaos.ChaosPlan.coerce(
            [
                {"cell": "a", "mode": "raise"},
                {"cell": "*", "mode": "kill"},
            ]
        )
        assert plan.fault_for("a", 1).mode == "raise"
        assert plan.fault_for("b", 1).mode == "kill"


class TestFailureTaxonomy:
    def test_classification(self):
        crash = faults.classify_exception(faults.WorkerCrashError("x"), "tb")
        flaky = faults.classify_exception(faults.InjectedFault("x"), "tb")
        bug = faults.classify_exception(ValueError("x"), "tb")
        assert crash.kind == faults.WORKER_CRASH and crash.retryable
        assert flaky.kind == faults.EXCEPTION and flaky.retryable
        assert bug.kind == faults.EXCEPTION and not bug.retryable

    def test_failed_result_records_kind_and_attempts(self):
        spec = ScenarioSpec(kind="fig2", name="cell", seed=1)
        result = backends.failed_result(
            spec, "tb", kind=faults.TIMEOUT, attempts=3
        )
        assert result.error_kind == faults.TIMEOUT
        assert result.provenance.attempts == 3
        assert result.report.startswith("scenario cell FAILED:")
        assert not result.ok

    def test_cancelled_result_is_distinct_from_failure(self):
        spec = ScenarioSpec(kind="fig2", name="cell", seed=1)
        result = backends.cancelled_result(spec)
        assert result.error_kind == faults.CANCELLED
        assert result.provenance.attempts == 0
        assert "interrupted" in result.error

    def test_error_kind_survives_save_load_and_wire(self, tmp_path):
        spec = ScenarioSpec(kind="fig2", name="cell", seed=1)
        result = backends.failed_result(
            spec, "tb", kind=faults.WORKER_CRASH, attempts=2
        )
        loaded = ScenarioResult.load(result.save(tmp_path / "cell.json"))
        assert loaded.error_kind == faults.WORKER_CRASH
        assert loaded.provenance.attempts == 2
        wired = ScenarioResult.from_wire(result.to_wire())
        assert wired.error_kind == faults.WORKER_CRASH
        assert wired.provenance.attempts == 2

    def test_to_text_breaks_down_failures(self):
        spec = ScenarioSpec(kind="fig2", name="cell", seed=1)
        sweep = SweepResult(
            results=[
                backends.failed_result(spec, "tb", kind=faults.TIMEOUT, attempts=2)
            ]
        )
        text = sweep.to_text()
        assert "(1 FAILED)" in text
        assert "cell: timeout after 2 attempt(s)" in text


BOTH_BACKENDS = pytest.mark.parametrize("backend", ["serial", "process"])


class TestFaultScenarios:
    """Chaos-injected failures on both backends, bit-identity asserted."""

    def _run(self, backend, chaos_rules, n=2, **kwargs):
        kwargs.setdefault("max_workers", 2)
        return ExperimentRunner().run_many(
            _specs(n), backend=backend, chaos=chaos_rules, **kwargs
        )

    @BOTH_BACKENDS
    def test_flaky_cell_retries_then_succeeds_bit_identically(
        self, backend, clean_sweep
    ):
        sweep = self._run(
            backend,
            [{"cell": _cell(1), "mode": "raise", "attempts": [1]}],
            retry=2,
        )
        assert sweep.ok
        assert sweep[0].provenance.attempts == 2
        assert sweep[1].provenance.attempts == 1
        _assert_matches_clean(sweep[0], clean_sweep[0])

    @BOTH_BACKENDS
    def test_deterministic_exception_never_retries(self, backend):
        specs = [
            ScenarioSpec(kind="fig2", name="good", seed=1),
            # Fails at execution (the chip stage), deterministically.
            ScenarioSpec(kind="fig5_panel", name="bad-cell"),
        ]
        sweep = ExperimentRunner().run_many(
            specs, backend=backend, max_workers=2, retry=3
        )
        failed = sweep.get("bad-cell")
        assert not failed.ok
        assert failed.error_kind == faults.EXCEPTION
        assert failed.provenance.attempts == 1  # retrying a bug is futile
        assert sweep.get("good").ok

    @BOTH_BACKENDS
    def test_hung_cell_times_out_and_retry_succeeds(self, backend, clean_sweep):
        sweep = self._run(
            backend,
            [{"cell": _cell(2), "mode": "hang", "attempts": [1], "hang_s": 30}],
            timeout=1.0,
            retry=1,
        )
        assert sweep.ok
        assert sweep[1].provenance.attempts == 2
        _assert_matches_clean(sweep[1], clean_sweep[1])

    @BOTH_BACKENDS
    def test_timeout_without_retry_is_categorised(self, backend):
        sweep = self._run(
            backend,
            [{"cell": _cell(1), "mode": "hang", "hang_s": 30}],
            timeout=1.0,
        )
        assert not sweep[0].ok
        assert sweep[0].error_kind == faults.TIMEOUT
        assert "timeout" in sweep[0].error
        assert sweep[1].ok  # the sibling cell was not stalled

    @BOTH_BACKENDS
    def test_killed_worker_is_replaced_and_cell_rerun(self, backend, clean_sweep):
        # On the process backend this is a real os._exit hard kill; the
        # serial backend simulates it (killing the caller would take the
        # test suite down too).
        sweep = self._run(
            backend,
            [{"cell": _cell(1), "mode": "kill", "attempts": [1]}],
            retry=2,
        )
        assert sweep.ok
        assert sweep[0].provenance.attempts == 2
        _assert_matches_clean(sweep[0], clean_sweep[0])

    @BOTH_BACKENDS
    def test_poison_cell_is_quarantined_not_retried_forever(self, backend):
        sweep = self._run(
            backend,
            [{"cell": _cell(1), "mode": "kill"}],  # kills on every attempt
            retry=10,
        )
        failed = sweep[0]
        assert not failed.ok
        assert failed.error_kind == faults.WORKER_CRASH
        assert "quarantined" in failed.error
        # Quarantine (default: 2 crashes) preempted the 11-attempt budget.
        assert failed.provenance.attempts == 2
        assert sweep[1].ok

    @BOTH_BACKENDS
    def test_on_failure_raise_aborts_after_flushing_completed(
        self, backend, tmp_path
    ):
        store = ResultStore(tmp_path / "store")
        with pytest.raises(faults.CellFailed, match="fig2"):
            ExperimentRunner().run_many(
                _specs(3),
                backend="serial" if backend == "serial" else "process",
                max_workers=1,  # one worker => strictly in order
                store=store,
                chaos=[{"cell": _cell(3), "mode": "raise"}],
                on_failure="raise",
            )
        # Cells completed before the abort were flushed incrementally.
        assert store.get(_specs(3)[0]) is not None
        assert store.get(_specs(3)[1]) is not None
        assert store.get(_specs(3)[2]) is None


class TestSerialFallback:
    def test_broken_pool_falls_back_to_serial(self, caplog):
        # Cells 1 and 2 each kill two workers (quarantined at the second
        # crash); cell 3's first kill is the pool's fifth crash, so its
        # retry runs on the serial drain of the same sweep.
        assert backends.QUARANTINE_AFTER_CRASHES == 2
        assert backends.SERIAL_FALLBACK_CRASHES == 5
        supervision = faults.Supervision(
            retry=faults.RetryPolicy(max_attempts=4, backoff_s=0.0)
        )
        plan = chaos.ChaosPlan.coerce(
            [
                {"cell": _cell(1), "mode": "kill", "attempts": [1, 2]},
                {"cell": _cell(2), "mode": "kill", "attempts": [1, 2]},
                {"cell": _cell(3), "mode": "kill", "attempts": [1]},
            ]
        )
        with caplog.at_level(logging.WARNING, logger="repro.pipeline.backends"):
            results = backends.run_process(
                _specs(3),
                max_workers=1,
                supervision=supervision,
                chaos=plan,
            )
        assert any("falling back" in record.message for record in caplog.records)
        for quarantined in results[:2]:
            assert quarantined.error_kind == faults.WORKER_CRASH
            assert "quarantined" in quarantined.error
            assert quarantined.provenance.attempts == 2
        assert results[2].ok and results[2].provenance.attempts == 2
        clean = ExperimentRunner().run_many(_specs(3)[2:], backend="serial")[0]
        _assert_matches_clean(results[2], clean)


class TestGracefulShutdown:
    def test_context_manager_converts_signal(self):
        with pytest.raises(faults.SweepInterrupted) as excinfo:
            with faults.graceful_shutdown():
                os.kill(os.getpid(), signal.SIGTERM)
                time.sleep(5)  # the signal must preempt this
        assert excinfo.value.signum == signal.SIGTERM

    def test_handlers_restored_after_exit(self):
        before = signal.getsignal(signal.SIGTERM)
        with faults.graceful_shutdown():
            pass
        assert signal.getsignal(signal.SIGTERM) is before

    @BOTH_BACKENDS
    def test_sigterm_mid_sweep_cancels_flushes_and_resumes_bit_identically(
        self, backend, tmp_path
    ):
        """The headline robustness property, end to end on both backends.

        A sweep hangs on its third cell; SIGTERM arrives mid-hang.  The
        two finished cells must already be in the store, the unfinished
        cells must be recorded ``cancelled`` (not FAILED), and resuming
        against the same store must produce results bit-identical to a
        clean uninterrupted run.
        """
        store_dir = tmp_path / "store"
        specs = _specs(4)
        plan = [{"cell": _cell(3), "mode": "hang", "hang_s": 60}]
        timer = threading.Timer(
            1.0, os.kill, (os.getpid(), signal.SIGTERM)
        )
        timer.start()
        try:
            interrupted = ExperimentRunner().run_many(
                specs,
                backend=backend,
                max_workers=1,  # one worker => cells finish strictly in order
                store=store_dir,
                resume=True,
                chaos=plan,
            )
        finally:
            timer.cancel()
        assert not interrupted.ok
        kinds = [result.error_kind for result in interrupted]
        assert kinds[0] is None and kinds[1] is None
        assert faults.CANCELLED in kinds[2:]
        # The hung cell had started its first attempt; the last never ran.
        assert interrupted[2].provenance.attempts == 1
        assert interrupted[3].provenance.attempts == 0
        assert not any(
            kind == faults.EXCEPTION for kind in kinds
        ), "never-ran cells must not be reported as failures"
        # Completed cells were flushed incrementally, before the signal.
        store = ResultStore(store_dir)
        assert store.get(specs[0]) is not None
        assert store.get(specs[1]) is not None
        # Resume executes exactly the unfinished cells, without chaos.
        resumed = ExperimentRunner().run_many(
            specs, backend=backend, max_workers=1, store=store_dir, resume=True
        )
        assert resumed.ok
        clean = ExperimentRunner().run_many(specs, backend="serial")
        for got, expected in zip(resumed, clean):
            _assert_matches_clean(got, expected)


    @BOTH_BACKENDS
    def test_sigterm_under_on_failure_raise_cancels_instead_of_raising(
        self, backend
    ):
        # A cancelled cell did not fail: "raise" must not turn the orderly
        # stop into a CellFailed abort.
        timer = threading.Timer(1.0, os.kill, (os.getpid(), signal.SIGTERM))
        timer.start()
        try:
            sweep = ExperimentRunner().run_many(
                _specs(3),
                backend=backend,
                max_workers=1,
                on_failure="raise",
                chaos=[{"cell": _cell(2), "mode": "hang", "hang_s": 60}],
            )
        finally:
            timer.cancel()
        assert [(cell.error_kind, cell.provenance.attempts) for cell in sweep] == [
            (None, 1),
            (faults.CANCELLED, 1),
            (faults.CANCELLED, 0),
        ]


class TestSupervisionPlumbing:
    def test_supervision_validation(self):
        with pytest.raises(ValueError, match="timeout_s"):
            faults.Supervision(timeout_s=0)
        with pytest.raises(ValueError, match="on_failure"):
            faults.Supervision(on_failure="explode")

    def test_run_many_rejects_bad_on_failure(self):
        with pytest.raises(ValueError, match="on_failure"):
            ExperimentRunner().run_many(_specs(1), on_failure="explode")

    def test_attempts_default_to_one_on_clean_runs(self, clean_sweep):
        assert [result.provenance.attempts for result in clean_sweep] == [1, 1]
