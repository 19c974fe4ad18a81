"""Fault-tolerant sweep execution: the supervision policy under injected faults.

The supervision layer must keep a sweep correct under every failure mode
it claims to handle: flaky cells retry and end bit-identical to a clean
run, hung cells are timed out (their worker killed and replaced) without
stalling siblings, a hard-killed worker is replaced and its cell
resubmitted, a poison cell is quarantined instead of killing workers
forever, a repeatedly-breaking pool degrades to the serial backend, and
SIGINT/SIGTERM stop the sweep orderly with completed cells already
flushed to the result store -- on *both* backends, driven by the
deterministic fault-injection harness in ``tests/fault_injection.py``.
"""

import json
import logging
import os
import signal
import threading
import time

import pytest
from fault_injection import KILL_EXIT_CODE, Fault, inject_faults

from repro.cli import main
from repro.core.spec import ScenarioSpec
from repro.pipeline import ExperimentRunner, RunOptions, SpecGrid
from repro.pipeline import backends, faults
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


class TestFaultInjectionHarness:
    def test_patches_are_undone_on_exit(self):
        from repro.pipeline.runner import Pipeline

        attempt, execute = backends._attempt, Pipeline.execute
        with pytest.raises(RuntimeError):
            with inject_faults(Fault(_cell(1), "raise")):
                assert backends._attempt is not attempt
                assert Pipeline.execute is not execute
                raise RuntimeError("leave the block early")
        assert backends._attempt is attempt
        assert Pipeline.execute is execute

    def test_unknown_mode_is_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            with inject_faults(Fault(_cell(1), "explode")):
                pass


class TestFailureTaxonomy:
    def test_classification(self):
        flaky = faults.classify_exception(faults.TransientError("x"), "tb")
        bug = faults.classify_exception(ValueError("x"), "tb")
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
    """Injected failures on both backends, bit-identity asserted."""

    def _run(self, backend, plan, n=2, **kwargs):
        kwargs.setdefault("max_workers", 2)
        with inject_faults(*plan):
            return ExperimentRunner().run_many(_specs(n), backend=backend, **kwargs)

    @BOTH_BACKENDS
    def test_flaky_cell_retries_then_succeeds_bit_identically(
        self, backend, clean_sweep
    ):
        sweep = self._run(
            backend,
            [Fault(_cell(1), "raise", (1,))],
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
            [Fault(_cell(2), "hang", (1,), hang_s=30)],
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
            [Fault(_cell(1), "hang", hang_s=30)],
            timeout=1.0,
        )
        assert not sweep[0].ok
        assert sweep[0].error_kind == faults.TIMEOUT
        assert "timeout" in sweep[0].error
        assert sweep[1].ok  # the sibling cell was not stalled

    @BOTH_BACKENDS
    def test_killed_worker_is_replaced_and_cell_rerun(
        self, backend, clean_sweep, caplog
    ):
        # On the process backend this is a real os._exit hard kill; the
        # serial backend records the failure a dead worker leaves (killing
        # the caller would take the test suite down too).
        with caplog.at_level(logging.WARNING, logger="repro.pipeline.backends"):
            sweep = self._run(backend, [Fault(_cell(1), "kill", (1,))], retry=2)
        assert sweep.ok
        assert sweep[0].provenance.attempts == 2
        _assert_matches_clean(sweep[0], clean_sweep[0])
        died = [
            record.message
            for record in caplog.records
            if f"exit code {KILL_EXIT_CODE}" in record.message
        ]
        # The parent saw the worker die while it ran attempt 1 of the cell.
        if backend == "process":
            assert len(died) == 1 and "attempt 1 of cell fig2[seed=1]" in died[0]
        else:
            assert died == []

    @BOTH_BACKENDS
    def test_poison_cell_is_quarantined_not_retried_forever(self, backend):
        sweep = self._run(
            backend,
            [Fault(_cell(1), "kill")],  # kills on every attempt
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
            with inject_faults(Fault(_cell(3), "raise")):
                ExperimentRunner().run_many(
                    _specs(3),
                    backend=backend,
                    max_workers=1,  # one worker => strictly in order
                    store=store,
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
        plan = (
            Fault(_cell(1), "kill", (1, 2)),
            Fault(_cell(2), "kill", (1, 2)),
            Fault(_cell(3), "kill", (1,)),
        )
        with caplog.at_level(logging.WARNING, logger="repro.pipeline.backends"):
            with inject_faults(*plan):
                results = backends.run_process(
                    _specs(3), max_workers=1, supervision=supervision
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
        timer = threading.Timer(
            1.0, os.kill, (os.getpid(), signal.SIGTERM)
        )
        timer.start()
        try:
            with inject_faults(Fault(_cell(3), "hang", hang_s=60)):
                interrupted = ExperimentRunner().run_many(
                    specs,
                    backend=backend,
                    max_workers=1,  # one worker => cells finish strictly in order
                    store=store_dir,
                    resume=True,
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
        # Resume executes exactly the unfinished cells, without faults.
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
            with inject_faults(Fault(_cell(2), "hang", hang_s=60)):
                sweep = ExperimentRunner().run_many(
                    _specs(3), backend=backend, max_workers=1, on_failure="raise"
                )
        finally:
            timer.cancel()
        assert [(cell.error_kind, cell.provenance.attempts) for cell in sweep] == [
            (None, 1),
            (faults.CANCELLED, 1),
            (faults.CANCELLED, 0),
        ]


def _sigterm_after_flushes(store_dir, count, settle_s=0.5, patience_s=60.0):
    """SIGTERM this process once ``count`` cells are in the store.

    ``settle_s`` gives the sweep time to start its next (hanging) cell.
    """
    deadline = time.monotonic() + patience_s
    while time.monotonic() < deadline:
        if len(list(store_dir.glob("*/*.json"))) >= count:
            break
        time.sleep(0.05)
    time.sleep(settle_s)
    os.kill(os.getpid(), signal.SIGTERM)


def _comparable(sweep_json):
    """A sweep's JSON without its wall-clock fields."""
    sweep = json.loads(sweep_json.read_text())
    del sweep["elapsed_s"]
    for entry in sweep["results"]:
        del entry["provenance"]["elapsed_s"]
        del entry["provenance"]["created_at"]
    return sweep


class TestSweepCommandUnderFaults:
    """``repro sweep`` end to end: a killed worker, a flaky cell, a SIGTERM."""

    @BOTH_BACKENDS
    def test_killed_and_flaky_cells_finish_with_no_failed_cell(
        self, backend, tmp_path, capsys
    ):
        out = tmp_path / "sweep.json"
        plan = (Fault(_cell(1), "kill", (1,)), Fault(_cell(2), "raise", (1,)))
        with inject_faults(*plan):
            code = main(
                [
                    "sweep", "fig2", "--grid-seeds", "1", "2", "3",
                    "--backend", backend, "--workers", "2",
                    "--timeout", "120", "--retries", "2",
                    "--json", str(out),
                ]
            )
        assert code == 0
        results = json.loads(out.read_text())["results"]
        assert [entry["error"] for entry in results] == [None, None, None]
        assert {
            entry["spec"]["name"]: entry["provenance"]["attempts"]
            for entry in results
        } == {
            _cell(1): 2,  # worker killed on attempt 1, rerun
            _cell(2): 2,  # flaked on attempt 1, retried
            _cell(3): 1,  # untouched
        }

    @BOTH_BACKENDS
    def test_sigterm_then_resume_matches_a_clean_run(
        self, backend, tmp_path, capsys
    ):
        store = tmp_path / "store"
        sweep = [
            "sweep", "fig2", "--grid-seeds", "1", "2", "3", "4",
            "--backend", backend, "--workers", "1",
        ]
        stored = [*sweep, "--store", str(store), "--resume", "--json"]
        stop = threading.Thread(target=_sigterm_after_flushes, args=(store, 2))
        stop.start()
        try:
            with inject_faults(Fault(_cell(3), "hang", hang_s=60)):
                code = main([*stored, str(tmp_path / "interrupted.json")])
        finally:
            stop.join()
        assert code != 0
        interrupted = json.loads((tmp_path / "interrupted.json").read_text())
        assert [
            (entry["error_kind"], entry["provenance"]["attempts"])
            for entry in interrupted["results"]
        ] == [
            (None, 1),
            (None, 1),
            (faults.CANCELLED, 1),  # hung: its attempt had started
            (faults.CANCELLED, 0),  # queued: never started
        ]
        assert main([*stored, str(tmp_path / "resumed.json")]) == 0
        assert main([*sweep, "--json", str(tmp_path / "clean.json")]) == 0
        assert _comparable(tmp_path / "resumed.json") == _comparable(
            tmp_path / "clean.json"
        )


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
