"""Threaded stress tests for the lock-holding classes of the library.

Each class that keeps shared state behind a lock gets a test under
concurrent callers, so a lost update or a torn read fails loudly rather
than flaking once a month.  The CONC001 scan in ``tests/test_code_policy.py``
checks the same classes statically (every touch of lock-guarded state holds
the lock); these tests pin what the locking buys:

* ``Ledger.count``/``tip_digest`` read ``_count``/``_tip`` under the
  ledger's lock, hammered here against concurrent appends;
* ``DetectionService._inflight`` is a bounded ``caching.LRUCache`` of
  per-spec locks, hammered here for coalescing and boundedness;
* ``TokenBucket``, ``ServiceMetrics`` and ``ResultStore``'s counters add
  up exactly under 8 threads behind a barrier, and ``ServiceMetrics``'
  percentiles still read the recent traffic long after its sample fills.

Every thread is a daemon joined within :data:`DEADLINE_S`, so a deadlock
fails its test with the names of the stuck threads.
"""

import random
import sys
import threading
import time

import pytest

from repro.core.spec import ScenarioSpec
from repro.pipeline import ExperimentRunner, ResultStore
from repro.service.ledger import Ledger
from repro.service.protocol import TokenBucket
from repro.service.server import (
    _INFLIGHT_LOCKS,
    DetectionService,
    ServiceConfig,
    ServiceMetrics,
)

THREADS = 8


#: Seconds a stress run's threads get to finish: a deadlock in the class
#: under test then fails the test, naming the stuck threads, instead of
#: hanging the suite.
DEADLINE_S = 60.0


def _join_all(threads, deadline_s=DEADLINE_S):
    """Join daemon ``threads`` within one shared deadline; fail on stragglers."""
    deadline = time.monotonic() + deadline_s
    for thread in threads:
        thread.join(max(0.0, deadline - time.monotonic()))
    alive = [thread.name for thread in threads if thread.is_alive()]
    assert not alive, f"threads still running after {deadline_s} s: {alive}"


def _run_threads(workers, deadline_s=DEADLINE_S):
    barrier = threading.Barrier(len(workers), timeout=deadline_s)
    errors = []

    def wrap(fn):
        def run():
            try:
                barrier.wait()
                fn()
            except Exception as error:  # pragma: no cover - fail loudly
                errors.append(error)

        return run

    threads = [
        threading.Thread(target=wrap(fn), name=f"stress-worker-{index}", daemon=True)
        for index, fn in enumerate(workers)
    ]
    for thread in threads:
        thread.start()
    _join_all(threads, deadline_s)
    assert errors == []


class TestRunThreadsDeadline:
    def test_a_stuck_worker_fails_with_its_name(self):
        release = threading.Event()
        try:
            with pytest.raises(AssertionError, match="stress-worker-1"):
                _run_threads([lambda: None, release.wait], deadline_s=0.2)
        finally:
            release.set()


class TestLedgerLockDiscipline:
    N_WRITERS = 4
    APPENDS_EACH = 25

    def test_concurrent_appends_with_racing_readers(self, tmp_path):
        ledger = Ledger(tmp_path / "ledger.jsonl")
        stop = threading.Event()
        seen = []

        def writer(index):
            def run():
                for i in range(self.APPENDS_EACH):
                    ledger.append({"writer": index, "i": i})

            return run

        def reader():
            last = 0
            while not stop.is_set():
                count = ledger.count
                tip = ledger.tip_digest
                # monotone under the lock: no torn/backwards reads
                assert count >= last
                assert isinstance(tip, str) and tip
                last = count
            seen.append(last)

        writers = [writer(i) for i in range(self.N_WRITERS)]

        reader_threads = [
            threading.Thread(target=reader, name=f"ledger-reader-{index}", daemon=True)
            for index in range(2)
        ]
        for thread in reader_threads:
            thread.start()
        try:
            _run_threads(writers)
        finally:
            stop.set()
            _join_all(reader_threads)

        assert ledger.count == self.N_WRITERS * self.APPENDS_EACH
        assert ledger.verify() == []
        # a fresh open recovers the same tip the properties reported
        reopened = Ledger(tmp_path / "ledger.jsonl")
        assert reopened.count == ledger.count
        assert reopened.tip_digest == ledger.tip_digest


class TestInflightLockTable:
    def _service(self, tmp_path):
        config = ServiceConfig(port=0, data_dir=tmp_path / "svc", difficulty=0)
        return DetectionService(config)

    def test_same_key_coalesces_to_one_lock_across_threads(self, tmp_path):
        service = self._service(tmp_path)
        locks = []
        guard = threading.Lock()

        def fetch():
            lock = service._inflight_lock("spec-digest-1")
            with guard:
                locks.append(lock)

        _run_threads([fetch] * 16)
        assert len(locks) == 16
        assert len({id(lock) for lock in locks}) == 1

    def test_lock_table_stays_bounded_under_distinct_keys(self, tmp_path):
        service = self._service(tmp_path)

        def churn(start):
            def run():
                for i in range(start, start + 4 * _INFLIGHT_LOCKS):
                    service._inflight_lock(f"key-{start}-{i}")

            return run

        _run_threads([churn(i * 10_000) for i in range(4)])
        assert len(service._inflight) <= _INFLIGHT_LOCKS

    def test_evicted_key_still_serializes_new_waiters(self, tmp_path):
        # eviction mid-wait is safe by design: the loser recomputes a
        # fresh lock and the store write underneath is first-wins.  The
        # re-fetched lock must again coalesce for everyone.
        service = self._service(tmp_path)
        first = service._inflight_lock("hot-key")
        for i in range(2 * _INFLIGHT_LOCKS):  # evict hot-key
            service._inflight_lock(f"filler-{i}")
        locks = []
        guard = threading.Lock()

        def refetch():
            lock = service._inflight_lock("hot-key")
            with guard:
                locks.append(lock)

        _run_threads([refetch] * 8)
        assert len({id(lock) for lock in locks}) == 1
        assert locks[0] is not first


@pytest.fixture()
def switch_often():
    # Hand the GIL over every microsecond, so an unlocked check-then-set
    # interleaves in a run this short.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)


class TestExactCountsUnderContention:
    CALLS_EACH = 16

    def test_token_bucket_grants_exactly_its_capacity(self, switch_often):
        bucket = TokenBucket(capacity=64, refill_per_s=0)
        granted = []
        guard = threading.Lock()

        def consume():
            mine = sum(bucket.consume("client") for _ in range(self.CALLS_EACH))
            with guard:
                granted.append(mine)

        _run_threads([consume] * THREADS)
        assert sum(granted) == 64
        assert not bucket.consume("client")

    def test_service_metrics_counts_add_up(self, switch_often):
        metrics = ServiceMetrics()

        def record(index):
            def run():
                for i in range(self.CALLS_EACH):
                    metrics.observe(f"/e{index % 2}", 500 if i % 4 == 0 else 200, float(i))
                    metrics.cache_event(hit=i % 2 == 0)

            return run

        _run_threads([record(i) for i in range(THREADS)])
        calls = THREADS * self.CALLS_EACH
        snapshot = metrics.snapshot()
        assert snapshot["requests"]["total"] == calls
        assert snapshot["requests"]["by_endpoint"] == {"/e0": calls // 2, "/e1": calls // 2}
        assert snapshot["requests"]["errors"] == calls // 4
        assert snapshot["cache"]["hits"] == snapshot["cache"]["misses"] == calls // 2
        assert snapshot["latency_ms"]["count"] == calls

    def test_service_metrics_percentiles_follow_a_long_run(self):
        # Far more requests than the metrics keep: the percentiles must
        # still read the traffic, not the all-time extremes.
        rng = random.Random(7)
        metrics = ServiceMetrics()
        values = [rng.uniform(0.0, 100.0) for _ in range(40_000)]
        for value in values:
            metrics.observe("/verify", 200, value)
        latency = metrics.snapshot()["latency_ms"]
        assert latency["count"] == len(values)
        assert latency["max"] == max(values)
        for name, expected in (("p50", 50.0), ("p90", 90.0), ("p99", 99.0)):
            assert abs(latency[name] - expected) < 3.0, (name, latency[name])
        assert latency["p50"] <= latency["p90"] <= latency["p99"] <= latency["max"]

    def test_service_metrics_percentiles_read_the_recent_requests(self):
        metrics = ServiceMetrics(max_samples=100)
        for _ in range(100):
            metrics.observe("/verify", 200, 1_000.0)
        for _ in range(100):
            metrics.observe("/verify", 200, 1.0)
        latency = metrics.snapshot()["latency_ms"]
        assert latency["p50"] == latency["p99"] == 1.0
        assert (latency["count"], latency["max"]) == (200, 1_000.0)

    def test_result_store_counts_every_concurrent_get(self, tmp_path, switch_often):
        # A hit parses the npz header with ast.literal_eval, which is not
        # thread-safe on CPython 3.11: unserialised, microsecond switching
        # raised SystemError ("AST constructor recursion depth mismatch")
        # from a concurrent get.
        store = ResultStore(tmp_path)
        stored = ScenarioSpec(kind="fig2", name="stored", seed=1)
        absent = ScenarioSpec(kind="fig2", name="absent", seed=2)
        store.put(ExperimentRunner().run(stored))

        def get():
            for _ in range(self.CALLS_EACH // 2):
                assert store.get(stored) is not None
                assert store.get(absent) is None

        _run_threads([get] * THREADS)
        stats = store.stats()
        assert stats.hits == stats.misses == THREADS * self.CALLS_EACH // 2
