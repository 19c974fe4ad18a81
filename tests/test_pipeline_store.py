"""Content-addressed result store: keying, integrity, resumable sweeps.

The store memoizes :class:`ScenarioResult` by (spec hash, code-version
salt).  Pinned here: hits are bit-identical to computed results, failed
cells are never memoized or served, corruption (bit flips, missing or
orphaned ``.npz``, doctored documents) is detected and degrades to a
miss, entries from another commit invalidate, concurrent writers leave a
valid entry, and a partially completed sweep resumes executing only the
missing cells on both backends.
"""

import hashlib
import json
import multiprocessing

import numpy as np
import pytest

from repro.core.spec import ScenarioSpec
from repro.pipeline import ExperimentRunner, ResultStore
from repro.pipeline.backends import failed_result
from repro.pipeline.store import code_version_salt, store_key


def _spec(seed: int, name: str = "") -> ScenarioSpec:
    return ScenarioSpec(kind="fig2", name=name or f"fig2[seed={seed}]", seed=seed)


def _digest(array: np.ndarray) -> str:
    return hashlib.sha256(
        f"{array.shape}|{array.dtype}|".encode() + array.tobytes()
    ).hexdigest()


def _assert_results_identical(computed, served):
    assert served.report == computed.report
    assert served.scalars == computed.scalars
    assert set(served.arrays) == set(computed.arrays)
    for key in computed.arrays:
        assert _digest(served.arrays[key]) == _digest(computed.arrays[key]), key
    assert served.spec == computed.spec
    assert served.provenance.spec_hash == computed.provenance.spec_hash


class TestKeying:
    def test_key_combines_spec_hash_and_salt(self, tmp_path):
        store = ResultStore(tmp_path, salt="s1")
        spec = _spec(1)
        assert store.key_for(spec) == store_key(spec.spec_hash(), "s1")

    def test_different_specs_get_different_keys(self, tmp_path):
        store = ResultStore(tmp_path)
        assert store.key_for(_spec(1)) != store.key_for(_spec(2))

    def test_different_salts_get_different_keys(self, tmp_path):
        spec = _spec(1)
        a = ResultStore(tmp_path, salt="commit-a")
        b = ResultStore(tmp_path, salt="commit-b")
        assert a.key_for(spec) != b.key_for(spec)

    def test_default_salt_names_commit_and_schema_versions(self, tmp_path):
        salt = ResultStore(tmp_path).salt
        assert salt == code_version_salt()
        assert "commit=" in salt
        assert "spec-schema=v" in salt and "artifact-schema=v" in salt


class TestPutGet:
    def test_empty_store_misses(self, tmp_path):
        store = ResultStore(tmp_path)
        assert store.get(_spec(1)) is None
        assert not store.has(_spec(1)) and _spec(1) not in store
        stats = store.stats()
        assert stats.misses == 1 and stats.hits == 0 and stats.entries == 0

    def test_hit_is_bit_identical_to_computed(self, tmp_path):
        store = ResultStore(tmp_path)
        computed = ExperimentRunner().run(_spec(1))
        assert computed.arrays  # fig2 produces arrays; the npz path is exercised
        store.put(computed)
        served = store.get(_spec(1))
        _assert_results_identical(computed, served)
        # payload dropped exactly like ScenarioResult.load
        assert computed.payload is not None and served.payload is None
        stats = store.stats()
        assert stats.hits == 1 and stats.writes == 1 and stats.entries == 1

    def test_array_free_hit_keeps_the_wire_json(self, tmp_path, monkeypatch):
        store = ResultStore(tmp_path)
        computed = ExperimentRunner().run(_spec(1))
        store.put(computed)

        def no_decode(*args, **kwargs):
            raise AssertionError("an arrays=False read decoded the .npz")

        monkeypatch.setattr(np, "load", no_decode)
        served = store.get(_spec(1), arrays=False)
        assert served is not None and not served.arrays
        assert served.wire_json() == computed.wire_json()
        assert served.to_wire()["npz"] is None
        assert (served.scalars, served.report) == (computed.scalars, computed.report)
        monkeypatch.undo()
        # The default read still decodes every array bit-exactly.
        _assert_results_identical(computed, store.get(_spec(1)))
        assert store.stats().hits == 2

    def test_entries_fan_out_into_two_level_shards(self, tmp_path):
        store = ResultStore(tmp_path)
        result = ExperimentRunner().run(_spec(1))
        path = store.put(result)
        key = store.key_for(_spec(1))
        assert path == tmp_path / key[:2] / f"{key}.json"
        assert (tmp_path / key[:2] / f"{key}.npz").is_file()

    def test_array_less_result_stores_without_npz(self, tmp_path):
        from repro.pipeline import Provenance, ScenarioResult

        store = ResultStore(tmp_path)
        spec = _spec(1, name="no-arrays")
        computed = ScenarioResult(
            spec=spec,
            provenance=Provenance(spec_hash=spec.spec_hash()),
            scalars={"answer": 42},
            report="scalar-only result",
        )
        assert not computed.arrays
        store.put(computed)
        key = store.key_for(computed.spec)
        assert not (tmp_path / key[:2] / f"{key}.npz").exists()
        served = store.get(computed.spec)
        assert served is not None
        _assert_results_identical(computed, served)
        assert store.verify() == []

    def test_put_refuses_failed_result(self, tmp_path):
        store = ResultStore(tmp_path)
        failed = failed_result(_spec(1, name="bad"), "Traceback: boom")
        with pytest.raises(ValueError, match="failed"):
            store.put(failed)
        assert store.stats().entries == 0

    def test_doctored_failed_entry_is_never_served(self, tmp_path):
        # put() refuses failures, but a store is plain files: an entry
        # edited to record error text must still miss on read.
        store = ResultStore(tmp_path)
        path = store.put(ExperimentRunner().run(_spec(1)))
        document = json.loads(path.read_text())
        document["artifact"]["error"] = "boom"
        path.write_text(json.dumps(document))
        assert store.get(_spec(1)) is None
        assert store.stats().corrupt == 1
        assert any("failed cell" in problem for problem in store.verify())


class TestCorruptionDetection:
    @pytest.fixture()
    def stored(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put(ExperimentRunner().run(_spec(1)))
        return store

    def _npz_path(self, store):
        return store._npz_path(store.key_for(_spec(1)))

    def test_bit_flipped_npz_misses_and_is_flagged(self, stored):
        npz_path = self._npz_path(stored)
        data = bytearray(npz_path.read_bytes())
        data[-1] ^= 0xFF
        npz_path.write_bytes(bytes(data))
        assert stored.get(_spec(1)) is None
        assert stored.stats().corrupt == 1
        assert any("digest mismatch" in p for p in stored.verify())

    def test_missing_npz_misses_and_is_flagged(self, stored):
        self._npz_path(stored).unlink()
        assert stored.get(_spec(1)) is None
        assert any("missing" in p for p in stored.verify())

    def test_array_free_read_still_checks_the_npz(self, stored):
        npz_path = self._npz_path(stored)
        data = bytearray(npz_path.read_bytes())
        data[len(data) // 2] ^= 0x01
        npz_path.write_bytes(bytes(data))
        assert stored.get(_spec(1), arrays=False) is None
        npz_path.unlink()
        assert stored.get(_spec(1), arrays=False) is None
        stats = stored.stats()
        assert (stats.corrupt, stats.misses, stats.hits) == (2, 2, 0)

    def test_provenance_without_attempts_misses(self, stored):
        # Every schema-2 writer records the attempt count; an artifact
        # without it is malformed, not a first attempt.
        path = stored._json_path(stored.key_for(_spec(1)))
        document = json.loads(path.read_text())
        del document["artifact"]["provenance"]["attempts"]
        path.write_text(json.dumps(document))
        assert stored.get(_spec(1)) is None
        assert stored.stats().corrupt == 1
        assert any("attempts" in problem for problem in stored.verify())

    def test_unreadable_document_misses(self, stored):
        json_path = stored._json_path(stored.key_for(_spec(1)))
        json_path.write_text("{not json")
        assert stored.get(_spec(1)) is None
        assert stored.verify()

    def test_orphaned_npz_is_flagged_and_collected(self, stored):
        orphan = stored.root / "ab" / ("a" * 64 + ".npz")
        orphan.parent.mkdir(exist_ok=True)
        orphan.write_bytes(b"zombie")
        assert any("orphaned" in p for p in stored.verify())
        removed, freed = stored.gc()
        assert removed == 1 and freed == len(b"zombie")
        assert not orphan.exists()
        assert stored.verify() == []

    def test_gc_removes_corrupt_entry(self, stored):
        npz_path = self._npz_path(stored)
        data = bytearray(npz_path.read_bytes())
        data[-1] ^= 0xFF
        npz_path.write_bytes(bytes(data))
        removed, _ = stored.gc()
        assert removed == 2  # entry document + its corrupt npz
        assert stored.stats().entries == 0 and stored.verify() == []

    def test_store_rebuild_errors_exclude_exception(self):
        from repro.pipeline.store import _REBUILD_ERRORS

        assert Exception not in _REBUILD_ERRORS
        assert BaseException not in _REBUILD_ERRORS
        assert ValueError in _REBUILD_ERRORS


class TestCodeVersionInvalidation:
    def test_entries_from_another_commit_miss(self, tmp_path):
        old = ResultStore(tmp_path, salt=code_version_salt(commit="deadbeef"))
        old.put(ExperimentRunner().run(_spec(1)))
        current = ResultStore(tmp_path)
        assert current.get(_spec(1)) is None
        stats = current.stats()
        assert stats.entries == 0 and stats.stale == 1

    def test_gc_reclaims_stale_commit_entries_and_keeps_current(self, tmp_path):
        runner = ExperimentRunner()
        old = ResultStore(tmp_path, salt=code_version_salt(commit="deadbeef"))
        old.put(runner.run(_spec(1)))
        current = ResultStore(tmp_path)
        current.put(runner.run(_spec(2)))
        removed, freed = current.gc()
        assert removed == 2 and freed > 0  # old json + old npz
        stats = current.stats()
        assert stats.entries == 1 and stats.stale == 0
        assert current.get(_spec(2)) is not None
        assert current.get(_spec(1)) is None


class TestRunnerIntegration:
    def test_run_writes_back_and_serves_hits(self, tmp_path):
        runner = ExperimentRunner()
        store = ResultStore(tmp_path)
        computed = runner.run(_spec(3), store=store)
        served = runner.run(_spec(3), store=store)
        _assert_results_identical(computed, served)
        assert served.payload is None
        stats = store.stats()
        assert stats.writes == 1 and stats.hits == 1

    def test_run_accepts_directory_path_as_store(self, tmp_path):
        runner = ExperimentRunner()
        runner.run(_spec(3), store=tmp_path / "store")
        assert ResultStore(tmp_path / "store").stats().entries == 1

    def test_resume_false_recomputes_but_writes_back(self, tmp_path):
        runner = ExperimentRunner()
        store = ResultStore(tmp_path)
        runner.run(_spec(3), store=store)
        recomputed = runner.run(_spec(3), store=store, resume=False)
        assert recomputed.payload is not None  # executed, not served
        stats = store.stats()
        assert stats.hits == 0 and stats.writes == 2

    def test_failed_scenario_is_not_memoized_by_run(self, tmp_path):
        runner = ExperimentRunner()
        store = ResultStore(tmp_path)
        bad = ScenarioSpec(kind="fig5_panel", name="bad-cell")  # no chip
        sweep = runner.run_many([bad], backend="serial", store=store)
        assert not sweep.ok
        assert store.stats().entries == 0


@pytest.mark.parametrize("backend", ["serial", "process"])
class TestResumableSweeps:
    def _grid(self):
        return [_spec(seed) for seed in (1, 2, 3, 4)]

    def test_interrupted_sweep_resumes_missing_cells_only(
        self, tmp_path, backend
    ):
        runner = ExperimentRunner()
        uninterrupted = runner.run_many(self._grid(), backend=backend)

        # "Interrupt" after 2 of 4 cells: only the first half reached the
        # store before the sweep died.
        store = ResultStore(tmp_path)
        runner.run_many(self._grid()[:2], backend=backend, store=store)
        assert store.stats().entries == 2

        resumed = runner.run_many(self._grid(), backend=backend, store=store)
        stats = store.stats()
        assert stats.hits == 2  # first half served from disk
        assert stats.writes == 4  # second half executed and written back
        assert resumed.names == uninterrupted.names
        for computed, cell in zip(uninterrupted, resumed):
            _assert_results_identical(computed, cell)

        # A full re-run is now all hits and still bit-identical.
        repeat = runner.run_many(self._grid(), backend=backend, store=store)
        assert store.stats().hits == stats.hits + 4
        for computed, cell in zip(uninterrupted, repeat):
            _assert_results_identical(computed, cell)

    def test_failed_cells_reexecute_on_resume(self, tmp_path, backend):
        runner = ExperimentRunner()
        store = ResultStore(tmp_path)
        specs = [
            _spec(1, name="first"),
            ScenarioSpec(kind="fig5_panel", name="bad-cell"),  # no chip
            _spec(2, name="last"),
        ]
        first = runner.run_many(specs, backend=backend, store=store)
        assert [cell.ok for cell in first] == [True, False, True]
        assert store.stats().entries == 2  # the failure was not memoized

        second = runner.run_many(specs, backend=backend, store=store)
        stats = store.stats()
        assert stats.hits == 2  # both successes served
        assert [cell.ok for cell in second] == [True, False, True]
        assert "requires a chip" in second.get("bad-cell").error
        assert "(1 FAILED)" in second.to_text()


def _concurrent_put(args):
    """Worker body: compute the shared cell and write it to the store."""
    root, seed = args
    runner = ExperimentRunner()
    result = runner.run(_spec(seed, name="concurrent"), store=root, resume=False)
    return result.ok


class TestConcurrentWriters:
    def test_two_processes_storing_one_cell_leave_a_valid_entry(self, tmp_path):
        root = tmp_path / "store"
        context = multiprocessing.get_context("fork")
        with context.Pool(2) as pool:
            outcomes = pool.map(_concurrent_put, [(root, 7), (root, 7)])
        assert outcomes == [True, True]
        store = ResultStore(root)
        assert store.stats().entries == 1
        assert store.verify() == []
        served = store.get(_spec(7, name="concurrent"))
        computed = ExperimentRunner().run(_spec(7, name="concurrent"))
        _assert_results_identical(computed, served)
