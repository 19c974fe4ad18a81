"""Unit tests for the benchmark recorder and its trend check (record.py).

These are plain fast tests (no paper-scale benchmarking); they live next
to record.py because the benchmarks directory is its import root.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import record

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _write(path, benchmarks, schema=record.SCHEMA_VERSION):
    path.write_text(json.dumps({"schema": schema, "benchmarks": benchmarks}))


class TestRecordBenchmark:
    def test_writes_commit_and_environment_stamps(self, tmp_path):
        path = tmp_path / "BENCH.json"
        entry = record.record_benchmark("demo", {"elapsed_s": 1.0}, path=str(path))
        assert entry["commit"]
        assert entry["environment"]["python"]
        payload = json.loads(path.read_text())
        assert payload["schema"] == record.SCHEMA_VERSION
        assert payload["benchmarks"]["demo"]["elapsed_s"] == 1.0

    def test_merges_entries_by_name(self, tmp_path):
        path = tmp_path / "BENCH.json"
        record.record_benchmark("a", {"elapsed_s": 1.0}, path=str(path))
        record.record_benchmark("b", {"elapsed_s": 2.0}, path=str(path))
        record.record_benchmark("a", {"elapsed_s": 0.5}, path=str(path))
        payload = json.loads(path.read_text())
        assert set(payload["benchmarks"]) == {"a", "b"}
        assert payload["benchmarks"]["a"]["elapsed_s"] == 0.5

    def test_seeds_from_legacy_pr2_artifact(self, tmp_path):
        legacy = tmp_path / "BENCH_PR2.json"
        _write(legacy, {"old_bench": {"elapsed_s": 3.0}}, schema=1)
        path = tmp_path / "BENCH.json"
        record.record_benchmark("new_bench", {"elapsed_s": 1.0}, path=str(path))
        payload = json.loads(path.read_text())
        assert set(payload["benchmarks"]) == {"old_bench", "new_bench"}
        assert payload["schema"] == record.SCHEMA_VERSION

    def test_rejects_empty_name(self, tmp_path):
        with pytest.raises(ValueError):
            record.record_benchmark("", {}, path=str(tmp_path / "x.json"))


class TestTrendCheck:
    def _env(self):
        return record._environment()

    def test_flags_large_slowdown(self, tmp_path):
        base, cur = tmp_path / "base.json", tmp_path / "cur.json"
        env = self._env()
        _write(base, {"bench": {"run_s": 1.0, "environment": env}})
        _write(cur, {"bench": {"run_s": 3.0, "environment": env}})
        outcome = record.check_trend(str(base), str(cur), threshold=2.0)
        assert len(outcome["regressions"]) == 1
        assert "3.00x slower" in outcome["regressions"][0]

    def test_accepts_slowdown_below_threshold(self, tmp_path):
        base, cur = tmp_path / "base.json", tmp_path / "cur.json"
        env = self._env()
        _write(base, {"bench": {"run_s": 1.0, "environment": env}})
        _write(cur, {"bench": {"run_s": 1.8, "environment": env}})
        outcome = record.check_trend(str(base), str(cur), threshold=2.0)
        assert outcome["regressions"] == []

    @pytest.mark.parametrize(
        "field,value",
        [
            ("machine", "some-other-arch"),
            ("platform", "SomeOS-1.0-other-host"),
            ("python", "0.0.0"),
            ("numpy", "0.0.0"),
        ],
    )
    def test_skips_cross_host_baselines(self, tmp_path, field, value):
        base, cur = tmp_path / "base.json", tmp_path / "cur.json"
        env = self._env()
        other = dict(env, **{field: value})
        _write(base, {"bench": {"run_s": 1.0, "environment": other}})
        _write(cur, {"bench": {"run_s": 100.0, "environment": env}})
        outcome = record.check_trend(str(base), str(cur), threshold=2.0)
        assert outcome["regressions"] == []
        assert outcome["skipped"]

    def test_non_timing_keys_ignored(self, tmp_path):
        base, cur = tmp_path / "base.json", tmp_path / "cur.json"
        env = self._env()
        _write(base, {"bench": {"speedup": 100.0, "trials": 5, "environment": env}})
        _write(cur, {"bench": {"speedup": 1.0, "trials": 50, "environment": env}})
        outcome = record.check_trend(str(base), str(cur), threshold=2.0)
        assert outcome["regressions"] == []

    def test_missing_baseline_is_not_a_failure(self, tmp_path):
        cur = tmp_path / "cur.json"
        _write(cur, {"bench": {"run_s": 1.0, "environment": self._env()}})
        outcome = record.check_trend(str(tmp_path / "nope.json"), str(cur))
        assert outcome["regressions"] == []
        assert outcome["skipped"]

    def test_missing_current_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            record.check_trend(str(tmp_path / "b.json"), str(tmp_path / "missing.json"))

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            record.compare_benchmarks({"benchmarks": {}}, {"benchmarks": {}}, threshold=1.0)

    def test_cli_exit_codes(self, tmp_path, capsys):
        base, cur = tmp_path / "base.json", tmp_path / "cur.json"
        env = self._env()
        _write(base, {"bench": {"run_s": 1.0, "environment": env}})
        _write(cur, {"bench": {"run_s": 5.0, "environment": env}})
        assert record.main(["--check-trend", "--baseline", str(base), "--current", str(cur)]) == 1
        _write(cur, {"bench": {"run_s": 1.1, "environment": env}})
        assert record.main(["--check-trend", "--baseline", str(base), "--current", str(cur)]) == 0
        capsys.readouterr()


class TestSessionResultsFile:
    def test_default_path_is_the_session_file(self, bench_results_file):
        entry = record.record_benchmark("session_probe", {"elapsed_s": 0.0})
        recorded = json.loads(bench_results_file.read_text())["benchmarks"]
        assert recorded["session_probe"] == entry

    def test_a_relaxed_run_leaves_bench_json_alone(self, tmp_path):
        env = {key: value for key, value in os.environ.items() if key != record.RESULTS_ENV}
        env.update(REPRO_BENCH_RELAXED="1", PYTHONPATH=str(ROOT / "src"))
        probe = f"{__file__}::TestSessionResultsFile::test_default_path_is_the_session_file"
        run = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", probe],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
        )
        assert run.returncode == 0, run.stdout + run.stderr
        assert not (tmp_path / record.DEFAULT_RESULTS_FILE).exists()
