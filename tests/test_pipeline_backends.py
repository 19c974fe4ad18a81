"""Parallel-vs-serial sweep backends: equivalence, isolation, bugfixes.

The process backend must be a pure execution detail: for a mixed sweep at
fixed seeds it returns bit-identical scalars, array bytes and reports to
the serial backend (only the in-memory ``payload`` is dropped, exactly as
after ``ScenarioResult.load``).  Failures stay per-cell, order is the
submission order, and the satellite bugfixes (spec-file resolution,
``SweepResult.get`` ambiguity, sanitized artifact stems) are pinned here.
"""

import hashlib
import pathlib

import numpy as np
import pytest

from repro.core.config import MeasurementConfig
from repro.core.spec import ScenarioSpec
from repro.pipeline import (
    ExperimentRunner,
    Provenance,
    RunOptions,
    ScenarioResult,
    SpecGrid,
    SweepResult,
)


def grid(base, **axes):
    """The cells of one :class:`SpecGrid` over the default run options."""
    return SpecGrid(base, RunOptions()).build(**axes)


def _mixed_specs():
    """Six cheap scenarios of four different kinds at fixed seeds."""
    quick = MeasurementConfig.quick(6_000)
    panel = dict(
        kind="fig5_panel",
        chip="chip1",
        measurement=quick,
        seed=11,
        m0_window_cycles=1_024,
    )
    return [
        ScenarioSpec(kind="fig2", name="fig2", seed=9),
        ScenarioSpec(kind="table1", name="table1", seed=0),
        ScenarioSpec(kind="table2", name="table2", seed=0),
        ScenarioSpec(kind="robustness", name="robustness", seed=0),
        ScenarioSpec(name="panel-active", watermark_active=True, **panel),
        ScenarioSpec(name="panel-inactive", watermark_active=False, **panel),
    ]


def _digest(array: np.ndarray) -> str:
    return hashlib.sha256(
        f"{array.shape}|{array.dtype}|".encode() + array.tobytes()
    ).hexdigest()


@pytest.fixture(scope="module")
def serial_sweep():
    return ExperimentRunner().run_many(_mixed_specs(), backend="serial")


@pytest.fixture(scope="module")
def process_sweep():
    return ExperimentRunner().run_many(
        _mixed_specs(), backend="process", max_workers=2
    )


class TestProcessSerialEquivalence:
    def test_submission_order_preserved(self, serial_sweep, process_sweep):
        expected = [spec.name for spec in _mixed_specs()]
        assert serial_sweep.names == expected
        assert process_sweep.names == expected

    def test_scalars_bit_identical(self, serial_sweep, process_sweep):
        for serial, parallel in zip(serial_sweep, process_sweep):
            assert serial.scalars == parallel.scalars, serial.name

    def test_reports_bit_identical(self, serial_sweep, process_sweep):
        for serial, parallel in zip(serial_sweep, process_sweep):
            assert serial.report == parallel.report, serial.name

    def test_array_digests_bit_identical(self, serial_sweep, process_sweep):
        for serial, parallel in zip(serial_sweep, process_sweep):
            assert set(serial.arrays) == set(parallel.arrays), serial.name
            for key in serial.arrays:
                assert _digest(serial.arrays[key]) == _digest(
                    parallel.arrays[key]
                ), f"{serial.name}/{key}"

    def test_spec_hashes_preserved_across_processes(
        self, serial_sweep, process_sweep
    ):
        for serial, parallel in zip(serial_sweep, process_sweep):
            assert serial.spec == parallel.spec
            assert serial.provenance.spec_hash == parallel.provenance.spec_hash

    def test_payload_dropped_like_load(self, serial_sweep, process_sweep):
        assert all(result.payload is not None for result in serial_sweep)
        assert all(result.payload is None for result in process_sweep)

    def test_every_cell_ok_and_wall_clock_elapsed(
        self, serial_sweep, process_sweep
    ):
        assert serial_sweep.ok and process_sweep.ok
        assert serial_sweep.elapsed_s > 0 and process_sweep.elapsed_s > 0


class TestFailureIsolation:
    #: Fails at execution (the chip stage), not at spec construction.
    BAD = ScenarioSpec(kind="fig5_panel", name="bad-cell")

    def _specs(self):
        return [
            ScenarioSpec(kind="fig2", name="first", seed=9),
            self.BAD,
            ScenarioSpec(kind="fig2", name="last", seed=9),
        ]

    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_failed_cell_reports_instead_of_killing_sweep(self, backend):
        sweep = ExperimentRunner().run_many(
            self._specs(), backend=backend, max_workers=2
        )
        assert sweep.names == ["first", "bad-cell", "last"]
        assert [result.ok for result in sweep] == [True, False, True]
        failed = sweep.get("bad-cell")
        assert "requires a chip" in failed.error
        assert failed.report.startswith("scenario bad-cell FAILED:")
        assert failed.scalars == {} and failed.arrays == {}
        assert "(1 FAILED)" in sweep.to_text()
        assert sweep.failures == [failed] and not sweep.ok

    def test_resolution_errors_still_raise_before_execution(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            ExperimentRunner().run_many(["fig2", "no-such-scenario"])

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            ExperimentRunner().run_many(["fig2"], backend="threads")

    def test_bad_max_workers_rejected(self):
        with pytest.raises(ValueError, match="max_workers"):
            ExperimentRunner().run_many(["fig2"], backend="process", max_workers=0)

    def test_default_worker_count_respects_cpu_affinity(self):
        from repro.pipeline.backends import available_cpus, default_max_workers

        assert default_max_workers(100) <= available_cpus()
        assert default_max_workers(1) == 1
        assert default_max_workers(0) == 1


class TestResolveSpecFiles:
    def test_existing_spec_file_without_json_suffix_loads(self, tmp_path):
        path = ScenarioSpec(kind="fig2", name="odd-ext", seed=5).save(
            tmp_path / "scenario.spec"
        )
        assert ExperimentRunner().resolve(str(path)).name == "odd-ext"

    def test_pathlib_path_accepted(self, tmp_path):
        path = ScenarioSpec(kind="fig2", name="by-path", seed=5).save(
            tmp_path / "spec.json"
        )
        assert ExperimentRunner().resolve(pathlib.Path(path)).name == "by-path"

    def test_missing_json_path_raises_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            ExperimentRunner().resolve(str(tmp_path / "missing.json"))

    def test_unknown_name_still_rejected(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            ExperimentRunner().resolve("fig99")


def _result(name: str, seed: int = 0) -> ScenarioResult:
    spec = ScenarioSpec(kind="fig2", name=name, seed=seed)
    return ScenarioResult(
        spec=spec, provenance=Provenance(spec_hash=spec.spec_hash())
    )


class TestSweepResultLookup:
    def _sweep(self) -> SweepResult:
        return SweepResult(
            results=[_result("a", 1), _result("b", 2), _result("a", 3)]
        )

    def test_unique_name_resolves(self):
        assert self._sweep().get("b").spec.seed == 2

    def test_duplicate_name_raises_instead_of_first_match(self):
        with pytest.raises(KeyError, match="ambiguous"):
            self._sweep().get("a")

    def test_seed_qualified_lookup(self):
        assert self._sweep().get("a", seed=3).spec.seed == 3

    def test_index_qualified_lookup(self):
        sweep = self._sweep()
        assert sweep.get("a", index=0).spec.seed == 1
        assert sweep.get("a", index=1).spec.seed == 3
        with pytest.raises(KeyError, match="out of range"):
            sweep.get("a", index=2)

    def test_missing_name_and_seed_raise(self):
        with pytest.raises(KeyError, match="no result named"):
            self._sweep().get("c")
        with pytest.raises(KeyError, match="seed 9"):
            self._sweep().get("a", seed=9)


class TestArtifactStem:
    def test_slash_names_sanitized(self):
        assert _result("fig5/chip-1").artifact_stem == "fig5-chip-1"
        assert "/" not in _result("a/b/c").artifact_stem

    def test_grid_cell_names_keep_axis_labels(self):
        stem = _result("fig2[chip=chip1,seed=3]").artifact_stem
        assert stem == "fig2-chip=chip1,seed=3"

    def test_save_under_directory_uses_stem(self, tmp_path):
        result = _result("fig5/chip-1")
        path = result.save(tmp_path / result.artifact_stem)
        assert path == tmp_path / "fig5-chip-1.json"
        assert path.exists()


class TestSpecGrid:
    def test_cartesian_product_counts_and_names(self):
        specs = grid("fig2", chips=None, seeds=[1, 2], lengths=[5_000, 10_000])
        assert len(specs) == 4
        assert [spec.name for spec in specs] == [
            "fig2[len=5000,seed=1]",
            "fig2[len=5000,seed=2]",
            "fig2[len=10000,seed=1]",
            "fig2[len=10000,seed=2]",
        ]
        assert len({spec.name for spec in specs}) == 4

    def test_axes_apply_to_spec_fields(self):
        spec = grid(
            "fig5/chip1-active",
            chips=["chip2"],
            noise_scales=[0.5],
            lengths=[7_000],
            seeds=[42],
        )[0]
        assert spec.chip == "chip2"
        assert spec.name == "fig5/chip1-active[chip=chip2,noise=0.5,len=7000,seed=42]"
        assert spec.measurement.num_cycles == 7_000
        assert spec.seed == 42

    def test_noise_scale_scales_every_noise_knob(self):
        base = ScenarioSpec(kind="fig5_panel", chip="chip1")
        scaled = SpecGrid(base).build(noise_scales=[0.5])[0]
        m, s = base.measurement, scaled.measurement
        assert s.probe_noise_rms_v == pytest.approx(m.probe_noise_rms_v * 0.5)
        assert s.transient_noise_floor_w == pytest.approx(
            m.transient_noise_floor_w * 0.5
        )
        assert s.transient_noise_fraction == pytest.approx(
            m.transient_noise_fraction * 0.5
        )

    def test_no_axes_returns_base_unchanged(self):
        base = ScenarioSpec(kind="fig2", name="base", seed=7)
        assert SpecGrid(base).build() == [base]

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            grid("fig2", seeds=[])

    def test_duplicate_axis_values_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            grid("fig2", seeds=[1, 2, 1])

    def test_alias_chips_are_rejected(self):
        # A chip has one name: a former alias spelling is an unknown chip.
        with pytest.raises(ValueError, match="unknown chip name 'chipI'"):
            grid("fig2", chips=["chip1", "chipI"])
        with pytest.raises(ValueError, match="duplicate"):
            grid("fig2", chips=["chip1", "chip1"])

    def test_registry_base_honours_options(self):
        from repro.pipeline import RunOptions

        spec = SpecGrid("fig5/chip1-active", RunOptions(quick=True)).build(
            seeds=[5]
        )[0]
        assert spec.measurement == MeasurementConfig.quick()
        assert spec.seed == 5

    def test_grid_cells_hash_distinctly(self):
        specs = grid("fig2", seeds=[1, 2, 3])
        assert len({spec.spec_hash() for spec in specs}) == 3


class TestDefaultBackend:
    """Serial is the default backend; ``auto`` is gone."""

    def test_run_many_defaults_to_serial(self):
        import inspect

        signature = inspect.signature(ExperimentRunner.run_many)
        assert signature.parameters["backend"].default == "serial"

    def test_cli_rejects_auto_backend(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "fig2", "--backend", "auto"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'auto'" in capsys.readouterr().err
