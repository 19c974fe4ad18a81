"""Spec/result serialization: lossless round-trips and stable hashes."""

import copy
import dataclasses
import hashlib
import json
import pathlib
import pickle
import subprocess
import sys

import numpy as np
import pytest

from repro.core import config as config_module
from repro.core import spec as spec_module
from repro.core.config import (
    DetectionConfig,
    MeasurementConfig,
    WatermarkConfig,
)
from repro.core.spec import SPEC_SCHEMA_VERSION, ScenarioSpec
from repro.pipeline.artifacts import (
    ARTIFACT_SCHEMA_VERSION,
    Provenance,
    ScenarioResult,
    SweepResult,
)
from repro.pipeline.runner import ExperimentRunner

#: The pinned wire-format field lists and schema versions.
SCHEMA_MANIFEST = pathlib.Path(__file__).resolve().parent / "data" / "schema_manifest.json"


def _rich_spec() -> ScenarioSpec:
    return ScenarioSpec(
        kind="fig5_panel",
        name="fig5/chip2-inactive",
        chip="chip2",
        watermark=WatermarkConfig(lfsr_width=10, lfsr_seed=0x155, switching_registers=256),
        measurement=MeasurementConfig.quick(12_345),
        detection=DetectionConfig(detection_threshold=5.0, uniqueness_margin=0.9),
        watermark_active=False,
        seed=42,
        phase_offset=1_234,
        repetitions=7,
        m0_window_cycles=2_048,
        params={"levels": [0.1, 0.2], "nested": {"b": 2, "a": 1}, "flag": True},
    )


class TestScenarioSpec:
    def test_json_round_trip_is_lossless(self):
        spec = _rich_spec()
        restored = ScenarioSpec.from_json(spec.to_json())
        assert restored == spec
        assert restored.to_json_dict() == spec.to_json_dict()
        assert restored.params_dict() == spec.params_dict()

    def test_file_round_trip(self, tmp_path):
        spec = _rich_spec()
        path = spec.save(tmp_path / "spec.json")
        assert ScenarioSpec.load(path) == spec

    def test_spec_hash_stable_across_processes(self):
        spec = _rich_spec()
        code = (
            "import sys; sys.path.insert(0, 'src')\n"
            "from repro.core.spec import ScenarioSpec\n"
            f"print(ScenarioSpec.from_json({spec.to_json()!r}).spec_hash())"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == spec.spec_hash()

    def test_spec_hash_changes_with_content(self):
        spec = _rich_spec()
        assert spec.with_overrides(seed=43).spec_hash() != spec.spec_hash()
        assert spec.with_overrides(chip="chip1").spec_hash() != spec.spec_hash()

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown scenario kind"):
            ScenarioSpec(kind="fig99")

    def test_unknown_chip_rejected_with_valid_names(self):
        with pytest.raises(ValueError, match="chip1"):
            ScenarioSpec(kind="fig3", chip="chip9")

    @pytest.mark.parametrize("cycles", [0, 16_385, 10**6])
    def test_m0_window_beyond_the_shipped_one_rejected(self, cycles):
        with pytest.raises(ValueError, match="16384"):
            ScenarioSpec(kind="fig3", chip="chip1", m0_window_cycles=cycles)
        payload = ScenarioSpec(kind="fig3", chip="chip1").to_json_dict()
        payload["m0_window_cycles"] = cycles
        with pytest.raises(ValueError, match="16384"):
            ScenarioSpec.from_json_dict(payload)
        assert ScenarioSpec(kind="fig3", m0_window_cycles=16_384).m0_window_cycles == 16_384

    def test_unknown_workload_rejected(self):
        # Both chips always run Dhrystone: no workload is a spec field.
        payload = ScenarioSpec(kind="fig3", chip="chip1").to_json_dict()
        payload["workload"] = "dhrystone"
        with pytest.raises(ValueError, match=r"unknown ScenarioSpec fields: \['workload'\]"):
            ScenarioSpec.from_json_dict(payload)
        with pytest.raises(TypeError):
            ScenarioSpec(kind="fig3", chip="chip1", workload="dhrystone")

    def test_unknown_field_rejected_on_load(self):
        payload = _rich_spec().to_json_dict()
        payload["turbo"] = True
        with pytest.raises(ValueError, match="unknown ScenarioSpec fields"):
            ScenarioSpec.from_json_dict(payload)

    def test_params_are_frozen_and_order_insensitive(self):
        a = ScenarioSpec(kind="table2", params={"x": 1, "y": [1, 2]})
        b = ScenarioSpec(kind="table2", params={"y": [1, 2], "x": 1})
        assert a == b and a.spec_hash() == b.spec_hash()
        assert a.param("x") == 1
        assert a.param("missing", "fallback") == "fallback"

    def test_mapping_params_thaw_back_to_dicts(self):
        spec = ScenarioSpec(
            kind="table2", params={"opts": {"a": 1, "b": [2, 3], "c": {"d": 4}}}
        )
        assert spec.param("opts") == {"a": 1, "b": [2, 3], "c": {"d": 4}}
        restored = ScenarioSpec.from_json(spec.to_json())
        assert restored.param("opts")["c"]["d"] == 4
        assert restored == spec

    def test_experiment_config_round_trip(self):
        spec = _rich_spec()
        bundle = spec.experiment_config
        assert bundle.watermark == spec.watermark
        assert bundle.measurement == spec.measurement
        assert bundle.detection == spec.detection


def _canonical_sha256(spec: ScenarioSpec) -> str:
    canonical = json.dumps(spec.to_json_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class TestSpecHashMemo:
    """``spec_hash`` is computed once per instance and never leaks."""

    def test_the_hash_is_the_canonical_json_sha256(self):
        spec = _rich_spec()
        assert spec.spec_hash() == _canonical_sha256(spec)
        assert spec.spec_hash() == _canonical_sha256(spec)  # memoised read

    def test_equal_specs_compare_and_hash_alike(self):
        memoised, fresh = _rich_spec(), _rich_spec()
        memoised.spec_hash()
        assert memoised == fresh and fresh == memoised
        assert hash(memoised) == hash(fresh)
        assert len({memoised, fresh}) == 1

    def test_a_copy_with_overrides_hashes_afresh(self):
        spec = _rich_spec()
        original = spec.spec_hash()
        changed = spec.with_overrides(seed=43)
        assert changed.spec_hash() != original
        assert changed.spec_hash() == _canonical_sha256(changed)
        assert changed.with_overrides(seed=42).spec_hash() == original
        assert spec.with_name("renamed").spec_hash() != original

    def test_pickle_and_copies_leave_the_memo_out(self):
        spec = _rich_spec()
        digest = spec.spec_hash()
        for clone in (pickle.loads(pickle.dumps(spec)), copy.copy(spec), copy.deepcopy(spec)):
            assert "_spec_hash" not in vars(clone)
            assert clone == spec and clone.spec_hash() == digest
        assert digest.encode() not in pickle.dumps(spec)

    def test_the_memo_is_no_field_of_the_spec(self):
        spec = _rich_spec()
        digest = spec.spec_hash()
        assert "_spec_hash" not in {field.name for field in dataclasses.fields(spec)}
        assert digest not in json.dumps(spec.to_json_dict())
        assert digest not in json.dumps(dataclasses.asdict(spec), default=str)
        assert digest not in repr(spec)
        assert ScenarioSpec.from_json(spec.to_json()) == spec


class TestConfigSerialization:
    @pytest.mark.parametrize(
        "config",
        [
            WatermarkConfig(lfsr_width=8, lfsr_seed=0x2D, switching_registers=128),
            MeasurementConfig.quick(9_999),
            DetectionConfig(detection_threshold=6.0),
        ],
        ids=["watermark", "measurement", "detection"],
    )
    def test_round_trip(self, config):
        assert type(config).from_dict(config.to_dict()) == config

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown WatermarkConfig fields"):
            WatermarkConfig.from_dict({"lfsr_width": 12, "bogus": 1})

    def test_schema_v2_synthesis_field_rejected(self):
        # Schema v3 dropped the spec's trial-synthesis section (its only
        # knob bounded memory, which streaming detection now does itself).
        payload = _rich_spec().to_json_dict()
        payload["synthesis"] = {"max_trials_per_chunk": 25}
        with pytest.raises(ValueError, match="unknown ScenarioSpec fields"):
            ScenarioSpec.from_json_dict(payload)
        # Schema v4 dropped the measurement's probe bandwidth (only the
        # sample-level acquisition path read it).
        payload = _rich_spec().to_json_dict()
        payload["measurement"]["probe_bandwidth_hz"] = 120e6
        with pytest.raises(ValueError, match="unknown MeasurementConfig fields"):
            ScenarioSpec.from_json_dict(payload)
        # Schema v6 dropped the detector's use_fft knob (the literal
        # per-rotation correlator is a test oracle now).
        payload = _rich_spec().to_json_dict()
        payload["detection"]["use_fft"] = True
        with pytest.raises(ValueError, match="unknown DetectionConfig fields"):
            ScenarioSpec.from_json_dict(payload)
        for version in (2, 3, 5, 6):
            payload = _rich_spec().to_json_dict()
            payload["schema_version"] = version
            with pytest.raises(ValueError, match="unsupported spec schema version"):
                ScenarioSpec.from_json_dict(payload)


def _schema_drift(classes, spec_version, artifact_version):
    """How ``classes`` and the two schema versions differ from the manifest."""
    manifest = json.loads(SCHEMA_MANIFEST.read_text())
    drift = []
    for cls in classes:
        names = [f.name for f in dataclasses.fields(cls)]
        if names != manifest.get(cls.__name__):
            drift.append(f"{cls.__name__} fields {names} != pinned {manifest.get(cls.__name__)}")
    for key, version in (
        ("spec_schema_version", spec_version),
        ("artifact_schema_version", artifact_version),
    ):
        if manifest[key] != version:
            drift.append(f"{key} {version} != pinned {manifest[key]}")
    return drift


def _unfrozen_configs(classes):
    """Dataclasses that are not frozen or have an unhashable default."""
    problems = []
    for cls in classes:
        if not cls.__dataclass_params__.frozen:
            problems.append(f"{cls.__name__} is not frozen")
        for f in dataclasses.fields(cls):
            if f.default is dataclasses.MISSING:
                continue
            try:
                hash(f.default)
            except TypeError:
                problems.append(f"{cls.__name__}.{f.name} has an unhashable default")
    return problems


def _module_dataclasses(module):
    return [
        value
        for value in vars(module).values()
        if isinstance(value, type)
        and dataclasses.is_dataclass(value)
        and value.__module__ == module.__name__
    ]


class TestWireSchema:
    """Changing a wire field without bumping its schema version serves stale
    memoized results: the field lists and versions are pinned together."""

    def test_fields_and_versions_match_the_manifest(self):
        assert _schema_drift(
            (ScenarioSpec, ScenarioResult, Provenance),
            SPEC_SCHEMA_VERSION,
            ARTIFACT_SCHEMA_VERSION,
        ) == []

    def test_the_manifest_pins_exactly_the_wire_classes(self):
        # A manifest entry for a renamed or deleted class would never be
        # compared against anything.
        assert set(json.loads(SCHEMA_MANIFEST.read_text())) - {"comment"} == {
            "ScenarioSpec",
            "ScenarioResult",
            "Provenance",
            "spec_schema_version",
            "artifact_schema_version",
        }

    def test_a_matching_local_dataclass_is_clean(self):
        # Classes are compared by name and field list, not by identity.
        names = [f.name for f in dataclasses.fields(ScenarioSpec)]
        twin = dataclasses.make_dataclass("ScenarioSpec", names, frozen=True)
        assert _schema_drift(
            (twin, ScenarioResult, Provenance),
            SPEC_SCHEMA_VERSION,
            ARTIFACT_SCHEMA_VERSION,
        ) == []

    def test_an_extra_field_is_drift(self):
        names = [f.name for f in dataclasses.fields(ScenarioSpec)]
        drifted = dataclasses.make_dataclass("ScenarioSpec", [*names, "extra"], frozen=True)
        (problem,) = _schema_drift(
            (drifted, ScenarioResult, Provenance),
            SPEC_SCHEMA_VERSION,
            ARTIFACT_SCHEMA_VERSION,
        )
        assert "ScenarioSpec" in problem and "extra" in problem

    def test_a_version_bump_without_the_manifest_is_drift(self):
        (problem,) = _schema_drift(
            (ScenarioSpec, ScenarioResult, Provenance),
            SPEC_SCHEMA_VERSION + 1,
            ARTIFACT_SCHEMA_VERSION,
        )
        assert problem.startswith("spec_schema_version")


class TestFrozenConfigs:
    """Specs and configs are cache keys and spec-hash inputs, so none of
    them may change in place or share a mutable default."""

    def test_spec_and_config_dataclasses_are_frozen(self):
        classes = _module_dataclasses(spec_module) + _module_dataclasses(config_module)
        assert {cls.__name__ for cls in classes} >= {
            "ScenarioSpec",
            "WatermarkConfig",
            "MeasurementConfig",
            "DetectionConfig",
            "ExperimentConfig",
        }
        assert _unfrozen_configs(classes) == []

    def test_an_unfrozen_dataclass_fails(self):
        @dataclasses.dataclass
        class LooseConfig:
            trials: int = 16

        assert _unfrozen_configs([LooseConfig]) == ["LooseConfig is not frozen"]

    def test_an_unhashable_default_fails(self):
        # dataclasses rejects list/dict/set defaults itself, not a tuple
        # that holds one
        @dataclasses.dataclass(frozen=True)
        class SharedConfig:
            trials: int = 16
            taps: tuple = ([3, 1],)
            weights: tuple = ({"m0": 1.0},)

        assert _unfrozen_configs([SharedConfig]) == [
            "SharedConfig.taps has an unhashable default",
            "SharedConfig.weights has an unhashable default",
        ]


class TestScenarioResultArtifacts:
    def test_save_load_reproduces_arrays_bit_exactly(self, tmp_path):
        rng = np.random.default_rng(0)
        result = ScenarioResult(
            spec=_rich_spec(),
            provenance=Provenance(spec_hash=_rich_spec().spec_hash()),
            scalars={"detected": True, "peak": 0.015},
            arrays={
                "f64": rng.standard_normal(257),
                "f32": rng.standard_normal(33).astype(np.float32),
                "ints": np.arange(7, dtype=np.int64),
                "flags": np.array([True, False, True]),
                "matrix": rng.standard_normal((5, 11)),
            },
            report="hello\nworld",
        )
        loaded = ScenarioResult.load(result.save(tmp_path / "artifact"))
        assert loaded.spec == result.spec
        assert loaded.scalars == result.scalars
        assert loaded.report == result.report
        assert loaded.provenance.spec_hash == result.provenance.spec_hash
        assert set(loaded.arrays) == set(result.arrays)
        for key, value in result.arrays.items():
            assert loaded.arrays[key].dtype == value.dtype
            assert np.array_equal(loaded.arrays[key], value)

    def test_executed_scenario_round_trips(self, tmp_path):
        result = ExperimentRunner().run(ScenarioSpec(kind="fig2", name="fig2", seed=9))
        loaded = ScenarioResult.load(result.save(tmp_path / "fig2"))
        assert loaded.report == result.report
        assert np.array_equal(loaded.arrays["wmark"], result.arrays["wmark"])
        assert loaded.provenance.spec_hash == result.spec.spec_hash()

    def test_provenance_stamps_commit_and_environment(self):
        provenance = Provenance(spec_hash="abc")
        assert provenance.commit  # "unknown" at worst, never empty
        assert provenance.environment["numpy"] == np.__version__
        assert provenance.created_at

    def test_provenance_clock_is_the_single_patch_point(self, monkeypatch):
        from repro.pipeline import artifacts

        monkeypatch.setattr(
            artifacts, "provenance_clock", lambda: "2026-01-01T00:00:00+00:00"
        )
        prov = artifacts.Provenance(spec_hash="abc")
        assert prov.created_at == "2026-01-01T00:00:00+00:00"

    def test_provenance_clock_returns_utc_iso8601(self):
        from repro.pipeline.artifacts import provenance_clock

        stamp = provenance_clock()
        assert stamp.endswith("+00:00")

    def test_json_dict_contains_array_metadata_only(self, tmp_path):
        result = ExperimentRunner().run(ScenarioSpec(kind="fig2", name="fig2", seed=9))
        payload = result.to_json_dict()
        assert payload["arrays"]["wmark"]["shape"] == [64]
        path = result.save(tmp_path / "fig2")
        on_disk = json.loads(path.read_text())
        assert on_disk["arrays_file"] == "fig2.npz"

    def test_sweep_round_trip(self, tmp_path):
        runner = ExperimentRunner()
        sweep = runner.run_many(
            [ScenarioSpec(kind="fig2", name="fig2", seed=9), "table2"]
        )
        loaded = SweepResult.load(sweep.save(tmp_path / "sweep"))
        assert loaded.names == sweep.names
        assert loaded.get("fig2").report == sweep.get("fig2").report
        for original, restored in zip(sweep, loaded):
            for key, value in original.arrays.items():
                assert np.array_equal(restored.arrays[key], value)
                assert restored.arrays[key].dtype == value.dtype


class TestGridAxisHelpers:
    def test_with_seed_and_name(self):
        base = ScenarioSpec(kind="fig2", name="base", seed=1)
        assert base.with_seed(7).seed == 7
        assert base.with_name("cell").name == "cell"
        assert base.seed == 1 and base.name == "base"  # copies, not mutation

    def test_with_chip_checks_the_name(self):
        base = ScenarioSpec(kind="fig5_panel", chip="chip1")
        assert base.with_chip("chip2").chip == "chip2"
        with pytest.raises(ValueError, match="unknown chip name 'chipII'"):
            base.with_chip("chipII")

    def test_with_num_cycles_only_touches_length(self):
        base = ScenarioSpec(kind="fig5_panel", chip="chip1")
        longer = base.with_num_cycles(12_345)
        assert longer.measurement.num_cycles == 12_345
        assert longer.measurement.probe_noise_rms_v == base.measurement.probe_noise_rms_v
        with pytest.raises(ValueError, match="positive"):
            base.with_num_cycles(0)

    def test_with_noise_scale_zero_is_noiseless(self):
        quiet = ScenarioSpec(kind="fig5_panel", chip="chip1").with_noise_scale(0.0)
        assert quiet.measurement.probe_noise_rms_v == 0.0
        assert quiet.measurement.transient_noise_floor_w == 0.0
        assert quiet.measurement.transient_noise_fraction == 0.0
        with pytest.raises(ValueError, match="non-negative"):
            quiet.with_noise_scale(-1.0)

    def test_helpers_change_spec_hash(self):
        base = ScenarioSpec(kind="fig5_panel", chip="chip1", seed=1)
        assert base.with_seed(2).spec_hash() != base.spec_hash()
        assert base.with_num_cycles(9_999).spec_hash() != base.spec_hash()
