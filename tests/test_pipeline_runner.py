"""Pipeline runner, experiment registry and chip registry behaviour."""

import numpy as np
import pytest

from repro.core.config import QUICK_CYCLES, MeasurementConfig
from repro.core.spec import ScenarioSpec
from repro.pipeline import (
    DEFAULT_REGISTRY,
    ExperimentRegistry,
    ExperimentRunner,
    Pipeline,
    RegistryEntry,
    RunOptions,
    registered_kinds,
    run_scenario,
)
from repro.soc.registry import (
    available_chips,
    available_workloads,
    build_registered_chip,
    canonical_chip_name,
    chip_entry,
)


class TestChipRegistry:
    def test_canonical_names(self):
        assert available_chips() == ("chip1", "chip2")

    @pytest.mark.parametrize(
        "alias, canonical",
        [
            ("chip1", "chip1"),
            ("chipI", "chip1"),
            ("chip_one", "chip1"),
            ("1", "chip1"),
            ("chip2", "chip2"),
            ("chipII", "chip2"),
            ("chip_two", "chip2"),
            ("2", "chip2"),
        ],
    )
    def test_aliases_resolve(self, alias, canonical):
        assert canonical_chip_name(alias) == canonical

    def test_unknown_name_lists_valid_spellings(self):
        with pytest.raises(ValueError) as excinfo:
            canonical_chip_name("chip3")
        message = str(excinfo.value)
        assert "chip1" in message and "chip2" in message and "chipII" in message

    def test_build_through_registry(self):
        chip = build_registered_chip("chipII", m0_window_cycles=1_024)
        assert chip.name == "chip2"
        assert chip.a5_subsystem is not None

    def test_entry_metadata(self):
        assert "A5" in chip_entry("chip2").description

    def test_workloads_registered(self):
        assert available_workloads() == ("checksum", "dhrystone", "idle", "memcopy")


class TestExperimentRegistry:
    def test_every_paper_experiment_registered(self):
        names = DEFAULT_REGISTRY.names()
        for name in ("fig2", "fig3", "fig5", "fig6", "table1", "table2", "robustness"):
            assert name in names
        for chip in ("chip1", "chip2"):
            assert f"fig6/{chip}" in names
            assert f"fig5/{chip}-active" in names
            assert f"fig5/{chip}-inactive" in names

    def test_every_registered_spec_resolves_to_stages(self):
        for entry in DEFAULT_REGISTRY.entries():
            spec = entry.build(RunOptions(quick=True))
            pipeline = Pipeline.from_spec(spec)
            assert pipeline.stage_names, entry.name
            assert spec.kind in registered_kinds()

    def test_quick_options_shape_the_spec(self):
        spec = DEFAULT_REGISTRY.build("fig5", RunOptions(quick=True))
        assert spec.measurement == MeasurementConfig.quick()
        assert spec.measurement.num_cycles == QUICK_CYCLES
        spec = DEFAULT_REGISTRY.build("fig5", RunOptions(cycles=12_000))
        assert spec.measurement.num_cycles == 12_000

    def test_seed_option_overrides_default(self):
        assert DEFAULT_REGISTRY.build("fig5", RunOptions(seed=7)).seed == 7
        assert DEFAULT_REGISTRY.build("fig5").seed == 100

    def test_repetitions_option(self):
        assert DEFAULT_REGISTRY.build("fig6").repetitions == 100
        assert DEFAULT_REGISTRY.build("fig6", RunOptions(quick=True)).repetitions == 20
        assert DEFAULT_REGISTRY.build("fig6", RunOptions(repetitions=5)).repetitions == 5

    def test_unknown_name_lists_registered(self):
        with pytest.raises(KeyError, match="fig5"):
            DEFAULT_REGISTRY.get("fig99")

    def test_duplicate_registration_rejected(self):
        registry = ExperimentRegistry()
        entry = RegistryEntry(
            name="x", title="t", paper_ref="r", factory=lambda o: None
        )
        registry.register(entry)
        with pytest.raises(ValueError, match="already registered"):
            registry.register(entry)


class TestPipeline:
    def test_fig5_panel_stage_graph(self):
        spec = ScenarioSpec(kind="fig5_panel", chip="chip1")
        assert Pipeline.from_spec(spec).stage_names == ("chip", "acquisition", "detection")

    def test_fig3_stage_graph(self):
        spec = ScenarioSpec(kind="fig3", chip="chip1")
        assert Pipeline.from_spec(spec).stage_names == ("chip", "power", "acquisition")

    def test_fig6_chip_stage_graph(self):
        spec = ScenarioSpec(kind="fig6_chip", chip="chip1")
        assert Pipeline.from_spec(spec).stage_names == ("chip", "campaign", "statistics")


class TestExperimentRunner:
    def test_run_by_name_produces_typed_result(self):
        result = ExperimentRunner().run("fig2")
        assert result.name == "fig2"
        assert result.scalars["idle_when_wmark_low"] is True
        assert result.arrays["wmark"].shape == (64,)
        assert result.report.startswith("Fig. 2 reproduction")
        assert result.provenance.spec_hash == result.spec.spec_hash()
        assert result.provenance.elapsed_s > 0

    def test_run_spec_json_file(self, tmp_path):
        path = ScenarioSpec(kind="fig2", name="from-file", seed=9).save(
            tmp_path / "spec.json"
        )
        result = ExperimentRunner().run(str(path))
        assert result.name == "from-file"

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            ExperimentRunner().run("not-a-scenario")

    def test_chip_requires_chip_kind(self):
        with pytest.raises(ValueError, match="requires a chip"):
            ExperimentRunner().chip_for(ScenarioSpec(kind="table2"))

    def test_run_many_shares_chips_across_scenarios(self):
        config = MeasurementConfig.quick(6_000)
        runner = ExperimentRunner()
        specs = [
            ScenarioSpec(
                kind="fig5_panel",
                name=f"panel-{active}",
                chip="chip1",
                measurement=config,
                watermark_active=active,
                seed=11,
                m0_window_cycles=1_024,
            )
            for active in (True, False)
        ]
        # backend="serial" pinned: the assertion below inspects the chip
        # cache of *this* process's runner, which "auto" may bypass.
        sweep = runner.run_many(specs, backend="serial")
        assert sweep.names == ["panel-True", "panel-False"]
        stats = runner.chip_cache_stats()
        assert stats["misses"] == 1 and stats["hits"] == 1

    def test_run_many_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one scenario"):
            ExperimentRunner().run_many([])

    def test_alias_chip_names_behave_like_canonical(self):
        def panel(chip):
            spec = ScenarioSpec(
                kind="fig5_panel",
                name=f"fig5/{chip}-active",
                chip=chip,
                measurement=MeasurementConfig.quick(6_000),
                seed=11,
                m0_window_cycles=1_024,
            )
            return run_scenario(spec).payload

        canonical = panel("chip1")
        alias = panel("chipI")
        assert alias.chip_name == "chip1"
        assert np.array_equal(alias.cpa.correlations, canonical.cpa.correlations)

    def test_workload_selects_program(self):
        runner = ExperimentRunner()
        dhrystone = runner.chip_for(
            ScenarioSpec(kind="fig3", chip="chip1", m0_window_cycles=512)
        )
        memcopy = runner.chip_for(
            ScenarioSpec(
                kind="fig3", chip="chip1", workload="memcopy", m0_window_cycles=512
            )
        )
        assert memcopy is not dhrystone
        assert memcopy.program is not dhrystone.program
        background_a = dhrystone.background_power(1_024, seed=3).power_w
        background_b = memcopy.background_power(1_024, seed=3).power_w
        assert not np.array_equal(background_a, background_b)


class TestRegistryScenarioExecution:
    def test_quick_masking_scenario_end_to_end(self):
        spec = DEFAULT_REGISTRY.build(
            "masking-noise", RunOptions(quick=True, cycles=20_000)
        )
        result = ExperimentRunner().run(spec)
        assert len(result.arrays["masking_noise_w"]) == 5
        assert result.scalars["still_detected_everywhere"] in (True, False)
        assert result.payload.num_cycles == 20_000

    def test_quick_detection_probability_scenario(self):
        spec = DEFAULT_REGISTRY.build(
            "detection-probability", RunOptions(quick=True)
        )
        result = ExperimentRunner().run(spec)
        assert list(result.arrays["cycles"]) == [5_000, 20_000, 80_000]
        assert result.arrays["detection_probability"].min() >= 0.0
        assert result.arrays["detection_probability"].max() <= 1.0


class TestArtifactSaveHygiene:
    """Overwriting an artifact must not leave a stale sibling ``.npz``."""

    def _results(self):
        from repro.pipeline import Provenance, ScenarioResult

        spec = ScenarioSpec(kind="fig2", name="hygiene", seed=1)
        provenance = Provenance(spec_hash=spec.spec_hash())
        with_arrays = ScenarioResult(
            spec=spec,
            provenance=provenance,
            arrays={"data": np.arange(8)},
            report="with arrays",
        )
        without_arrays = ScenarioResult(
            spec=spec, provenance=provenance, report="no arrays"
        )
        return with_arrays, without_arrays

    def test_scenario_overwrite_removes_stale_npz(self, tmp_path):
        from repro.pipeline import ScenarioResult

        with_arrays, without_arrays = self._results()
        with_arrays.save(tmp_path / "res")
        assert (tmp_path / "res.npz").exists()
        without_arrays.save(tmp_path / "res")
        assert not (tmp_path / "res.npz").exists()
        reloaded = ScenarioResult.load(tmp_path / "res")
        assert reloaded.arrays == {} and reloaded.report == "no arrays"

    def test_sweep_overwrite_removes_stale_npz(self, tmp_path):
        from repro.pipeline import SweepResult

        with_arrays, without_arrays = self._results()
        SweepResult(results=[with_arrays]).save(tmp_path / "sweep")
        assert (tmp_path / "sweep.npz").exists()
        SweepResult(results=[without_arrays]).save(tmp_path / "sweep")
        assert not (tmp_path / "sweep.npz").exists()
        assert SweepResult.load(tmp_path / "sweep")[0].arrays == {}

    def test_overwrite_with_arrays_refreshes_npz(self, tmp_path):
        from repro.pipeline import ScenarioResult

        with_arrays, _ = self._results()
        with_arrays.save(tmp_path / "res")
        refreshed = ScenarioResult(
            spec=with_arrays.spec,
            provenance=with_arrays.provenance,
            arrays={"data": np.arange(3)},
            report="refreshed",
        )
        refreshed.save(tmp_path / "res")
        assert np.array_equal(
            ScenarioResult.load(tmp_path / "res").arrays["data"], np.arange(3)
        )


class TestFailedCellRoundTrip:
    """``error``/``ok``/FAILED counts survive save/load and the wire format."""

    def _failed(self):
        from repro.pipeline.backends import failed_result

        return failed_result(
            ScenarioSpec(kind="fig2", name="bad", seed=1), "Traceback: boom"
        )

    def test_scenario_save_load_preserves_error(self, tmp_path):
        from repro.pipeline import ScenarioResult

        failed = self._failed()
        loaded = ScenarioResult.load(failed.save(tmp_path / "bad"))
        assert loaded.error == failed.error
        assert not loaded.ok
        assert loaded.report == failed.report

    def test_wire_round_trip_preserves_error(self):
        from repro.pipeline import ScenarioResult

        failed = self._failed()
        rebuilt = ScenarioResult.from_wire(failed.to_wire())
        assert rebuilt.error == failed.error and not rebuilt.ok

    def test_sweep_save_load_preserves_failed_count(self, tmp_path):
        from repro.pipeline import SweepResult

        ok = ExperimentRunner().run(ScenarioSpec(kind="fig2", name="ok", seed=9))
        sweep = SweepResult(results=[ok, self._failed()], elapsed_s=1.0)
        loaded = SweepResult.load(sweep.save(tmp_path / "sweep"))
        assert [cell.ok for cell in loaded] == [True, False]
        assert loaded.failures[0].error == "Traceback: boom"
        assert "(1 FAILED)" in loaded.to_text()
        assert loaded.to_text().count("FAILED") == sweep.to_text().count("FAILED")
