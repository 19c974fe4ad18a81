"""Legacy entry points pinned bit-identical to their pre-pipeline output.

``tests/data/pipeline_golden.json`` and ``pipeline_golden.npz`` were
captured by running the drivers (``tests/data/capture_pipeline_golden.py``)
at fixed seeds and quick scales.  Every legacy ``run_*`` entry point now
delegates to the scenario pipeline; these tests prove the delegation
changed nothing: reports match character for character, integer arrays
match bit for bit and float64 arrays match the captured ones to
``FLOAT_RTOL`` (their last bits depend on the host's numpy SIMD paths).
Equivalences computed within one process stay bit-exact.
"""

import hashlib
import json
import pathlib

import numpy as np
import pytest

from repro.core.config import ExperimentConfig
from repro.core.spec import ScenarioSpec
from repro.experiments import (
    run_fig2,
    run_fig3,
    run_fig5,
    run_fig6,
    run_robustness,
    run_table1,
    run_table2,
)
from repro.pipeline import ExperimentRunner

DATA = pathlib.Path(__file__).parent / "data"
GOLDEN = json.loads((DATA / "pipeline_golden.json").read_text())
with np.load(DATA / "pipeline_golden.npz") as _floats:
    GOLDEN_FLOATS = {key: _floats[key] for key in _floats.files}
FLOAT_RTOL = 1e-12


def digest(array: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


def assert_matches_golden(array: np.ndarray, key: str) -> None:
    expected = GOLDEN_FLOATS[key]
    assert array.dtype == expected.dtype, key
    np.testing.assert_allclose(array, expected, rtol=FLOAT_RTOL, atol=0.0, err_msg=key)


def fast_config() -> ExperimentConfig:
    return ExperimentConfig.fast(30_000)


class TestFastExperimentsMatchGolden:
    def test_fig2(self):
        result = run_fig2()
        assert result.to_text() == GOLDEN["fig2"]["report"]
        assert digest(result.wmark) == GOLDEN["fig2"]["arrays"]["wmark"]
        assert (
            digest(result.baseline_toggles)
            == GOLDEN["fig2"]["arrays"]["baseline_toggles"]
        )
        assert (
            digest(result.clock_modulation_toggles)
            == GOLDEN["fig2"]["arrays"]["clock_modulation_toggles"]
        )

    def test_fig3(self):
        result = run_fig3(num_cycles=2_048, seed=7)
        assert result.to_text() == GOLDEN["fig3"]["report"]
        assert_matches_golden(result.measured_total_power, "fig3/measured_total_power")

    def test_table1(self):
        assert run_table1().to_text() == GOLDEN["table1"]["report"]

    def test_table2(self):
        assert run_table2().to_text() == GOLDEN["table2"]["report"]

    def test_robustness(self):
        assert run_robustness().to_text() == GOLDEN["robustness"]["report"]


class TestAcquisitionExperimentsMatchGolden:
    """Fig. 5 / Fig. 6 at the captured quick scale (30k cycles, 4k window)."""

    def test_fig5_report_and_spectra(self):
        result = run_fig5(config=fast_config(), seed=100, m0_window_cycles=4_096)
        assert result.to_text() == GOLDEN["fig5"]["report"]
        assert {f"fig5/{key}" for key in result.panels} == {
            key for key in GOLDEN_FLOATS if key.startswith("fig5/")
        }
        for key, panel in result.panels.items():
            assert_matches_golden(panel.cpa.correlations, f"fig5/{key}")

    def test_fig6_report(self):
        result = run_fig6(
            repetitions=6, config=fast_config(), base_seed=1_000, m0_window_cycles=4_096
        )
        assert result.to_text() == GOLDEN["fig6"]["report"]


class TestRunnerAndShimAgree:
    """The registry/runner path and the legacy shim produce identical output."""

    def test_fig5_runner_equals_shim(self):
        config = fast_config()
        spec = ScenarioSpec(
            kind="fig5",
            name="fig5",
            measurement=config.measurement,
            seed=100,
            m0_window_cycles=4_096,
        )
        via_runner = ExperimentRunner().run(spec)
        via_shim = run_fig5(config=config, seed=100, m0_window_cycles=4_096)
        assert via_runner.report == GOLDEN["fig5"]["report"]
        for key, panel in via_shim.panels.items():
            spectrum = via_runner.arrays[f"{key}/correlations"]
            assert np.array_equal(spectrum, panel.cpa.correlations), key
            assert_matches_golden(spectrum, f"fig5/{key}")

    def test_table_runner_equals_shim(self):
        runner = ExperimentRunner()
        assert runner.run("table1").report == GOLDEN["table1"]["report"]
        assert runner.run("table2").report == GOLDEN["table2"]["report"]
        assert runner.run("robustness").report == GOLDEN["robustness"]["report"]

    def test_custom_estimator_path_still_works(self):
        from repro.power.estimator import PowerEstimator

        direct = run_table1(estimator=PowerEstimator.at_nominal())
        assert direct.to_text() == GOLDEN["table1"]["report"]
