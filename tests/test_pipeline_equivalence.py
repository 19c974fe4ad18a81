"""Every paper experiment pinned to its captured output, through the runner.

``tests/data/pipeline_golden.json`` and ``pipeline_golden.npz`` were
captured by running each experiment
(``tests/data/capture_pipeline_golden.py``) at fixed seeds and quick
scales.  These tests run the same specs through
:class:`repro.pipeline.ExperimentRunner` and prove nothing moved: reports
match character for character, integer arrays match bit for bit and
float64 arrays match the captured ones to ``FLOAT_RTOL`` (their last bits
depend on the host's numpy SIMD paths).  Results computed within one
process stay bit-exact.
"""

import hashlib
import json
import pathlib
import sys

import numpy as np

from repro.pipeline import DEFAULT_REGISTRY, ExperimentRunner, RunOptions, run_scenario

DATA = pathlib.Path(__file__).parent / "data"
sys.path.insert(0, str(DATA))
from capture_pipeline_golden import golden_specs  # noqa: E402

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


SPECS = golden_specs()


def run(name):
    return run_scenario(SPECS[name])


class TestFastExperimentsMatchGolden:
    def test_fig2(self):
        result = run("fig2").payload
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
        result = run("fig3")
        assert result.report == GOLDEN["fig3"]["report"]
        assert np.array_equal(
            result.arrays["measured_total_power"], result.payload.measured_total_power
        )
        assert_matches_golden(
            result.arrays["measured_total_power"], "fig3/measured_total_power"
        )

    def test_table1(self):
        result = run("table1")
        assert result.report == result.payload.to_text() == GOLDEN["table1"]["report"]

    def test_table2(self):
        result = run("table2")
        assert result.report == result.payload.to_text() == GOLDEN["table2"]["report"]

    def test_robustness(self):
        result = run("robustness")
        assert result.report == result.payload.to_text() == GOLDEN["robustness"]["report"]


class TestAcquisitionExperimentsMatchGolden:
    """Fig. 5 / Fig. 6 at the captured quick scale (30k cycles, 4k window)."""

    def test_fig5_report_and_spectra(self):
        result = run("fig5")
        assert result.report == GOLDEN["fig5"]["report"]
        assert {f"fig5/{key}" for key in result.payload.panels} == {
            key for key in GOLDEN_FLOATS if key.startswith("fig5/")
        }
        for key, panel in result.payload.panels.items():
            spectrum = result.arrays[f"{key}/correlations"]
            assert np.array_equal(spectrum, panel.cpa.correlations), key
            assert_matches_golden(spectrum, f"fig5/{key}")

    def test_fig6_report(self):
        assert run("fig6").report == GOLDEN["fig6"]["report"]


class TestRegistryEntriesMatchGolden:
    """The registry's own entries reach the captured output."""

    def test_fig5_registry_entry(self):
        spec = DEFAULT_REGISTRY.build("fig5", RunOptions(cycles=30_000))
        assert spec.with_overrides(m0_window_cycles=4_096) == SPECS["fig5"]
        result = ExperimentRunner().run(spec.with_overrides(m0_window_cycles=4_096))
        assert result.report == GOLDEN["fig5"]["report"]
        for key in result.payload.panels:
            assert_matches_golden(result.arrays[f"{key}/correlations"], f"fig5/{key}")

    def test_tables_by_registry_name(self):
        runner = ExperimentRunner()
        assert runner.run("table1").report == GOLDEN["table1"]["report"]
        assert runner.run("table2").report == GOLDEN["table2"]["report"]
        assert runner.run("robustness").report == GOLDEN["robustness"]["report"]
