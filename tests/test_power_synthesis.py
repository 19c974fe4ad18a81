"""Equivalence suite for the vectorized trace-synthesis engine.

The power-trace paths in :mod:`repro.power.synthesis` must be
*bit-identical* to the cycle-stepping oracle (``rtl_oracle``) they replace,
and the per-cycle trial-row oracle (``trial_oracle.trial_rows``) to the
per-trial Python row loop it documents.  End-to-end, the synthesized traces
must produce the same CPA detection decisions as the simulated ones.  The
trial folds are checked against the row oracle in ``test_trial_folds.py``.
"""

import numpy as np
import pytest
from rtl_oracle import stepped_activity
from trial_oracle import trial_matrix, trial_rows

from repro.core.architectures import BaselineWatermark, ClockModulationWatermark
from repro.core.clock_modulation import ClockModulatedBank
from repro.core.config import DetectionConfig, WatermarkConfig
from repro.core.lfsr import LFSR
from repro.core.load_circuit import LoadCircuit
from repro.core.wgc import WatermarkGenerationCircuit
from repro.detection.batch import BatchCPADetector
from repro.detection.cpa import CPADetector
from repro.power.estimator import PowerEstimator
from repro.power.synthesis import (
    PeriodicPowerTemplate,
    TraceSynthesizer,
    periodic_extend,
)


def _small_clock_modulation() -> ClockModulationWatermark:
    """A small (period-63) clock-modulation watermark for stepped references."""
    return ClockModulationWatermark(
        wgc=WatermarkGenerationCircuit.minimal(width=6, seed=1),
        modulated_block=ClockModulatedBank(num_words=4, word_width=8),
    )


def _small_baseline() -> BaselineWatermark:
    return BaselineWatermark(
        wgc=WatermarkGenerationCircuit.minimal(width=6, seed=1),
        load=LoadCircuit(num_registers=24),
    )


def _stepped_power(architecture, estimator, num_cycles):
    """Golden reference: step the architecture every cycle, then estimate."""
    traces = stepped_activity(architecture, num_cycles)
    static = estimator.leakage_of(architecture.cell_inventory())
    return estimator.combined_power_trace(traces, static_w=static, name=architecture.name)


class TestPeriodicExtend:
    def test_matches_tile_then_roll(self):
        rng = np.random.default_rng(0)
        template = rng.random(37)
        for num_cycles in (1, 36, 37, 74, 100):
            for offset in (0, 1, 17, 36, 40, -5):
                reps = int(np.ceil(num_cycles / len(template)))
                expected = np.roll(np.tile(template, reps)[:num_cycles], -offset)
                actual = periodic_extend(template, num_cycles, offset)
                assert np.array_equal(actual, expected), (num_cycles, offset)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            periodic_extend(np.array([]), 10)
        with pytest.raises(ValueError):
            periodic_extend(np.ones(4), 0)


class TestWatermarkPowerEquivalence:
    """Synthesized watermark power == stepping the circuit cycle by cycle."""

    @pytest.mark.parametrize("build", [_small_clock_modulation, _small_baseline])
    def test_bit_identical_over_multiple_periods(self, build):
        estimator = PowerEstimator()
        architecture = build()
        num_cycles = 3 * architecture.sequence_period + 11
        reference = _stepped_power(build(), estimator, num_cycles)
        synthesized = architecture.power_template(estimator).extend(num_cycles)
        assert np.array_equal(synthesized.power_w, reference.power_w)

    def test_power_trace_uses_template_and_matches_reference(self):
        estimator = PowerEstimator()
        architecture = _small_clock_modulation()
        num_cycles = 2 * architecture.sequence_period + 5
        reference = _stepped_power(_small_clock_modulation(), estimator, num_cycles)
        trace = architecture.power_trace(estimator, num_cycles)
        assert np.array_equal(trace.power_w, reference.power_w)

    def test_phase_offset_matches_roll(self):
        estimator = PowerEstimator()
        architecture = _small_clock_modulation()
        num_cycles = 150
        plain = architecture.power_trace(estimator, num_cycles)
        rolled = architecture.power_trace(estimator, num_cycles, phase_offset=23)
        assert np.array_equal(rolled.power_w, np.roll(plain.power_w, -23))

    def test_periodic_activity_calls_return_equal_independent_arrays(self):
        architecture = _small_clock_modulation()
        estimator = PowerEstimator()
        before = architecture.power_trace(estimator, 100)
        first = architecture.periodic_activity()
        second = architecture.periodic_activity()
        for key in ("wgc", "load"):
            for field in ("clock_toggles", "data_toggles", "comb_toggles"):
                assert np.array_equal(getattr(first[key], field), getattr(second[key], field))
                assert not np.shares_memory(getattr(first[key], field), getattr(second[key], field))
        first["load"].data_toggles += 1_000  # caller scribbles on its arrays
        after = architecture.power_trace(estimator, 100)
        assert np.array_equal(before.power_w, after.power_w)

    def test_paper_scale_template_short_window(self):
        # The full test-chip configuration (period 4,095) stays bit-exact
        # over a window that crosses the period boundary.
        estimator = PowerEstimator()
        config = WatermarkConfig()
        architecture = ClockModulationWatermark.from_config(config)
        period = architecture.sequence_period
        num_cycles = period + 64
        reference = _stepped_power(
            ClockModulationWatermark.from_config(config), estimator, num_cycles
        )
        synthesized = architecture.power_trace(estimator, num_cycles)
        assert np.array_equal(synthesized.power_w, reference.power_w)


class TestSynthesizeTrials:
    @pytest.fixture(scope="class")
    def sequence(self):
        return LFSR(width=7, seed=0x41).sequence().astype(np.float64)

    def test_matches_per_trial_loop(self, sequence):
        period = len(sequence)
        num_cycles = 1500
        amplitude, base, sigma = 1.5e-3, 5e-3, 15e-3
        trials = 8

        rng = np.random.default_rng(3)
        tiled = np.tile(sequence, int(np.ceil((num_cycles + period) / period)))
        expected = np.empty((trials, num_cycles))
        for row in range(trials):
            offset = int(rng.integers(0, period))
            signal = base + tiled[offset : offset + num_cycles] * amplitude
            expected[row] = signal + rng.normal(0.0, sigma, num_cycles)

        synthesizer = TraceSynthesizer.from_sequence(
            sequence, watermark_amplitude_w=amplitude, noise_sigma_w=sigma, base_power_w=base
        )
        actual = trial_matrix(synthesizer, trials, num_cycles, np.random.default_rng(3))
        assert np.array_equal(actual, expected)

    def test_starvation_and_per_row_sigmas_match_loop(self, sequence):
        period = len(sequence)
        num_cycles = 900
        amplitude, base = 1.5e-3, 5e-3
        specs = [(10e-3, 1.0), (20e-3, 0.4), (30e-3, 0.02)]

        rng = np.random.default_rng(11)
        tiled = np.tile(sequence, int(np.ceil((num_cycles + period) / period)))
        expected = np.empty((len(specs), num_cycles))
        for row, (sigma, duty) in enumerate(specs):
            offset = int(rng.integers(0, period))
            watermark = tiled[offset : offset + num_cycles]
            if duty < 1.0:
                gate = rng.random(num_cycles) < duty
                watermark = watermark * gate
            expected[row] = base + watermark * amplitude + rng.normal(0.0, sigma, num_cycles)

        synthesizer = TraceSynthesizer.from_sequence(
            sequence, watermark_amplitude_w=amplitude, noise_sigma_w=0.0, base_power_w=base
        )
        actual = trial_matrix(
            synthesizer,
            len(specs),
            num_cycles,
            np.random.default_rng(11),
            noise_sigmas=[sigma for sigma, _ in specs],
            enable_duties=[duty for _, duty in specs],
        )
        assert np.array_equal(actual, expected)

    def test_validation(self, sequence):
        synthesizer = TraceSynthesizer.from_sequence(sequence, 1e-3, 1e-3)
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            synthesizer.trial_folds(0, 1000, rng)
        with pytest.raises(ValueError, match="sequence period"):
            synthesizer.trial_folds(2, len(sequence) - 1, rng)
        with pytest.raises(ValueError):
            synthesizer.trial_folds(2, 1000, rng, noise_sigmas=[1e-3])
        with pytest.raises(ValueError, match="non-negative"):
            synthesizer.trial_folds(2, 1000, rng, noise_sigmas=[1e-3, -1e-3])
        with pytest.raises(ValueError, match="within"):
            synthesizer.trial_folds(2, 1000, rng, enable_duties=1.5)
        with pytest.raises(ValueError):
            trial_rows(synthesizer, 2, 0, rng)
        with pytest.raises(ValueError):
            TraceSynthesizer.from_sequence(sequence, -1.0, 0.0)

class TestEndToEndDecisions:
    def test_synthesized_trials_reach_identical_detection_decisions(self):
        sequence = LFSR(width=7, seed=0x41).sequence().astype(np.float64)
        num_cycles = 4000
        trials = 10
        synthesizer = TraceSynthesizer.from_sequence(
            sequence, watermark_amplitude_w=1.5e-3, noise_sigma_w=12e-3
        )
        matrix = trial_matrix(synthesizer, trials, num_cycles, np.random.default_rng(5))

        config = DetectionConfig()
        batch = BatchCPADetector(config).detect_many(sequence, matrix)
        single = CPADetector(config)
        for row in range(trials):
            result = single.detect(sequence, matrix[row])
            assert bool(batch.detected[row]) == result.detected
            assert int(batch.peak_rotations[row]) == result.peak_rotation
            assert np.array_equal(batch.correlations[row], result.correlations)

    def test_trial_folds_pipe_into_batch_detector(self):
        sequence = LFSR(width=7, seed=0x41).sequence().astype(np.float64)
        synthesizer = TraceSynthesizer.from_sequence(
            sequence, watermark_amplitude_w=1.5e-3, noise_sigma_w=2e-3
        )
        folds = synthesizer.trial_folds(6, 3000, np.random.default_rng(9))
        batch = BatchCPADetector().detect_many(sequence, folds)
        assert len(batch.detected) == 6
        assert batch.detection_count == 6  # strong watermark, low noise

    def test_simulated_and_synthesized_power_detect_identically(self):
        """The whole chain: power -> measurement -> CPA, both generation paths."""
        from repro.core.config import MeasurementConfig
        from repro.measurement.acquisition import AcquisitionCampaign

        estimator = PowerEstimator()
        architecture = _small_clock_modulation()
        num_cycles = 5 * architecture.sequence_period
        reference = _stepped_power(_small_clock_modulation(), estimator, num_cycles)
        synthesized = architecture.power_template(estimator).extend(num_cycles)
        campaign = AcquisitionCampaign(MeasurementConfig())
        detector = CPADetector(DetectionConfig())
        sequence = architecture.sequence()
        measured_ref = campaign.measure(reference, seed=21)
        measured_syn = campaign.measure(synthesized, seed=21)
        # Identical power in -> identical noise draw -> identical CPA result.
        assert np.array_equal(measured_ref.values, measured_syn.values)
        cpa_ref = detector.detect(sequence, measured_ref.values)
        cpa_syn = detector.detect(sequence, measured_syn.values)
        assert cpa_ref.detected == cpa_syn.detected
        assert cpa_ref.peak_rotation == cpa_syn.peak_rotation
        assert np.array_equal(cpa_ref.correlations, cpa_syn.correlations)


    def test_paper_config_trace_and_spectra_match_the_oracle(self):
        """Paper configuration over three periods and a partial one."""
        from repro.core.config import MeasurementConfig
        from repro.measurement.acquisition import AcquisitionCampaign

        estimator = PowerEstimator()
        config = WatermarkConfig()
        architecture = ClockModulationWatermark.from_config(config)
        num_cycles = 3 * architecture.sequence_period + 1_001
        assert num_cycles % 4_095 != 0
        reference = _stepped_power(
            ClockModulationWatermark.from_config(config), estimator, num_cycles
        )
        synthesized = architecture.power_template(estimator).extend(num_cycles)
        assert np.array_equal(synthesized.power_w, reference.power_w)

        campaign = AcquisitionCampaign(MeasurementConfig())
        detector = CPADetector(DetectionConfig())
        sequence = architecture.sequence()
        cpa_ref = detector.detect(sequence, campaign.measure(reference, seed=77).values)
        cpa_syn = detector.detect(sequence, campaign.measure(synthesized, seed=77).values)
        assert cpa_ref.detected == cpa_syn.detected
        assert cpa_ref.peak_rotation == cpa_syn.peak_rotation
        assert np.array_equal(cpa_ref.correlations, cpa_syn.correlations)

class TestPeriodicPowerTemplate:
    def test_from_power_trace_roundtrip(self):
        estimator = PowerEstimator()
        architecture = _small_baseline()
        template = architecture.power_template(estimator)
        assert template.period == architecture.sequence_period
        extended = template.extend(2 * template.period + 3)
        assert len(extended) == 2 * template.period + 3
        assert np.array_equal(extended.power_w[: template.period], template.power_w)

    def test_rejects_empty_or_2d(self):
        with pytest.raises(ValueError):
            PeriodicPowerTemplate(name="t", power_w=np.array([]))
        with pytest.raises(ValueError):
            PeriodicPowerTemplate(name="t", power_w=np.ones((2, 2)))

    def test_periodic_template_is_served_read_only(self):
        template = PeriodicPowerTemplate(name="t", power_w=np.ones(8))
        assert not template.power_w.flags.writeable
        with pytest.raises(ValueError):
            template.power_w[0] = 2.0

    def test_freezing_does_not_alias_the_caller_array(self):
        mine = np.ones(8)
        PeriodicPowerTemplate(name="t", power_w=mine)
        assert mine.flags.writeable  # the template froze its own copy
        mine[0] = 5.0  # and my array still works
