"""Equivalence and property tests for the batched CPA detection engine.

The batched engine must be interchangeable with the single-trace detector:

* the literal per-rotation correlator (``trial_oracle``), the single-trace
  FFT path and batched correlations agree to 1e-9 across random periods,
  trace lengths, duties and zero-variance edge cases;
* a batch of one is *bit-identical* to ``CPADetector.detect`` (the single
  path delegates to the batched engine, and the suite locks that in);
* rows streamed one at a time through a reused buffer into their
  :class:`PhaseFold` (``trial_oracle.fold_rows``) detect bit-identically
  to the stacked trace matrix.
"""

import numpy as np
import pytest
from trial_oracle import fold_rows, naive_rotation_correlations

from repro.detection.batch import (
    BatchCPADetector,
    batch_rotation_correlations,
    fold_by_phase,
)
from repro.detection.cpa import CPADetector, rotation_correlations

_RESULT_FIELDS = (
    "peak_rotation",
    "peak_correlation",
    "noise_floor_std",
    "second_peak_correlation",
    "z_score",
    "detected",
    "threshold",
)


def streamed(matrix):
    """Yield every row of ``matrix`` through one reused buffer."""
    buffer = np.empty(matrix.shape[1])
    for row in matrix:
        buffer[:] = row
        yield buffer


def synthesize(rng, period, num_cycles, duty=1.0, amplitude=1.0, noise=2.0):
    """A random 0/1 sequence embedded at a random rotation in Gaussian noise."""
    sequence = (rng.random(period) < 0.5).astype(np.float64)
    if sequence.sum() == 0:
        sequence[0] = 1.0  # keep at least one active phase
    offset = int(rng.integers(0, period))
    tiled = np.tile(sequence, int(np.ceil((num_cycles + period) / period)))
    watermark = tiled[offset : offset + num_cycles].copy()
    if duty < 1.0:
        watermark *= rng.random(num_cycles) < duty
    measured = 5.0 + amplitude * watermark + rng.normal(0.0, noise, num_cycles)
    return sequence, measured


class TestCorrelationEquivalence:
    """oracle == fft == batched to 1e-9 across the randomized design space."""

    @pytest.mark.parametrize("period", [3, 5, 17, 63, 101, 255, 257])
    def test_methods_agree_across_lengths(self, period):
        rng = np.random.default_rng(period)
        for multiplier in (1.0, 2.5, 20.0):
            num_cycles = max(period, int(period * multiplier))
            sequence, measured = synthesize(rng, period, num_cycles)
            naive = naive_rotation_correlations(sequence, measured)
            fft = rotation_correlations(sequence, measured)
            batched = batch_rotation_correlations(sequence, measured[None, :])[0]
            assert np.allclose(naive, fft, atol=1e-9)
            assert np.allclose(naive, batched, atol=1e-9)

    @pytest.mark.parametrize("duty", [1.0, 0.5, 0.1])
    @pytest.mark.parametrize("period", [31, 127])
    def test_methods_agree_across_duties(self, period, duty):
        rng = np.random.default_rng(int(duty * 100) + period)
        sequence, measured = synthesize(rng, period, 12 * period, duty=duty)
        naive = naive_rotation_correlations(sequence, measured)
        batched = batch_rotation_correlations(sequence, measured[None, :])[0]
        assert np.allclose(naive, batched, atol=1e-9)

    def test_batched_naive_method_matches_batched_fft(self):
        rng = np.random.default_rng(7)
        sequence, _ = synthesize(rng, 31, 31)
        matrix = np.stack([synthesize(rng, 31, 400)[1][:400] for _ in range(4)])
        naive = np.stack([naive_rotation_correlations(sequence, row) for row in matrix])
        fft = batch_rotation_correlations(sequence, matrix)
        assert np.allclose(naive, fft, atol=1e-9)

    def test_zero_variance_trace_gives_zero_correlations(self):
        sequence = np.array([1.0, 0.0, 1.0, 0.0, 0.0])
        flat = np.full((2, 50), 3.25)
        assert np.all(batch_rotation_correlations(sequence, flat) == 0.0)

    def test_zero_variance_sequence_gives_zero_correlations(self):
        rng = np.random.default_rng(11)
        sequence = np.ones(7)
        matrix = rng.normal(size=(3, 100))
        assert np.all(batch_rotation_correlations(sequence, matrix) == 0.0)

    def test_mixed_zero_variance_rows(self):
        rng = np.random.default_rng(12)
        sequence, noisy = synthesize(rng, 15, 300, noise=0.5)
        matrix = np.stack([noisy, np.zeros(300)])
        batched = batch_rotation_correlations(sequence, matrix)
        assert np.allclose(
            batched[0], naive_rotation_correlations(sequence, noisy), atol=1e-9
        )
        assert np.all(batched[1] == 0.0)

    def test_clean_tiled_signal_gives_unity_peak_per_row(self):
        rng = np.random.default_rng(13)
        sequence = (rng.random(16) < 0.5).astype(float)
        sequence[0] = 1.0
        matrix = np.stack([np.roll(np.tile(sequence, 8), -r) for r in (0, 3, 9)])
        batched = batch_rotation_correlations(sequence, matrix)
        for row, rotation in zip(batched, (0, 3, 9)):
            assert row[rotation] == pytest.approx(1.0)

    def test_non_binary_sequences(self):
        rng = np.random.default_rng(15)
        sequence = rng.normal(size=63)
        matrix = np.stack(
            [np.tile(sequence, 10) + rng.normal(0, 0.1, 630) for _ in range(2)]
        )
        batched = batch_rotation_correlations(sequence, matrix)
        for i in range(2):
            expected = naive_rotation_correlations(sequence, matrix[i])
            assert np.allclose(batched[i], expected, atol=1e-9)


class TestBatchOfOneExactness:
    """A batch of one must equal CPADetector.detect bit for bit."""

    @pytest.mark.parametrize("period,num_cycles", [(31, 1000), (255, 10_003), (63, 63)])
    def test_detect_many_rows_equal_single_detections(self, period, num_cycles):
        rng = np.random.default_rng(period + num_cycles)
        sequence, _ = synthesize(rng, period, period)
        matrix = np.stack(
            [synthesize(rng, period, num_cycles, noise=n)[1] for n in (0.5, 2.0, 8.0)]
        )
        detector = CPADetector()
        batch = BatchCPADetector().detect_many(sequence, matrix)
        for i in range(matrix.shape[0]):
            single = detector.detect(sequence, matrix[i])
            row = batch.result(i)
            assert np.array_equal(single.correlations, row.correlations)
            for name in _RESULT_FIELDS:
                assert getattr(single, name) == getattr(row, name), name

    def test_streamed_rows_are_bit_identical_to_matrix(self):
        rng = np.random.default_rng(20)
        sequence, _ = synthesize(rng, 63, 63)
        matrix = np.stack([synthesize(rng, 63, 2017)[1] for _ in range(7)])
        detector = BatchCPADetector()
        full = detector.detect_many(sequence, matrix)
        rows = detector.detect_many(sequence, fold_rows(streamed(matrix), 63))
        assert np.array_equal(full.correlations, rows.correlations)
        assert np.array_equal(full.detected, rows.detected)
        assert np.array_equal(full.z_scores, rows.z_scores)

    def test_evaluate_many_matches_single_evaluate(self):
        rng = np.random.default_rng(22)
        spectra = rng.normal(0, 0.05, size=(5, 31))
        spectra[1, 7] = 0.9  # a clear detection row
        spectra[2] = 0.0  # all-zero row
        batch = BatchCPADetector().evaluate_many(spectra)
        detector = CPADetector()
        for i in range(5):
            single = detector.evaluate(spectra[i])
            row = batch.result(i)
            for name in _RESULT_FIELDS:
                assert getattr(single, name) == getattr(row, name), name


class TestEvaluateManyDecisions:
    def test_zero_noise_floor_gives_infinite_z(self):
        spectra = np.zeros((1, 5))
        spectra[0, 2] = 0.8
        batch = BatchCPADetector().evaluate_many(spectra)
        assert np.isinf(batch.z_scores[0])
        assert bool(batch.detected[0])

    def test_all_zero_spectrum_not_detected(self):
        batch = BatchCPADetector().evaluate_many(np.zeros((1, 5)))
        assert batch.z_scores[0] == 0.0
        assert not bool(batch.detected[0])

    def test_negative_peak_not_detected(self):
        spectra = np.zeros((1, 7))
        spectra[0, 3] = -0.9
        batch = BatchCPADetector().evaluate_many(spectra)
        assert not bool(batch.detected[0])

    def test_second_peak_blocks_uniqueness(self):
        spectra = np.zeros((1, 9))
        spectra[0, 2] = 0.9
        spectra[0, 6] = 0.89
        batch = BatchCPADetector().evaluate_many(spectra)
        assert not bool(batch.detected[0])


class TestBatchCPAResult:
    @pytest.fixture(scope="class")
    def batch(self):
        rng = np.random.default_rng(30)
        sequence, _ = synthesize(rng, 31, 31)
        matrix = np.stack(
            [synthesize(rng, 31, 1500, noise=n)[1] for n in (0.2, 0.2, 50.0, 50.0)]
        )
        return BatchCPADetector().detect_many(sequence, matrix)

    def test_shape_accessors(self, batch):
        assert batch.num_trials == len(batch) == 4
        assert batch.correlations.shape[1] == 31

    def test_detection_counters(self, batch):
        assert batch.detection_count == int(np.count_nonzero(batch.detected))
        assert batch.detection_rate == batch.detection_count / 4

    def test_iteration_yields_scalar_results(self, batch):
        results = list(batch)
        assert len(results) == 4
        assert all(len(r.correlations) == 31 for r in results)

    def test_summary_text(self, batch):
        text = batch.summary()
        assert "trials detected" in text
        assert "mean peak rho" in text


class TestFoldByPhase:
    def test_fold_matches_bincount(self):
        rng = np.random.default_rng(40)
        matrix = rng.normal(size=(3, 1234))
        period = 17
        folded, counts = fold_by_phase(matrix, period)
        phases = np.arange(1234) % period
        for i in range(3):
            expected = np.bincount(phases, weights=matrix[i], minlength=period)
            assert np.allclose(folded[i], expected, atol=1e-12)
        assert np.array_equal(counts, np.bincount(phases, minlength=period).astype(float))

    def test_streamed_fold_matches_matrix_fold(self):
        rng = np.random.default_rng(41)
        matrix = rng.normal(size=(2, 999))
        full, counts = fold_by_phase(matrix, 13)
        assert np.array_equal(full, fold_rows(streamed(matrix), 13).folded)
        single, single_counts = fold_by_phase(matrix[1], 13)
        assert np.array_equal(full[1:], single)
        assert np.array_equal(counts, single_counts)


class TestValidation:
    def test_rejects_3d_matrix(self):
        with pytest.raises(ValueError):
            batch_rotation_correlations(np.ones(5), np.zeros((2, 3, 4)))

    def test_rejects_short_sequence(self):
        with pytest.raises(ValueError):
            batch_rotation_correlations(np.ones(1), np.zeros((2, 10)))

    def test_rejects_short_traces(self):
        with pytest.raises(ValueError):
            batch_rotation_correlations(np.ones(8), np.zeros((2, 5)))

    def test_rejects_sequence_row_mismatch(self):
        with pytest.raises(ValueError):
            batch_rotation_correlations(np.ones((3, 8)), np.zeros((2, 16)))

    def test_rejects_a_per_trial_sequence_matrix(self):
        # Every trial shares one sequence; a (trials x period) matrix is refused
        # even when its row count matches the traces or their fold.
        traces = np.zeros((2, 16))
        with pytest.raises(ValueError, match="1-D period shared by every trial"):
            batch_rotation_correlations(np.ones((2, 8)), traces)
        with pytest.raises(ValueError, match="1-D period shared by every trial"):
            BatchCPADetector().detect_many(np.ones((2, 8)), fold_rows(traces, 8))

    def test_rejects_empty_trace_matrix(self):
        with pytest.raises(ValueError, match="at least one trial"):
            BatchCPADetector().detect_many(np.ones(5), np.empty((0, 100)))

    def test_rejects_ragged_and_empty_rows(self):
        detector = BatchCPADetector()
        with pytest.raises(ValueError):
            detector.detect_many(np.ones(4), [np.zeros(10), np.zeros(11)])
        with pytest.raises(ValueError, match="at least one trial"):
            detector.detect_many(np.ones(4), np.empty((0, 10)))
        with pytest.raises(ValueError, match="1-D trace or a 2-D"):
            fold_by_phase(np.zeros((1, 2, 10)), 4)
        with pytest.raises(ValueError):
            fold_by_phase(np.zeros((2, 10)), 1)

    def test_rejects_a_row_iterator(self):
        rows = iter([np.zeros(10), np.zeros(10)])
        with pytest.raises((TypeError, ValueError)):
            BatchCPADetector().detect_many(np.ones(4), rows)

    def test_evaluate_many_needs_three_rotations(self):
        with pytest.raises(ValueError):
            BatchCPADetector().evaluate_many(np.zeros((1, 2)))
