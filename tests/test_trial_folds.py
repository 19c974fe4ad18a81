"""Monte-Carlo trials drawn as phase folds against the per-cycle row oracle.

:meth:`repro.power.synthesis.TraceSynthesizer.trial_folds` draws each
trial's phase fold and energy (O(period) draws) instead of its
``num_cycles`` gate and noise samples.  These tests check it three ways:

* **Algebra.**  For generated small cases, gated and ungated, the
  documented draws are replayed and turned into explicit per-cycle rows
  with exactly those gated counts, group noise sums and residual noise
  energy.  The fold and ``row @ row`` of each row must equal what the
  method returned.
* **Exactness.**  With sigma 0 and a duty of 0 or 1 nothing is random but
  the phase offset, and a one-trial draw equals the oracle's row
  (:func:`trial_oracle.trial_rows`) exactly.
* **Distribution.**  Over thousands of trials, two-sample KS tests compare
  the method with the oracle on a fold entry, the energy and the
  detector's peak and off-peak correlations, for duties 1, 0.5 and 0.25,
  with a binomial check on the detection rate.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.stats import ks_2samp
from trial_oracle import fold_rows, trial_rows

from repro.detection.batch import BatchCPADetector
from repro.power.synthesis import TraceSynthesizer

#: Significance of every distributional check; the seeds are fixed, so a
#: check either always passes or always fails.
ALPHA = 1e-3
#: Trials per sample in the distributional checks.
SAMPLES = 2000


def replayed_rows(synthesizer, trials, num_cycles, seed, sigmas, duties):
    """Per-cycle rows realising the documented draws of ``trial_folds``."""
    rng = np.random.default_rng(seed)
    period = synthesizer.period
    sigmas = np.broadcast_to(np.asarray(sigmas, dtype=float), (trials,))
    duties = np.broadcast_to(np.asarray(duties, dtype=float), (trials,))
    gated = duties < 1.0
    phase = np.arange(num_cycles) % period
    counts = np.bincount(phase, minlength=period)
    offsets = rng.integers(0, period, size=trials)
    on = np.tile(counts, (trials, 1))
    on[gated] = rng.binomial(counts, duties[gated][:, None])
    z = rng.standard_normal((trials, period))
    w = rng.standard_normal((np.count_nonzero(gated), period))
    off = counts - on
    dof = num_cycles - np.count_nonzero(on, axis=1) - np.count_nonzero(off, axis=1)
    chi2 = 2.0 * rng.standard_gamma(dof / 2.0)

    directions = np.random.default_rng(12345)
    w_rows = iter(w)
    rows = []
    for t in range(trials):
        w_t = next(w_rows) if gated[t] else np.zeros(period)
        # Cycle i of phase k is gated on if it is among the first m_k of them.
        rank = np.zeros(num_cycles, dtype=np.int64)
        for k in range(period):
            rank[phase == k] = np.arange(counts[k])
        gate_on = rank < on[t][phase]
        x = synthesizer.sequence[(np.arange(num_cycles) + offsets[t]) % period]
        signal = np.where(
            gate_on,
            synthesizer.base_power_w + synthesizer.watermark_amplitude_w * x,
            synthesizer.base_power_w,
        )
        # Group g (phase k, on or off) of size n gets its noise sum spread
        # evenly, plus a share of one residual that sums to zero per group.
        group = 2 * phase + gate_on
        sizes = np.bincount(group, minlength=2 * period)
        sums = np.zeros(2 * period)
        sums[1::2] = sigmas[t] * np.sqrt(on[t]) * z[t]
        sums[0::2] = sigmas[t] * np.sqrt(off[t]) * w_t
        noise = sums[group] / sizes[group]
        if dof[t] > 0:
            residual = directions.standard_normal(num_cycles)
            residual -= (np.bincount(group, residual, 2 * period) / np.maximum(sizes, 1))[group]
            noise += sigmas[t] * np.sqrt(chi2[t]) * residual / np.linalg.norm(residual)
        rows.append(signal + noise)
    return np.array(rows)


@st.composite
def cases(draw):
    period = draw(st.integers(min_value=2, max_value=9))
    num_cycles = draw(
        st.one_of(
            st.just(period),
            st.just(period + 1),
            st.integers(min_value=period, max_value=6 * period + 5),
        )
    )
    trials = draw(st.integers(min_value=1, max_value=3))
    sigma = draw(st.one_of(st.just(0.0), st.floats(min_value=1e-3, max_value=5.0)))
    duty = draw(st.one_of(st.just(1.0), st.just(0.0), st.floats(min_value=0.0, max_value=1.0)))
    values = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sequence = values.normal(size=period) if draw(st.booleans()) else values.integers(0, 2, period)
    base = draw(st.floats(min_value=0.0, max_value=5.0))
    amplitude = draw(st.floats(min_value=0.0, max_value=3.0))
    synthesizer = TraceSynthesizer(sequence, amplitude, sigma, base)
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    return synthesizer, trials, num_cycles, duty, seed


@settings(max_examples=80, deadline=None)
@given(cases())
@example((TraceSynthesizer(np.array([1.0, 0.0, 1.0]), 0.5, 0.7, 1.0), 2, 3, 1.0, 5))  # N = P
@example((TraceSynthesizer(np.array([1.0, 0.0, 1.0]), 0.5, 0.7, 1.0), 2, 4, 0.5, 5))  # N = P + 1
@example((TraceSynthesizer(np.array([1.0, 0.0, 0.0, 1.0]), 1.5, 1.3, 2.0), 3, 11, 0.3, 5))
def test_statistics_are_those_of_explicit_rows(case):
    synthesizer, trials, num_cycles, duty, seed = case
    fold = synthesizer.trial_folds(
        trials, num_cycles, np.random.default_rng(seed), enable_duties=duty
    )
    rows = replayed_rows(synthesizer, trials, num_cycles, seed, synthesizer.noise_sigma_w, duty)
    expected = fold_rows(rows, synthesizer.period)
    scale = (np.abs(rows) ** 2).sum(axis=1) + 1.0
    assert fold.num_cycles == num_cycles
    np.testing.assert_allclose(
        fold.folded, expected.folded, rtol=1e-9, atol=1e-9 * np.sqrt(scale.max())
    )
    np.testing.assert_allclose(fold.sum_yy, expected.sum_yy, rtol=1e-9, atol=1e-9 * scale.max())


@settings(max_examples=60, deadline=None)
@given(
    period=st.integers(min_value=2, max_value=9),
    extra=st.integers(min_value=0, max_value=40),
    duty=st.sampled_from([0.0, 1.0]),
    eighths=st.lists(st.integers(-16, 16), min_size=2, max_size=2),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_noiseless_ungated_and_fully_gated_draws_equal_the_oracle(
    period, extra, duty, eighths, seed
):
    # Dyadic values keep every sum exact, so equality is bit for bit.
    sequence = np.random.default_rng(seed).integers(0, 2, period).astype(float)
    base, amplitude = (value / 8 for value in eighths)
    synthesizer = TraceSynthesizer(sequence, abs(amplitude), 0.0, base)
    num_cycles = period + extra
    fold = synthesizer.trial_folds(1, num_cycles, np.random.default_rng(seed), enable_duties=duty)
    oracle = fold_rows(
        trial_rows(synthesizer, 1, num_cycles, np.random.default_rng(seed), enable_duties=duty),
        period,
    )
    assert np.array_equal(fold.folded, oracle.folded)
    assert np.array_equal(fold.sum_yy, oracle.sum_yy)


def test_per_trial_parameters_and_validation():
    synthesizer = TraceSynthesizer(np.array([1.0, 0.0, 1.0, 1.0]), 1.0, 0.5, 2.0)
    counts = np.bincount(np.arange(41) % 4, minlength=4)
    fold = synthesizer.trial_folds(
        3,
        41,
        np.random.default_rng(3),
        noise_sigmas=[0.0, 0.3, 0.0],
        enable_duties=[1.0, 0.5, 0.0],
        amplitudes=[2.0, 1.0, 1.0],
    )
    assert fold.folded.shape == (3, 4) and fold.num_cycles == 41
    # Noiseless rows are constant within each phase: base or base + 2 x.
    assert set(fold.folded[0] / counts) <= {2.0, 4.0}
    assert fold.sum_yy[0] == pytest.approx((fold.folded[0] ** 2 / counts).sum())
    # Fully gated and noiseless: base power only.
    assert np.array_equal(fold.folded[2], 2.0 * counts)
    assert fold.sum_yy[2] == 41 * 4.0
    with pytest.raises(ValueError):
        synthesizer.trial_folds(3, 41, np.random.default_rng(3), amplitudes=[1.0, 2.0])


# -- distribution against the per-cycle oracle ------------------------------------


def assert_same_distribution(a, b, label):
    result = ks_2samp(a, b)
    assert result.pvalue > ALPHA, f"{label}: KS {result.statistic:.4f}, p={result.pvalue:.2e}"


@pytest.mark.parametrize("duty", [1.0, 0.5, 0.25])
def test_trials_match_the_oracle_in_distribution(duty):
    period = 63
    num_cycles = 40 * period + 17
    sequence = (np.random.default_rng(7).random(period) < 0.5).astype(float)
    # Scale the amplitude with the duty so every case sits mid-way between
    # never and always detected.
    synthesizer = TraceSynthesizer(sequence, 0.2 / duty, 1.0, 1.0)
    drawn = synthesizer.trial_folds(SAMPLES, num_cycles, np.random.default_rng(1), enable_duties=duty)
    oracle = fold_rows(
        trial_rows(synthesizer, SAMPLES, num_cycles, np.random.default_rng(2), enable_duties=duty),
        period,
    )
    assert_same_distribution(drawn.folded[:, 0], oracle.folded[:, 0], "fold entry")
    assert_same_distribution(drawn.sum_yy, oracle.sum_yy, "energy")

    detector = BatchCPADetector()
    drawn_cpa = detector.detect_many(sequence, drawn)
    oracle_cpa = detector.detect_many(sequence, oracle)
    assert_same_distribution(
        drawn_cpa.peak_correlations, oracle_cpa.peak_correlations, "peak"
    )
    rows = np.arange(SAMPLES)

    def off_peak(cpa):
        return cpa.correlations[rows, (cpa.peak_rotations + 17) % period]

    assert_same_distribution(off_peak(drawn_cpa), off_peak(oracle_cpa), "off-peak")
    # The decision rate is a binomial proportion: the two rates may differ
    # by sampling error only (pooled two-proportion z-test).
    rates = np.array([drawn_cpa.detection_rate, oracle_cpa.detection_rate])
    assert 0.1 < rates.mean() < 0.9, rates
    pooled = rates.mean()
    z = (rates[0] - rates[1]) / np.sqrt(2 * pooled * (1 - pooled) / SAMPLES)
    assert abs(z) < 3.29, (rates, z)
