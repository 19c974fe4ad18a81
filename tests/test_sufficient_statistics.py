"""Repetitions drawn as sufficient statistics against the per-cycle oracle.

:meth:`repro.measurement.AcquisitionCampaign.measure_folded` draws each
repetition's phase fold and energy (``period + 2`` draws) instead of its
``num_cycles`` noise samples.  These tests check it three ways:

* **Algebra.**  For generated small traces, the documented draws are
  replayed and turned into an explicit per-cycle noise vector with exactly
  those phase sums, residual component and residual energy.  The fold and
  ``row @ row`` of ``s + n`` must equal what the method returned.
* **Zero noise.**  With sigma 0 the result is exactly the oracle's fold
  and energy of the noiseless trace.
* **Distribution.**  Over thousands of seeds, two-sample KS tests compare
  the method with the per-cycle oracle :func:`measurement_chain.measure_rows`:
  on a fold entry, the energy and their centred product, and on the
  detector's per-rotation correlations, with a binomial check on the
  detection rate.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from measurement_chain import measure_rows
from scipy.stats import ks_2samp
from trial_oracle import fold_rows

from repro.core.config import MeasurementConfig
from repro.core.seeds import stream
from repro.detection.batch import BatchCPADetector, PhaseFold, fold_by_phase
from repro.measurement.acquisition import AcquisitionCampaign
from repro.power.trace import PowerTrace

#: Significance of every distributional check; the seeds are fixed, so a
#: check either always passes or always fails.
ALPHA = 1e-3
#: Repetitions per sample in the distributional checks.
SAMPLES = 3000


class FixedSigmaCampaign(AcquisitionCampaign):
    """An acquisition campaign whose per-cycle noise sigma is given."""

    def __init__(self, sigma: float) -> None:
        super().__init__(MeasurementConfig())
        self.sigma = sigma

    def _trace_sigma(self, power_trace: PowerTrace) -> float:
        return self.sigma


def power_trace(values: np.ndarray) -> PowerTrace:
    return PowerTrace("s", np.asarray(values, dtype=np.float64))


def oracle_statistics(campaign, trace: PowerTrace, seeds, period: int):
    """Fold and energy of the oracle's per-cycle rows."""
    folds, energies = [], []
    for row in measure_rows(campaign, trace, seeds):
        folds.append(fold_by_phase(row, period)[0][0])
        energies.append(np.einsum("i,i->", row, row))  # the library's sum order
    return np.array(folds), np.array(energies)


def residual_projection(vector: np.ndarray, period: int) -> np.ndarray:
    """``vector`` minus its per-phase means: its part orthogonal to the phases."""
    folded, counts = fold_by_phase(vector, period)
    return vector - np.resize(folded[0] / counts, len(vector))


def explicit_noise(s, period, sigma, seed):
    """A per-cycle noise vector realising the documented draws of ``seed``."""
    num_cycles = len(s)
    rng = stream(seed, "noise")
    counts = fold_by_phase(np.zeros(num_cycles), period)[1]
    noise_fold = sigma * np.sqrt(counts) * rng.standard_normal(period)
    dims = num_cycles - period
    z = rng.standard_normal() if dims >= 1 else 0.0
    chi2 = rng.chisquare(dims - 1) if dims >= 2 else 0.0
    noise = np.resize(noise_fold / counts, num_cycles)
    if dims == 0:
        return noise
    # Unit vectors of the residual space: along r, then orthogonal to it.
    directions = np.random.default_rng(12345)
    residual = residual_projection(s, period)
    if np.linalg.norm(residual) <= 1e-9 * (np.linalg.norm(s) + 1.0):
        residual = residual_projection(directions.standard_normal(num_cycles), period)
    along = residual / np.linalg.norm(residual)
    noise += sigma * z * along
    if dims >= 2:
        other = residual_projection(directions.standard_normal(num_cycles), period)
        other -= (other @ along) * along
        noise += sigma * np.sqrt(chi2) * other / np.linalg.norm(other)
    return noise


@st.composite
def campaigns(draw):
    period = draw(st.integers(min_value=2, max_value=9))
    num_cycles = draw(
        st.one_of(
            st.just(period),
            st.just(period + 1),
            st.integers(min_value=period, max_value=6 * period + 5),
        )
    )
    sigma = draw(st.one_of(st.just(0.0), st.floats(min_value=1e-3, max_value=5.0)))
    periodic = draw(st.booleans())
    values = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # Power is non-negative; the algebra does not care about the sign.
    offset = draw(st.floats(min_value=0.0, max_value=5.0))
    if periodic:
        s = offset + np.abs(np.resize(values.normal(size=period), num_cycles))
    else:
        s = offset + np.abs(values.normal(scale=draw(st.floats(0.1, 3.0)), size=num_cycles))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    return period, sigma, s, seed


@settings(max_examples=80, deadline=None)
@given(campaigns())
@example((3, 0.7, np.linspace(0.0, 2.0, 3), 5))  # N = P
@example((3, 0.7, np.linspace(0.0, 2.0, 4), 5))  # N = P + 1
@example((4, 1.3, np.linspace(0.0, 2.0, 11), 5))  # N not a multiple of P
def test_statistics_are_those_of_an_explicit_noise_row(case):
    period, sigma, s, seed = case
    fold = FixedSigmaCampaign(sigma).measure_folded(power_trace(s), [seed], period)
    row = s + explicit_noise(s, period, sigma, seed)
    scale = s @ s + sigma * sigma * len(s) + 1.0
    assert fold.num_cycles == len(s)
    np.testing.assert_allclose(
        fold.folded[0], fold_by_phase(row, period)[0][0], rtol=1e-9, atol=1e-9 * np.sqrt(scale)
    )
    np.testing.assert_allclose(fold.sum_yy[0], row @ row, rtol=1e-9, atol=1e-9 * scale)


@settings(max_examples=40, deadline=None)
@given(campaigns())
def test_zero_sigma_is_exactly_the_noiseless_trace(case):
    period, _, s, seed = case
    campaign = FixedSigmaCampaign(0.0)
    seeds = [seed, seed + 1]
    fold = campaign.measure_folded(power_trace(s), seeds, period)
    folds, energies = oracle_statistics(campaign, power_trace(s), seeds, period)
    assert np.array_equal(fold.folded, folds)
    assert np.array_equal(fold.sum_yy, energies)


def test_each_repetition_depends_on_its_seed_alone():
    s = 1.5 + np.sin(np.arange(100))
    campaign = FixedSigmaCampaign(0.4)
    together = campaign.measure_folded(power_trace(s), [3, 4], 7)
    for index, seed in enumerate([3, 4]):
        alone = campaign.measure_folded(power_trace(s), [seed], 7)
        assert np.array_equal(together.folded[index], alone.folded[0])
        assert np.array_equal(together.sum_yy[index], alone.sum_yy[0])
    assert not np.array_equal(together.folded[0], together.folded[1])


def test_a_none_seed_is_the_configured_seed():
    s = 1.5 + np.cos(np.arange(50))
    campaign = FixedSigmaCampaign(0.2)
    campaign.config = MeasurementConfig(seed=11)
    default = campaign.measure_folded(power_trace(s), [None], 5)
    seeded = campaign.measure_folded(power_trace(s), [11], 5)
    assert np.array_equal(default.folded, seeded.folded)


def test_requires_a_seed_and_a_full_period():
    campaign = FixedSigmaCampaign(0.1)
    with pytest.raises(ValueError):
        campaign.measure_folded(power_trace(np.ones(20)), [], 5)
    with pytest.raises(ValueError):
        campaign.measure_folded(power_trace(np.ones(4)), [1], 5)


# -- distribution against the per-cycle oracle ------------------------------------


def assert_same_distribution(a, b, label):
    result = ks_2samp(a, b)
    assert result.pvalue > ALPHA, f"{label}: KS {result.statistic:.4f}, p={result.pvalue:.2e}"


@pytest.mark.parametrize(
    "period, num_cycles, sigma",
    [
        (3, 5, 0.8),  # one chi-square degree of freedom
        (4, 6, 1.5),
        (7, 40, 0.6),
    ],
)
def test_fold_and_energy_match_the_oracle_in_distribution(period, num_cycles, sigma):
    cycles = np.arange(num_cycles)
    s = 1.0 + 0.3 * (cycles % period == 1) + 0.8 * np.sin(1.7 * cycles)
    trace = power_trace(s)
    campaign = FixedSigmaCampaign(sigma)
    fold = campaign.measure_folded(trace, range(SAMPLES), period)
    oracle_folds, oracle_energies = oracle_statistics(
        campaign, trace, range(10**6, 10**6 + SAMPLES), period
    )
    # Centre on the exact expectations, so the product is a covariance sample.
    expected_fold = fold_by_phase(s, period)[0][0, 0]
    expected_energy = s @ s + num_cycles * sigma * sigma
    drawn = (fold.folded[:, 0] - expected_fold, fold.sum_yy - expected_energy)
    oracle = (oracle_folds[:, 0] - expected_fold, oracle_energies - expected_energy)
    assert_same_distribution(drawn[0], oracle[0], "fold entry")
    assert_same_distribution(drawn[1], oracle[1], "energy")
    assert_same_distribution(drawn[0] * drawn[1], oracle[0] * oracle[1], "product")


def test_detection_matches_the_oracle_in_distribution():
    period, offset = 63, 40
    sequence = (np.random.default_rng(7).random(period) < 0.5).astype(float)
    cycles = np.arange(period * 16 + 20)
    s = (
        1.0
        + 0.3 * sequence[(cycles + offset) % period]
        + 0.05 * np.sin(0.37 * cycles)
    )
    trace = power_trace(s)
    campaign = FixedSigmaCampaign(1.0)
    detector = BatchCPADetector()
    drawn = detector.detect_many(sequence, campaign.measure_folded(trace, range(SAMPLES), period))
    oracle = detector.detect_many(
        sequence, fold_rows(measure_rows(campaign, trace, range(10**6, 10**6 + SAMPLES)), period)
    )
    peak = int(np.argmax(np.abs(oracle.correlations).mean(axis=0)))
    assert peak == offset
    assert_same_distribution(drawn.correlations[:, peak], oracle.correlations[:, peak], "peak")
    off_peak = (peak + 17) % period
    assert_same_distribution(
        drawn.correlations[:, off_peak], oracle.correlations[:, off_peak], "off-peak"
    )
    # The decision rate is a binomial proportion: the two rates may differ
    # by sampling error only (pooled two-proportion z-test).
    rates = np.array([drawn.detection_rate, oracle.detection_rate])
    assert 0.2 < rates.mean() < 0.8, rates
    pooled = rates.mean()
    z = (rates[0] - rates[1]) / np.sqrt(2 * pooled * (1 - pooled) / SAMPLES)
    assert abs(z) < 3.29, (rates, z)


def test_phase_fold_detection_rejects_a_mismatched_period():
    fold = FixedSigmaCampaign(0.1).measure_folded(power_trace(np.ones(40)), [1], 8)
    assert isinstance(fold, PhaseFold)
    with pytest.raises(ValueError):
        BatchCPADetector().detect_many(np.ones(10), fold)
