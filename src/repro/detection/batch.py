"""Batched CPA detection engine: all Monte-Carlo trials in one shot.

Every study this repository runs on top of the paper's single detection --
detection-probability curves, repeatability box plots, masking/robustness
sweeps, multi-vendor audits -- multiplies one CPA evaluation by hundreds of
Monte-Carlo trials.  This module makes "N traces at once" the native shape
of the detector:

* :func:`batch_rotation_correlations` reduces every trace to its
  per-phase sums and energy -- its :class:`PhaseFold` -- and computes the
  full rotation correlation spectrum of every trial with a single stack of
  rFFTs, O(trials * cycles + trials * period log period).
* :class:`BatchCPADetector` vectorizes the evaluate step (peak, off-peak
  noise floor, z-score, uniqueness) across rows and returns a structured
  :class:`BatchCPAResult`.

The single-trace :class:`repro.detection.cpa.CPADetector` delegates to this
engine, so a batch of one is *bit-identical* to a single detection -- the
equivalence suite in ``tests/test_detection_batch.py`` locks this in.

Every trial is correlated against one shared 1-D watermark sequence.
Traces arrive either as per-cycle arrays (one 1-D trace, or a ``trials x
cycles`` matrix), which are folded here, or as their :class:`PhaseFold`,
which skips the fold.  Producers that can draw the fold directly hand it
over and never materialise a per-cycle row:
:meth:`repro.measurement.AcquisitionCampaign.measure_folded` does this for
the Fig. 5 panels and the Fig. 6 repetitions and
:meth:`repro.power.synthesis.TraceSynthesizer.trial_folds` for the
Monte-Carlo trials of the detection-probability and masking studies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Tuple, Union

import numpy as np

from repro.core.config import DetectionConfig

__all__ = [
    "BatchCPADetector",
    "BatchCPAResult",
    "PhaseFold",
    "batch_rotation_correlations",
    "fold_by_phase",
]


@dataclass(frozen=True)
class PhaseFold:
    """Everything the detector reads of a batch of equal-length trace rows.

    ``folded[t, p]`` sums row ``t`` over the cycles ``c`` with
    ``c % period == p``, ``sum_yy[t]`` is that row's ``row @ row`` and
    ``num_cycles`` is the common row length.
    """

    folded: np.ndarray
    sum_yy: np.ndarray
    num_cycles: int

    def __post_init__(self) -> None:
        trials, period = np.shape(self.folded)
        if trials == 0:
            raise ValueError("the traces must contain at least one trial")
        if np.shape(self.sum_yy) != (trials,):
            raise ValueError("sum_yy needs one value per folded row")
        if self.num_cycles < period:
            raise ValueError(
                "traces must cover at least one full watermark period "
                f"({self.num_cycles} < {period})"
            )


def sum_of_squares(values: np.ndarray) -> float:
    """``values @ values``, summed in one fixed order.

    BLAS ``ddot`` splits a long vector across threads, so its last bits
    depend on how many threads the host's BLAS runs; ``np.einsum``
    (without ``optimize``) sums in numpy's own loop, the same on any
    thread count.
    """
    return np.einsum("i,i->", values, values)


def _fold_traces(traces: np.ndarray, period: int) -> PhaseFold:
    """The :class:`PhaseFold` of one 1-D trace or a ``trials x cycles`` matrix."""
    matrix = np.asarray(traces, dtype=np.float64)
    if matrix.ndim == 1:
        matrix = matrix[None, :]
    if matrix.ndim != 2:
        raise ValueError("traces must be a 1-D trace or a 2-D (trials x cycles) matrix")
    trials, num_cycles = matrix.shape
    if trials == 0:
        raise ValueError("the traces must contain at least one trial")
    if num_cycles < period:
        raise ValueError(
            "traces must cover at least one full watermark period "
            f"({num_cycles} < {period})"
        )
    full = num_cycles - num_cycles % period
    folded = matrix[:, :full].reshape(trials, -1, period).sum(axis=1)
    folded[:, : num_cycles - full] += matrix[:, full:]
    # Per-row sums round the same whatever the batch size, which keeps a
    # batch of N bit-identical to N batches of one.
    sum_yy = np.array([sum_of_squares(row) for row in matrix])
    return PhaseFold(folded, sum_yy, num_cycles)


def _phase_counts(num_cycles: int, period: int) -> np.ndarray:
    """How many of ``num_cycles`` cycles fall on each phase."""
    counts = np.full(period, num_cycles // period, dtype=np.float64)
    counts[: num_cycles % period] += 1.0
    return counts


def fold_by_phase(traces: np.ndarray, period: int) -> Tuple[np.ndarray, np.ndarray]:
    """Fold every trace row into per-phase sums.

    ``traces`` is one 1-D trace or a ``trials x cycles`` matrix.  Returns
    ``(folded, counts)`` where ``folded[t, p]`` is the sum of row ``t`` over
    all cycles ``c`` with ``c % period == p`` and ``counts[p]`` is the
    number of such cycles (identical for every row).

    The fold is the O(trials * cycles) part of batched CPA; everything after
    it operates on ``trials x period`` arrays.
    """
    if period < 2:
        raise ValueError("the watermark period must be at least two cycles")
    fold = _fold_traces(traces, period)
    return fold.folded, _phase_counts(fold.num_cycles, period)


def _as_sequence(sequence: np.ndarray) -> np.ndarray:
    """``sequence`` as a float64 vector: one period shared by every trial."""
    x = np.asarray(sequence, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError("the watermark sequence must be a 1-D period shared by every trial")
    if len(x) < 2:
        raise ValueError("the watermark sequence must contain at least two cycles")
    return x


def batch_rotation_correlations(
    sequence: np.ndarray, traces: Union[np.ndarray, PhaseFold]
) -> np.ndarray:
    """Rotation correlation spectra for a whole batch of traces at once.

    Parameters
    ----------
    sequence:
        One period of the watermark model sequence, a 1-D vector shared by
        every trial.
    traces:
        The measured per-cycle power: a ``trials x cycles`` matrix or one
        1-D trace (a batch of one), or the traces' :class:`PhaseFold`,
        which skips the fold.

    Returns
    -------
    ``trials x period`` matrix; row ``t`` equals
    ``rotation_correlations(sequence, trace_t)``.
    """
    x = _as_sequence(sequence)
    period = len(x)
    if isinstance(traces, PhaseFold):
        if traces.folded.shape[1] != period:
            raise ValueError(
                f"the phase fold has {traces.folded.shape[1]} phases, "
                f"the sequence period is {period}"
            )
        fold = traces
    else:
        fold = _fold_traces(traces, period)
    folded, sum_yy, num_cycles = fold.folded, fold.sum_yy, fold.num_cycles
    trials = folded.shape[0]
    counts = _phase_counts(num_cycles, period)
    # Per-row totals: folded already holds every cycle's contribution, so the
    # row sum falls out of the fold without another pass over the traces.
    sum_y = folded.sum(axis=1)
    var_y = num_cycles * sum_yy - sum_y * sum_y

    # For rotation r the tiled model at cycle i is x[(i + r) mod period]:
    #   S_xy(t, r) = sum_p folded[t, p] * x[(p + r) mod period]
    #   S_x(r)     = sum_p counts[p]    * x[(p + r) mod period]
    #   S_xx(r)    = S_x(r) when x is 0/1 valued
    # -- circular cross-correlations, evaluated as one stack of rFFTs.
    fft_x = np.fft.rfft(x)
    fft_counts = np.fft.rfft(counts)
    s_xy = np.fft.irfft(np.conj(np.fft.rfft(folded, axis=-1)) * fft_x, n=period, axis=-1)
    s_x = np.fft.irfft(np.conj(fft_counts) * fft_x, n=period)
    if np.all((x == 0.0) | (x == 1.0)):
        s_xx = s_x
    else:
        s_xx = np.fft.irfft(np.conj(fft_counts) * np.fft.rfft(x * x), n=period)

    numerator = num_cycles * s_xy - s_x * sum_y[:, None]
    var_x = num_cycles * s_xx - s_x * s_x
    denominator = np.sqrt(np.clip(var_x, 0.0, None)) * np.sqrt(
        np.clip(var_y, 0.0, None)
    )[:, None]
    correlations = np.zeros((trials, period), dtype=np.float64)
    valid = denominator > 0
    np.divide(numerator, denominator, out=correlations, where=valid)
    return correlations


@dataclass
class BatchCPAResult:
    """Vectorized outcome of CPA detection over a batch of trials.

    Every per-trial scalar of :class:`repro.detection.cpa.CPAResult` becomes
    an array indexed by trial; :meth:`result` recovers the scalar result of
    one trial, equal to what :meth:`CPADetector.detect` returns for that row.
    """

    correlations: np.ndarray
    peak_rotations: np.ndarray
    peak_correlations: np.ndarray
    noise_floor_stds: np.ndarray
    second_peak_correlations: np.ndarray
    z_scores: np.ndarray
    detected: np.ndarray
    threshold: float

    @property
    def num_trials(self) -> int:
        """Number of trials (rows) evaluated."""
        return self.correlations.shape[0]

    @property
    def detection_count(self) -> int:
        """Number of trials in which the watermark was detected."""
        return int(np.count_nonzero(self.detected))

    @property
    def detection_rate(self) -> float:
        """Fraction of trials in which the watermark was detected."""
        if self.num_trials == 0:
            return 0.0
        return self.detection_count / self.num_trials

    def result(self, index: int):
        """The scalar :class:`CPAResult` of one trial."""
        from repro.detection.cpa import CPAResult

        return CPAResult(
            correlations=self.correlations[index],
            peak_rotation=int(self.peak_rotations[index]),
            peak_correlation=float(self.peak_correlations[index]),
            noise_floor_std=float(self.noise_floor_stds[index]),
            second_peak_correlation=float(self.second_peak_correlations[index]),
            z_score=float(self.z_scores[index]),
            detected=bool(self.detected[index]),
            threshold=self.threshold,
        )

    def __len__(self) -> int:
        return self.num_trials

    def __iter__(self) -> Iterator:
        for index in range(self.num_trials):
            yield self.result(index)

    def summary(self) -> str:
        """One-line human-readable summary of the batch."""
        finite = self.z_scores[np.isfinite(self.z_scores)]
        if len(finite):
            z_text = f"mean finite z={float(finite.mean()):.1f}"
        else:
            z_text = "all z=inf (zero noise floor)"
        return (
            f"{self.detection_count}/{self.num_trials} trials detected "
            f"(rate {self.detection_rate:.2f}), mean peak rho="
            f"{float(self.peak_correlations.mean()):.4f}, {z_text}"
        )


class BatchCPADetector:
    """Vectorized CPA detector over a batch of measured traces.

    Applies the same detection rule as :class:`repro.detection.cpa.CPADetector`
    (peak exceeding the off-peak noise floor by ``threshold`` standard
    deviations, second peak below the uniqueness margin, positive peak) to
    every trace row of a batch at once.
    """

    def __init__(self, config: Optional[DetectionConfig] = None) -> None:
        self.config = config or DetectionConfig()

    def detect_many(
        self, sequence: np.ndarray, traces: Union[np.ndarray, PhaseFold]
    ) -> BatchCPAResult:
        """Run CPA on every trace and apply the detection decision.

        ``traces`` is a ``trials x cycles`` matrix, one 1-D trace or their
        :class:`PhaseFold` (see :func:`batch_rotation_correlations`).
        """
        return self.evaluate_many(batch_rotation_correlations(sequence, traces))

    def evaluate_many(self, correlations: np.ndarray) -> BatchCPAResult:
        """Apply the detection decision to precomputed correlation spectra.

        ``correlations`` is a ``trials x period`` matrix (a 1-D vector is
        treated as a batch of one).
        """
        spectra = np.atleast_2d(np.asarray(correlations, dtype=np.float64))
        if spectra.ndim != 2:
            raise ValueError("correlations must be at most 2-D")
        trials, period = spectra.shape
        if trials == 0:
            raise ValueError("the correlation matrix must contain at least one trial")
        if period < 3:
            raise ValueError("need at least three rotations to evaluate detection")

        magnitudes = np.abs(spectra)
        peak_rotations = magnitudes.argmax(axis=1)
        rows = np.arange(trials)
        peak_values = spectra[rows, peak_rotations]

        off_peak_mask = np.ones((trials, period), dtype=bool)
        off_peak_mask[rows, peak_rotations] = False
        off_peak = spectra[off_peak_mask].reshape(trials, period - 1)
        noise_stds = off_peak.std(axis=1)
        noise_means = off_peak.mean(axis=1)
        second_peaks = off_peak[rows, np.abs(off_peak).argmax(axis=1)]

        abs_peaks = np.abs(peak_values)
        with np.errstate(divide="ignore", invalid="ignore"):
            z_scores = (abs_peaks - np.abs(noise_means)) / noise_stds
        z_scores = np.where(
            noise_stds == 0.0,
            np.where(abs_peaks > 0, np.inf, 0.0),
            z_scores,
        )
        unique = (abs_peaks > 0) & (
            np.abs(second_peaks) <= self.config.uniqueness_margin * abs_peaks
        )
        threshold = self.config.detection_threshold
        detected = (z_scores >= threshold) & unique & (peak_values > 0)
        return BatchCPAResult(
            correlations=spectra,
            peak_rotations=peak_rotations.astype(np.int64),
            peak_correlations=peak_values,
            noise_floor_stds=noise_stds,
            second_peak_correlations=second_peaks,
            z_scores=z_scores,
            detected=detected,
            threshold=threshold,
        )
