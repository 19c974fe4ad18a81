"""Per-cycle references the library no longer runs (test oracles).

* :func:`trial_rows` draws Monte-Carlo trial rows of the measurement model
  cycle by cycle, one row at a time through a reused buffer.  It is what
  :meth:`repro.power.synthesis.TraceSynthesizer.trial_folds` replaced and
  is checked against in distribution (``tests/test_trial_folds.py``);
  :func:`trial_matrix` stacks its rows.
* :func:`fold_rows` folds a stream of per-cycle rows into the
  :class:`~repro.detection.batch.PhaseFold` the detector reads, one row at
  a time, so a row stream of any length can be detected (the detector
  itself takes arrays or folds, not row iterators).
* :func:`pearson_correlation` and :func:`naive_rotation_correlations` are
  the literal CPA definition -- equation (1) of the paper, re-evaluated for
  every rotation -- that the library's FFT engine is validated against.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

from repro.detection.batch import PhaseFold


def _per_row(values, default, trials, label):
    if values is None:
        values = default
    array = np.asarray(values, dtype=np.float64)
    if array.ndim == 0:
        return np.full(trials, float(array))
    if array.shape != (trials,):
        raise ValueError(f"{label} must be a scalar or one value per trial row")
    return array


def trial_rows(
    synthesizer,
    trials: int,
    num_cycles: int,
    rng: np.random.Generator,
    noise_sigmas=None,
    enable_duties=None,
    amplitudes=None,
) -> Iterator[np.ndarray]:
    """Yield ``trials`` per-cycle rows of ``synthesizer``'s measurement model.

    Each trial draws a uniform phase offset, then (for an enable duty below
    1) a per-cycle starvation gate, then its Gaussian noise row.  Row ``i``
    is ``base + a * gate * x[(i + offset) mod P] + noise``.  Every row is
    written into one reused buffer: consume (or copy) a row before asking
    for the next.
    """
    if trials <= 0:
        raise ValueError("trials must be positive")
    if num_cycles <= 0:
        raise ValueError("num_cycles must be positive")
    sigmas = _per_row(noise_sigmas, synthesizer.noise_sigma_w, trials, "noise_sigmas")
    amps = _per_row(amplitudes, synthesizer.watermark_amplitude_w, trials, "amplitudes")
    duties = _per_row(enable_duties, 1.0, trials, "enable_duties")
    sequence = synthesizer.sequence
    period = len(sequence)
    cycles = np.arange(num_cycles)

    def rows() -> Iterator[np.ndarray]:
        row = np.empty(num_cycles, dtype=np.float64)
        for index in range(trials):
            offset = rng.integers(0, period)
            watermark = sequence[(cycles + offset) % period]
            if duties[index] < 1.0:
                watermark = watermark * (rng.random(num_cycles) < duties[index])
            row[:] = rng.normal(0.0, sigmas[index], num_cycles)
            row += synthesizer.base_power_w + amps[index] * watermark
            yield row

    return rows()


def trial_matrix(synthesizer, trials, num_cycles, rng, **trial_kwargs) -> np.ndarray:
    """The :func:`trial_rows` stacked into a ``trials x num_cycles`` matrix."""
    matrix = np.empty((trials, num_cycles), dtype=np.float64)
    for index, row in enumerate(trial_rows(synthesizer, trials, num_cycles, rng, **trial_kwargs)):
        matrix[index] = row
    return matrix


def fold_rows(rows: Iterable[np.ndarray], period: int) -> PhaseFold:
    """Fold equal-length rows into their :class:`PhaseFold`, one row at a time.

    Each row is done with before the next one is read, so it may live in a
    buffer the producer reuses.  The sums round as the library's fold of a
    trace matrix does (the energy in einsum's fixed order, not a threaded
    BLAS dot), so the two folds are bit-identical.
    """
    folds, energies = [], []
    for row in rows:
        full = len(row) - len(row) % period
        fold = row[:full].reshape(-1, period).sum(axis=0)
        fold[: len(row) - full] += row[full:]
        folds.append(fold)
        energies.append(np.einsum("i,i->", row, row))
    return PhaseFold(np.array(folds), np.array(energies), len(row))


def pearson_correlation(x: np.ndarray, y: np.ndarray) -> float:
    """Pearson correlation coefficient of two equal-length vectors.

    Equation (1) of the paper.  Returns 0.0 when either vector has zero
    variance (no relationship can be established).
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape:
        raise ValueError(f"vectors must have equal length, got {x.shape} and {y.shape}")
    n = len(x)
    if n == 0:
        raise ValueError("vectors must be non-empty")
    sum_x = x.sum()
    sum_y = y.sum()
    var_x = n * float(x @ x) - sum_x * sum_x
    var_y = n * float(y @ y) - sum_y * sum_y
    if var_x <= 0 or var_y <= 0:
        return 0.0
    return float((n * float(x @ y) - sum_x * sum_y) / np.sqrt(var_x) / np.sqrt(var_y))


def naive_rotation_correlations(sequence: np.ndarray, measured: np.ndarray) -> np.ndarray:
    """The correlation of ``measured`` with every rotation of the tiled sequence.

    Rotation ``r`` correlates against ``x[(i + r) mod P]`` at cycle ``i``.
    """
    sequence = np.asarray(sequence, dtype=np.float64)
    measured = np.asarray(measured, dtype=np.float64)
    cycles = np.arange(len(measured))
    period = len(sequence)
    return np.array(
        [
            pearson_correlation(sequence[(cycles + rotation) % period], measured)
            for rotation in range(period)
        ]
    )
