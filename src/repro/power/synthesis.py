"""Vectorized trace synthesis: watermarked power traces as array operations.

Stepping every block once per clock cycle in Python would make trace
*generation* the dominant cost of 100k--300k-cycle acquisitions now that
detection is batched (:mod:`repro.detection.batch`).  The watermark
circuits are strictly periodic, so their per-cycle behaviour is fully
characterised by one period of closed-form activity
(:meth:`repro.core.architectures.WatermarkArchitecture.periodic_activity`);
everything past that period is pure indexing.

This module is the generation-side counterpart of the batched detector.
It stacks three layers:

1. **Closed-form sequences** -- :func:`repro.core.lfsr.galois_sequence_bits`
   produces watermark sequences without a per-bit Python loop (cached per
   generator configuration).
2. **Periodic templates** -- :class:`PeriodicPowerTemplate` holds one period
   of a per-cycle power trace and extends it to arbitrary acquisition
   lengths (including trigger-phase rotations) with slice copies.
3. **Trial synthesis** -- :class:`TraceSynthesizer` draws Monte-Carlo
   trials of the statistical measurement model ``Y = base + a * X(rotated)
   + N(0, sigma)`` as their phase folds and energies, the only statistics
   :meth:`repro.detection.batch.BatchCPADetector.detect_many` reads, with
   O(period) work per trial and no per-cycle row.

The first two layers are bit-identical to stepping cycle by cycle: the
test suite keeps the cycle-stepping model as its oracle
(``tests/rtl_oracle.py``, compared in ``tests/test_power_synthesis.py`` and
``tests/test_closed_form_activity.py``).  The trial folds equal the
per-cycle trial rows in distribution; ``tests/trial_oracle.py`` keeps the
row stream they replace, checked in ``tests/test_trial_folds.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence, Union

import numpy as np

from repro.power.trace import PowerTrace

if TYPE_CHECKING:  # circular at runtime: repro.detection imports this module
    from repro.detection.batch import PhaseFold


def _fill_cyclic(out: np.ndarray, template: np.ndarray, start: int) -> None:
    """Set ``out[j] = template[(start + j) % len(template)]`` by slice copies.

    The template's tail from ``start`` goes first; the rest begins at phase
    zero, so after one period is in place every further copy doubles the
    whole periods already written.
    """
    period = len(template)
    start %= period
    head = min(period - start, len(out))
    out[:head] = template[start : start + head]
    rest = out[head:]
    filled = min(period, len(rest))
    rest[:filled] = template[:filled]
    while filled < len(rest):
        step = min(filled, len(rest) - filled)
        rest[filled : filled + step] = rest[:step]
        filled += step


def periodic_extend(
    template: np.ndarray, num_cycles: int, phase_offset: int = 0
) -> np.ndarray:
    """Extend one period of values to ``num_cycles`` with an optional rotation.

    Bit-identical to
    ``np.roll(np.tile(template, reps)[:num_cycles], -phase_offset)``
    (the tile-then-roll idiom of the measurement chain: the acquisition is
    truncated to ``num_cycles`` first, then rotated, so the wraparound
    splices the truncated tail to the front) without materialising the
    tiled array or the roll copy: the output is filled from slices of the
    template.
    """
    template = np.asarray(template)
    if len(template) == 0:
        raise ValueError("cannot extend an empty template")
    if num_cycles <= 0:
        raise ValueError("num_cycles must be positive")
    out = np.empty(num_cycles, dtype=template.dtype)
    # Cycle j < split reads the tiled acquisition at j + offset; the cycles
    # from split on read its start again.
    split = num_cycles - int(phase_offset) % num_cycles
    _fill_cyclic(out[:split], template, num_cycles - split)
    _fill_cyclic(out[split:], template, 0)
    return out


def rolled_blocks(template: np.ndarray, shifts: np.ndarray, num_cycles: int) -> np.ndarray:
    """Blocks of ``template``, block ``r`` rolled by ``shifts[r]``, truncated.

    Bit-identical to
    ``np.concatenate([np.roll(template, s) for s in shifts])[:num_cycles]``
    (the gather ``template[(arange(window) - s) % window]`` per block),
    with two slice copies per block.  ``shifts`` must cover ``num_cycles``.
    """
    template = np.asarray(template)
    window = len(template)
    if window * len(shifts) < num_cycles:
        raise ValueError("the shifted blocks do not cover num_cycles")
    out = np.empty(num_cycles, dtype=template.dtype)
    for block, shift in enumerate(shifts):
        _fill_cyclic(out[block * window : (block + 1) * window], template, -int(shift))
    return out


@dataclass
class PeriodicPowerTemplate:
    """One period of a strictly periodic per-cycle power trace.

    The watermark circuits repeat exactly with the sequence period, so
    the exact activity of one period fully characterises their power;
    acquisitions of any length are then produced by slice-copy extension
    instead of further simulation.
    """

    name: str
    power_w: np.ndarray

    def __post_init__(self) -> None:
        # Copy (np.array, not np.asarray) so freezing never flips the
        # writeable flag on a caller's aliased array, then serve the one
        # period read-only: templates are shared across every synthesized
        # acquisition and a silent in-place edit would corrupt all of them.
        self.power_w = np.array(self.power_w, dtype=np.float64)
        self.power_w.flags.writeable = False
        if self.power_w.ndim != 1 or len(self.power_w) == 0:
            raise ValueError("a periodic template must be a non-empty 1-D array")

    @classmethod
    def from_power_trace(cls, trace: PowerTrace) -> "PeriodicPowerTemplate":
        """Wrap a one-period power trace as a template."""
        return cls(name=trace.name, power_w=trace.power_w)

    def extend(self, num_cycles: int, phase_offset: int = 0) -> PowerTrace:
        """The template tiled to ``num_cycles`` and rotated by ``phase_offset``.

        ``phase_offset`` models the oscilloscope trigger not being aligned
        with the watermark phase; the semantics match
        ``np.roll(tiled, -phase_offset)`` on the truncated acquisition.
        """
        return PowerTrace(
            name=self.name, power_w=periodic_extend(self.power_w, num_cycles, phase_offset)
        )


def _per_row(
    values: Union[None, float, Sequence[float], np.ndarray],
    default: float,
    trials: int,
    label: str,
) -> np.ndarray:
    """Broadcast a scalar-or-sequence parameter to one value per trial row."""
    if values is None:
        values = default
    array = np.asarray(values, dtype=np.float64)
    if array.ndim == 0:
        return np.full(trials, float(array))
    if array.shape != (trials,):
        raise ValueError(f"{label} must be a scalar or one value per trial row")
    return array


class TraceSynthesizer:
    """Draws Monte-Carlo trials of the measurement model, vectorised.

    The statistical measurement model of the detection-probability campaign
    and the masking sweeps: ``Y = base + amplitude * X(rotated) + N(0,
    sigma)``.  :meth:`trial_folds` draws the trials' phase folds for
    :meth:`repro.detection.batch.BatchCPADetector.detect_many`.
    """

    def __init__(
        self,
        sequence: np.ndarray,
        watermark_amplitude_w: float,
        noise_sigma_w: float,
        base_power_w: float = 5e-3,
    ) -> None:
        self.sequence = np.asarray(sequence, dtype=np.float64)
        if self.sequence.ndim != 1 or len(self.sequence) == 0:
            raise ValueError("the watermark sequence must be a non-empty 1-D array")
        if watermark_amplitude_w < 0 or noise_sigma_w < 0:
            raise ValueError("amplitude and noise must be non-negative")
        self.watermark_amplitude_w = float(watermark_amplitude_w)
        self.noise_sigma_w = float(noise_sigma_w)
        self.base_power_w = float(base_power_w)

    @property
    def period(self) -> int:
        """Period of the watermark sequence."""
        return len(self.sequence)

    def trial_folds(
        self,
        trials: int,
        num_cycles: int,
        rng: np.random.Generator,
        noise_sigmas: Union[None, float, Sequence[float]] = None,
        enable_duties: Union[None, float, Sequence[float]] = None,
    ) -> "PhaseFold":
        """Draw ``trials`` rows of the measurement model as the detector reads them.

        Returns the :class:`~repro.detection.batch.PhaseFold` (per-phase sums
        and ``row @ row``) of ``trials`` rows ``base + a * gate * X(rotated)
        + N(0, sigma^2)``, one per trial: equal to them in distribution, not
        bit for bit, and drawn with O(period) work per trial instead of
        O(num_cycles).  ``noise_sigmas`` and ``enable_duties`` are scalars
        or one value per trial; every trial has the synthesizer's amplitude
        ``a``.

        Each trial has a uniform phase offset ``o``.  Phase ``k`` covers
        ``c_k`` of the ``num_cycles`` cycles and carries the signal ``s_k =
        base + a * x[(k + o) mod P]``.  A starvation gate of duty ``d`` (the
        host's clock-gate control being high that fraction of the time)
        leaves the watermark on for ``m_k ~ Binomial(c_k, d)`` of them and
        off (power ``base``) for the other ``u_k = c_k - m_k``; without a
        gate (``d = 1``) ``m_k = c_k``.  The noise sums of the two groups
        are ``G_k = sigma sqrt(m_k) z_k ~ N(0, sigma^2 m_k)`` and ``U_k =
        sigma sqrt(u_k) w_k ~ N(0, sigma^2 u_k)``, and the rest of the noise
        energy is ``sigma^2`` times a chi-square with ``dof = sum(max(m_k -
        1, 0) + max(u_k - 1, 0))`` degrees of freedom.  The generator draws,
        for all trials at once and in this order:

        * the offsets ``o``: ``integers(0, P, trials)``;
        * ``m`` of the gated trials (``d < 1``): ``binomial(c, d)``;
        * ``z`` of every trial: ``standard_normal((trials, P))``;
        * ``w`` of the gated trials: ``standard_normal((gated, P))``;
        * the chi-square: ``2 * standard_gamma(dof / 2)``.

        A row's statistics are ``folded = u base + m s + G + U`` and
        ``sum_yy = sum(u base^2 + m s^2) + 2 sum(s G + base U) + sum(G^2 / m
        + U^2 / u) + sigma^2 chi2``, where an empty group (``m_k = 0`` or
        ``u_k = 0``) contributes nothing.
        """
        from repro.detection.batch import PhaseFold  # at call time: the import is circular

        period = self.period
        if trials <= 0:
            raise ValueError("trials must be positive")
        if num_cycles < period:
            raise ValueError(
                f"acquisitions must cover at least one sequence period ({num_cycles} < {period})"
            )
        sigmas = _per_row(noise_sigmas, self.noise_sigma_w, trials, "noise_sigmas")[:, None]
        duties = _per_row(enable_duties, 1.0, trials, "enable_duties")[:, None]
        if np.any(sigmas < 0):
            raise ValueError("noise sigmas must be non-negative")
        if np.any((duties < 0) | (duties > 1)):
            raise ValueError("enable duties must be within [0, 1]")
        counts = np.full(period, num_cycles // period, dtype=np.int64)
        counts[: num_cycles % period] += 1
        gated = duties[:, 0] < 1.0

        offsets = rng.integers(0, period, size=trials)
        on = np.tile(counts.astype(np.float64), (trials, 1))
        on[gated] = rng.binomial(counts, duties[gated])
        z = rng.standard_normal((trials, period))
        w = rng.standard_normal((np.count_nonzero(gated), period))
        off = counts - on[gated]
        dof = num_cycles - np.count_nonzero(on, axis=1)
        dof[gated] -= np.count_nonzero(off, axis=1)
        chi2 = 2.0 * rng.standard_gamma(dof / 2.0)

        # The watermark-on group: every cycle of an ungated trial.
        base = self.base_power_w
        rotated = self.sequence.take(np.arange(period) + offsets[:, None], mode="wrap")
        signal = base + self.watermark_amplitude_w * rotated
        on_noise = sigmas * np.sqrt(on) * z
        folded = on * signal + on_noise
        energy = on * signal * signal + 2.0 * signal * on_noise
        # G^2 / m = sigma^2 z^2 where m > 0; an empty group adds nothing.
        unit_energy = np.where(on > 0, z * z, 0.0).sum(axis=1) + chi2
        # The watermark-off group of the gated trials.
        off_noise = sigmas[gated] * np.sqrt(off) * w
        folded[gated] += off * base + off_noise
        energy[gated] += off * (base * base) + 2.0 * base * off_noise
        unit_energy[gated] += np.where(off > 0, w * w, 0.0).sum(axis=1)
        sum_yy = energy.sum(axis=1) + sigmas[:, 0] ** 2 * unit_energy
        return PhaseFold(folded, sum_yy, num_cycles)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TraceSynthesizer(period={self.period})"
