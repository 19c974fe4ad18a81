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
   lengths (including trigger-phase rotations) with a modular-index gather.
3. **Trial synthesis** -- :class:`TraceSynthesizer` emits trial rows of
   the statistical measurement model ``Y = base + a * X(rotated) +
   N(0, sigma)`` one at a time through a reused buffer, straight into
   :meth:`repro.detection.batch.BatchCPADetector.detect_many`.

Every path here is bit-identical to stepping cycle by cycle: the test
suite keeps the cycle-stepping model as its oracle (``tests/rtl_oracle.py``,
compared in ``tests/test_power_synthesis.py`` and
``tests/test_closed_form_activity.py``), so experiments keep their numbers
while the generation side runs orders of magnitude faster.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Sequence, Union

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.power.trace import PowerTrace
from repro.rtl.signals import Clock


def periodic_extend(
    template: np.ndarray, num_cycles: int, phase_offset: int = 0
) -> np.ndarray:
    """Extend one period of values to ``num_cycles`` with an optional rotation.

    Bit-identical to
    ``np.roll(np.tile(template, reps)[:num_cycles], -phase_offset)``
    (the tile-then-roll idiom of the measurement chain: the acquisition is
    truncated to ``num_cycles`` first, then rotated, so the wraparound
    splices the truncated tail to the front) without materialising the
    tiled array or the roll copy.
    """
    template = np.asarray(template)
    period = len(template)
    if period == 0:
        raise ValueError("cannot extend an empty template")
    if num_cycles <= 0:
        raise ValueError("num_cycles must be positive")
    index = np.arange(num_cycles, dtype=np.int64)
    if phase_offset:
        index += int(phase_offset)
        index %= num_cycles
    index %= period
    return template[index]


def _periodic_windows(template: np.ndarray, num_cycles: int) -> np.ndarray:
    """All ``period`` phase-shifted windows of a periodic template, as a view.

    The template is tiled once to ``num_cycles + period - 1`` values;
    ``result[offset]`` is the length-``num_cycles`` window starting at that
    phase offset, without copying until a window is actually gathered.
    """
    template = np.asarray(template)
    if template.ndim != 1 or len(template) == 0:
        raise ValueError("the periodic template must be a non-empty 1-D array")
    period = len(template)
    span = num_cycles + period - 1
    tiled = np.tile(template, -(-span // period))[:span]
    return sliding_window_view(tiled, num_cycles)


@dataclass
class PeriodicPowerTemplate:
    """One period of a strictly periodic per-cycle power trace.

    The watermark circuits repeat exactly with the sequence period, so
    the exact activity of one period fully characterises their power; acquisitions of any length are then produced by modular-index
    extension instead of further simulation.
    """

    name: str
    clock: Clock
    power_w: np.ndarray
    voltage_v: float = 1.2

    def __post_init__(self) -> None:
        # Copy (np.array, not np.asarray) so freezing never flips the
        # writeable flag on a caller's aliased array, then serve the one
        # period read-only: templates are shared across every synthesized
        # acquisition and a silent in-place edit would corrupt all of them.
        self.power_w = np.array(self.power_w, dtype=np.float64)
        self.power_w.flags.writeable = False
        if self.power_w.ndim != 1 or len(self.power_w) == 0:
            raise ValueError("a periodic template must be a non-empty 1-D array")
        if self.voltage_v <= 0:
            raise ValueError("supply voltage must be positive")

    @classmethod
    def from_power_trace(cls, trace: PowerTrace) -> "PeriodicPowerTemplate":
        """Wrap a one-period power trace as a template."""
        return cls(
            name=trace.name,
            clock=trace.clock,
            power_w=trace.power_w,
            voltage_v=trace.voltage_v,
        )

    @property
    def period(self) -> int:
        """Template length in cycles."""
        return len(self.power_w)

    def extend(self, num_cycles: int, phase_offset: int = 0) -> PowerTrace:
        """The template tiled to ``num_cycles`` and rotated by ``phase_offset``.

        ``phase_offset`` models the oscilloscope trigger not being aligned
        with the watermark phase; the semantics match
        ``np.roll(tiled, -phase_offset)`` on the truncated acquisition.
        """
        return PowerTrace(
            name=self.name,
            clock=self.clock,
            power_w=periodic_extend(self.power_w, num_cycles, phase_offset),
            voltage_v=self.voltage_v,
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
    """Synthesizes Monte-Carlo trial rows of the measurement model, vectorised.

    :meth:`from_sequence` builds the statistical measurement model used by
    the detection-probability campaign and the masking sweeps:
    ``Y = base + amplitude * X(rotated) + N(0, sigma)``.  Trial rows stream
    straight into :meth:`repro.detection.batch.BatchCPADetector.detect_many`.
    """

    def __init__(
        self,
        sequence: np.ndarray,
        watermark_amplitude_w: float = 1.0,
        noise_sigma_w: float = 0.0,
        base_power_w: float = 0.0,
    ) -> None:
        self.sequence = np.asarray(sequence, dtype=np.float64)
        if self.sequence.ndim != 1 or len(self.sequence) == 0:
            raise ValueError("the watermark sequence must be a non-empty 1-D array")
        if watermark_amplitude_w < 0 or noise_sigma_w < 0:
            raise ValueError("amplitude and noise must be non-negative")
        self.watermark_amplitude_w = float(watermark_amplitude_w)
        self.noise_sigma_w = float(noise_sigma_w)
        self.base_power_w = float(base_power_w)

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_sequence(
        cls,
        sequence: np.ndarray,
        watermark_amplitude_w: float,
        noise_sigma_w: float,
        base_power_w: float = 5e-3,
    ) -> "TraceSynthesizer":
        """Synthesizer for the statistical measurement model."""
        return cls(
            sequence,
            watermark_amplitude_w=watermark_amplitude_w,
            noise_sigma_w=noise_sigma_w,
            base_power_w=base_power_w,
        )

    # -- synthesis ----------------------------------------------------------

    @property
    def period(self) -> int:
        """Period of the watermark sequence."""
        return len(self.sequence)

    def trial_rows(
        self,
        trials: int,
        num_cycles: int,
        rng: np.random.Generator,
        noise_sigmas: Union[None, float, Sequence[float]] = None,
        enable_duties: Union[None, float, Sequence[float]] = None,
        amplitudes: Union[None, float, Sequence[float]] = None,
    ) -> Iterator[np.ndarray]:
        """Yield ``trials`` rows of the measurement model, one at a time.

        Each trial draws a uniform phase offset, optionally a starvation
        gate (``enable_duties`` below 1 model the host clock-gate control
        being low part of the time) and its Gaussian noise row -- in
        exactly the order a per-trial loop would draw them, so a given seed
        stream produces the same rows as the pre-vectorised drivers.

        Every row is written into one reused ``num_cycles`` buffer: consume
        (or copy) a row before asking for the next.  The watermark is a
        strided window of one pre-scaled periodic buffer added in place.
        Arguments are validated when this is called, not at the first row.

        The noise stays per cycle.  Unlike the Fig. 6 repetitions
        (:meth:`repro.measurement.AcquisitionCampaign.measure_folded`),
        these rows share no signal template: each has its own random phase
        offset, and a gated row its own random gate, so a row's phase fold
        cannot be drawn from one fold of a shared trace.
        """
        if trials <= 0:
            raise ValueError("trials must be positive")
        if num_cycles <= 0:
            raise ValueError("num_cycles must be positive")
        sigmas = _per_row(noise_sigmas, self.noise_sigma_w, trials, "noise_sigmas")
        amps = _per_row(amplitudes, self.watermark_amplitude_w, trials, "amplitudes")
        duties = _per_row(enable_duties, 1.0, trials, "enable_duties")
        # Rows without a starvation gate add a window of one pre-scaled
        # template (base + amplitude * X) straight into their noise row;
        # scaling the period-long template once is bit-identical to scaling
        # every gathered element.  Gated or per-row-amplitude rows need the
        # raw sequence because the gate applies before the amplitude.
        scaled_windows: Optional[np.ndarray] = None
        if np.all(amps == amps[0]):
            scaled_windows = _periodic_windows(
                self.base_power_w + self.sequence * amps[0], num_cycles
            )

        def rows() -> Iterator[np.ndarray]:
            raw_windows: Optional[np.ndarray] = None
            row = np.empty(num_cycles, dtype=np.float64)
            # repro-lint: allow[HOT001] per-row draw order: replays the pre-batching per-trial random stream bit-for-bit; each row's work is vectorized
            for index in range(trials):
                offset = rng.integers(0, self.period)
                gate = None
                if duties[index] < 1.0:
                    gate = rng.random(num_cycles) < duties[index]
                row[:] = rng.normal(0.0, sigmas[index], num_cycles)
                if gate is None and scaled_windows is not None:
                    row += scaled_windows[offset]
                else:
                    if raw_windows is None:
                        raw_windows = _periodic_windows(self.sequence, num_cycles)
                    watermark = raw_windows[offset].copy()
                    if gate is not None:
                        watermark *= gate
                    watermark *= amps[index]
                    watermark += self.base_power_w
                    row += watermark
                yield row

        return rows()

    def detect_trials(
        self,
        detector,
        trials: int,
        num_cycles: int,
        rng: np.random.Generator,
        **trial_kwargs,
    ):
        """Stream :meth:`trial_rows` through a batched detector.

        ``detector`` is a :class:`repro.detection.batch.BatchCPADetector`
        (duck-typed to keep this package free of detection imports);
        returns its :class:`BatchCPAResult`.  No trials x cycles matrix is
        ever held.
        """
        rows = self.trial_rows(trials, num_cycles, rng, **trial_kwargs)
        return detector.detect_many(self.sequence, rows)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TraceSynthesizer(period={self.period})"
