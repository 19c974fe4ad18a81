"""Configuration dataclasses shared by experiments, benches and examples."""

from __future__ import annotations

import enum
from dataclasses import dataclass, fields
from typing import Any, Dict, Optional

#: Acquisition length used by ``--quick`` runs (CLI and registry presets).
QUICK_CYCLES = 60_000
#: Repetition count used by ``--quick`` runs of the Fig. 6 campaign.
QUICK_REPETITIONS = 20
#: Reduced transient-noise knobs of the quick preset: shorter acquisitions
#: need a cleaner bench to keep the correlation peak resolvable.
QUICK_TRANSIENT_NOISE_FLOOR_W = 0.020
QUICK_TRANSIENT_NOISE_FRACTION = 0.4


def _config_to_dict(config: Any) -> Dict[str, Any]:
    """Serialize a configuration dataclass into a JSON-able dict.

    The configs hold only scalars, so a shallow walk over the fields gives
    what ``dataclasses.asdict`` would, without its recursive deep copy.
    """
    return {f.name: getattr(config, f.name) for f in fields(config)}


def _config_from_dict(cls: type, payload: Dict[str, Any]) -> Any:
    """Rebuild a configuration dataclass from :func:`_config_to_dict` output."""
    known = {f.name for f in fields(cls)}
    unknown = set(payload) - known
    if unknown:
        raise ValueError(f"unknown {cls.__name__} fields: {sorted(unknown)}")
    return cls(**payload)


class ArchitectureKind(enum.Enum):
    """The two watermark architectures, as Sec. VI labels them."""

    BASELINE_LOAD_CIRCUIT = "baseline"
    CLOCK_MODULATION = "clock_modulation"


@dataclass(frozen=True)
class WatermarkConfig:
    """Parameters of the watermark circuit.

    Defaults reproduce the paper's test-chip configuration: a 12-bit
    maximum-length LFSR modulating a 1,024-register clock-gated bank
    (32 words x 32 bits), with all registers pre-initialised to zero so no
    data switching occurs.  The chips always carry the clock-modulation
    architecture behind the test chip's WGC; ``load_registers`` sizes the
    baseline load circuit of the Sec. VI comparison.
    """

    lfsr_width: int = 12
    lfsr_seed: int = 0x5A5 & 0xFFF
    num_words: int = 32
    word_width: int = 32
    switching_registers: int = 0
    load_registers: int = 576

    def __post_init__(self) -> None:
        if self.lfsr_width < 2:
            raise ValueError("LFSR width must be at least 2")
        if self.lfsr_seed == 0:
            raise ValueError("LFSR seed must be non-zero")
        if self.num_words <= 0 or self.word_width <= 0:
            raise ValueError("bank dimensions must be positive")
        if self.switching_registers < 0:
            raise ValueError("switching register count must be non-negative")
        if self.switching_registers > self.num_words * self.word_width:
            raise ValueError("more switching registers than registers in the bank")
        if self.load_registers <= 0:
            raise ValueError("load circuit register count must be positive")

    @property
    def sequence_period(self) -> int:
        """Period of the watermark sequence."""
        return (1 << self.lfsr_width) - 1

    def to_dict(self) -> Dict[str, Any]:
        """JSON-able representation."""
        return _config_to_dict(self)

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "WatermarkConfig":
        """Rebuild from :meth:`to_dict` output."""
        return _config_from_dict(cls, payload)


@dataclass(frozen=True)
class MeasurementConfig:
    """The settings of the measurement chain (Section IV of the paper) that vary.

    The bench itself is fixed: an Agilent MSO6032A oscilloscope with a
    1130A differential probe across a 270 mOhm shunt, 8 bits at 500 MS/s
    while the chips run at 10 MHz and 1.2 V, so 50 samples are averaged
    into each per-cycle power value.  Those figures are constants of
    :mod:`repro.measurement.acquisition` (and, for the clock and supply,
    of :mod:`repro.power.estimator`).  What a scenario sets is the
    acquisition length, ``num_cycles`` (300,000 cycles form one correlation
    vector), and the noise knobs that dominate the correlation amplitude:

    ``probe_noise_rms_v``
        Per-sample voltage noise of the probe/front-end.
    ``transient_noise_floor_w`` / ``transient_noise_fraction``
        Residual per-cycle noise equivalent (in watts) of the unsettled
        switching transients that the 50-sample average does not remove.
        The effective per-cycle sigma is
        ``floor + fraction * mean_chip_power`` -- the fraction term models
        the oscilloscope's vertical range being scaled up for a chip that
        draws more current.  These defaults are calibrated so that the
        silicon-measured correlation peaks of Fig. 5 (about 0.015-0.02 on
        chip I and about 0.01-0.015 on chip II) are reproduced (pinned by
        ``benchmarks/test_bench_fig5.py``).
    """

    num_cycles: int = 300_000
    probe_noise_rms_v: float = 2.0e-3
    transient_noise_floor_w: float = 0.040
    transient_noise_fraction: float = 0.75

    def __post_init__(self) -> None:
        if self.num_cycles <= 0:
            raise ValueError("number of cycles must be positive")
        if self.probe_noise_rms_v < 0 or self.transient_noise_floor_w < 0:
            raise ValueError("noise levels must be non-negative")
        if self.transient_noise_fraction < 0:
            raise ValueError("the range-proportional noise fraction must be non-negative")

    @classmethod
    def quick(cls, num_cycles: Optional[int] = None) -> "MeasurementConfig":
        """The ``--quick`` preset: short acquisition, reduced transient noise.

        Shared by the CLI and the scenario registry so a quick run means the
        same bench everywhere.
        """
        return cls(
            num_cycles=QUICK_CYCLES if num_cycles is None else num_cycles,
            transient_noise_floor_w=QUICK_TRANSIENT_NOISE_FLOOR_W,
            transient_noise_fraction=QUICK_TRANSIENT_NOISE_FRACTION,
        )

    @classmethod
    def full(cls, num_cycles: Optional[int] = None) -> "MeasurementConfig":
        """The paper-scale preset, optionally with an overridden length."""
        if num_cycles is None:
            return cls()
        return cls(num_cycles=num_cycles)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-able representation."""
        return _config_to_dict(self)

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "MeasurementConfig":
        """Rebuild from :meth:`to_dict` output."""
        return _config_from_dict(cls, payload)


@dataclass(frozen=True)
class DetectionConfig:
    """Parameters of the CPA detector.

    ``detection_threshold`` is the minimum z-score (peak correlation in
    units of the off-peak standard deviation) for significance;
    ``uniqueness_margin`` enforces the paper's "single resolvable peak"
    requirement: the second-largest |correlation| must stay below this
    fraction of the peak.
    """

    detection_threshold: float = 4.0
    uniqueness_margin: float = 0.95

    def __post_init__(self) -> None:
        if self.detection_threshold <= 0:
            raise ValueError("detection threshold must be positive")
        if not 0.0 < self.uniqueness_margin <= 1.0:
            raise ValueError("uniqueness margin must be in (0, 1]")

    def to_dict(self) -> Dict[str, Any]:
        """JSON-able representation."""
        return _config_to_dict(self)

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "DetectionConfig":
        """Rebuild from :meth:`to_dict` output."""
        return _config_from_dict(cls, payload)
