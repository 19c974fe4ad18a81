"""Declarative scenario specifications.

A :class:`ScenarioSpec` is a frozen, JSON-serializable description of one
experiment cell: which chip, which watermark configuration, the
measurement/noise bench, the detection parameters and the seed.  The
pipeline runner (:mod:`repro.pipeline.runner`) resolves a spec into chip →
acquisition → synthesis → detection stages; nothing in a spec is
executable, so specs can be hashed, diffed, stored next to result
artifacts and replayed on another machine.

``spec_hash`` is a content hash of the canonical JSON form (sorted keys,
no whitespace), so it is stable across processes and Python versions --
it is the provenance stamp connecting a result artifact back to the exact
scenario that produced it.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
from dataclasses import dataclass, field, replace
from typing import Any, Dict, Mapping, Optional, Tuple, Union

from repro.core.config import DetectionConfig, MeasurementConfig, WatermarkConfig

#: Scenario kinds the pipeline knows how to resolve into stages.  Each kind
#: names one experiment family; kind-specific knobs go into ``params``.
SCENARIO_KINDS: Tuple[str, ...] = (
    "fig2",
    "fig3",
    "fig5_panel",
    "fig5",
    "fig6_chip",
    "fig6",
    "table1",
    "table2",
    "robustness",
    "detection_probability",
    "masking_noise",
    "masking_starvation",
)

#: Schema version of the spec's JSON form.  Part of the result store's
#: code-version salt (:func:`repro.pipeline.store.code_version_salt`): a
#: schema bump invalidates memoized results whose spec serialization
#: changed meaning.
SPEC_SCHEMA_VERSION = 10


#: Instance attribute holding a spec's memoised :meth:`ScenarioSpec.spec_hash`.
_SPEC_HASH_MEMO = "_spec_hash"

#: Marker distinguishing a frozen mapping from a frozen list in ``params``.
_MAPPING_TAG = "__mapping__"


def _freeze_params(params: Mapping[str, Any]) -> Tuple[Tuple[str, Any], ...]:
    """Normalise kind-specific params into a hashable, ordered tuple."""

    def freeze_value(value: Any) -> Any:
        if isinstance(value, Mapping):
            return (
                _MAPPING_TAG,
                tuple(sorted((str(k), freeze_value(v)) for k, v in value.items())),
            )
        if isinstance(value, (list, tuple)):
            return tuple(freeze_value(item) for item in value)
        if value is None or isinstance(value, (bool, int, float, str)):
            return value
        raise TypeError(
            f"scenario params must be JSON-able scalars/lists/mappings, got {type(value).__name__}"
        )

    return tuple(sorted((str(key), freeze_value(value)) for key, value in params.items()))


def _thaw(value: Any) -> Any:
    """Turn frozen param values back into JSON-friendly dicts/lists."""
    if isinstance(value, tuple):
        if len(value) == 2 and value[0] == _MAPPING_TAG and isinstance(value[1], tuple):
            return {key: _thaw(item) for key, item in value[1]}
        return [_thaw(item) for item in value]
    return value


@dataclass(frozen=True)
class ScenarioSpec:
    """One declarative experiment cell.

    ``kind`` selects the stage graph; ``chip`` names one of the paper's two
    chips, ``"chip1"`` or ``"chip2"`` (or ``None`` for chip-less analyses
    such as Table II); ``params``
    carries kind-specific knobs as a frozen key/value tuple (pass a plain
    dict, it is normalised in ``__post_init__``).
    """

    kind: str
    name: str = ""
    chip: Optional[str] = None
    watermark: WatermarkConfig = field(default_factory=WatermarkConfig)
    measurement: MeasurementConfig = field(default_factory=MeasurementConfig)
    detection: DetectionConfig = field(default_factory=DetectionConfig)
    watermark_active: bool = True
    seed: int = 0
    repetitions: int = 1
    params: Any = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in SCENARIO_KINDS:
            raise ValueError(
                f"unknown scenario kind {self.kind!r}; expected one of {sorted(SCENARIO_KINDS)}"
            )
        from repro.soc.chip import CHIP_BUILDERS

        if self.chip is not None and self.chip not in CHIP_BUILDERS:
            raise ValueError(
                f"unknown chip name {self.chip!r}; expected one of {sorted(CHIP_BUILDERS)}"
            )
        if self.repetitions <= 0:
            raise ValueError("repetitions must be positive")
        if not isinstance(self.params, tuple):
            object.__setattr__(self, "params", _freeze_params(dict(self.params)))

    # -- convenience accessors -------------------------------------------------

    def param(self, key: str, default: Any = None) -> Any:
        """Look up one kind-specific parameter."""
        for name, value in self.params:
            if name == key:
                return _thaw(value)
        return default

    def params_dict(self) -> Dict[str, Any]:
        """Kind-specific params as a plain dict."""
        return {name: _thaw(value) for name, value in self.params}

    def with_overrides(self, **changes: Any) -> "ScenarioSpec":
        """A copy with the given fields replaced (specs are immutable)."""
        return replace(self, **changes)

    # -- grid axis helpers -----------------------------------------------------
    #
    # One method per sweep axis the SpecGrid builders vary, so a cartesian
    # grid is a chain of copies instead of hand-built dataclasses.replace
    # calls reaching into nested configs.

    def with_name(self, name: str) -> "ScenarioSpec":
        """A copy renamed (grid cells get unique, axis-qualified names)."""
        return replace(self, name=name)

    def with_seed(self, seed: int) -> "ScenarioSpec":
        """A copy at another seed."""
        return replace(self, seed=seed)

    def with_chip(self, chip: str) -> "ScenarioSpec":
        """A copy targeting another chip."""
        return replace(self, chip=chip)

    def with_num_cycles(self, num_cycles: int) -> "ScenarioSpec":
        """A copy at another acquisition length (cycles per correlation)."""
        if num_cycles <= 0:
            raise ValueError("num_cycles must be positive")
        return replace(
            self, measurement=replace(self.measurement, num_cycles=num_cycles)
        )

    def with_noise_scale(self, scale: float) -> "ScenarioSpec":
        """A copy with every measurement-noise knob scaled by ``scale``.

        Scales the probe noise and both transient-noise terms together, so
        ``scale=0`` is a noiseless bench and ``scale=2`` doubles every
        noise contribution -- the masking/robustness sweep axis.
        """
        if scale < 0:
            raise ValueError("noise scale must be non-negative")
        measurement = self.measurement
        return replace(
            self,
            measurement=replace(
                measurement,
                probe_noise_rms_v=measurement.probe_noise_rms_v * scale,
                transient_noise_floor_w=measurement.transient_noise_floor_w * scale,
                transient_noise_fraction=measurement.transient_noise_fraction * scale,
            ),
        )

    # -- serialization ---------------------------------------------------------

    def to_json_dict(self) -> Dict[str, Any]:
        """Nested JSON-able representation (round-trips via :meth:`from_json_dict`)."""
        return {
            "schema_version": SPEC_SCHEMA_VERSION,
            "kind": self.kind,
            "name": self.name,
            "chip": self.chip,
            "watermark": self.watermark.to_dict(),
            "measurement": self.measurement.to_dict(),
            "detection": self.detection.to_dict(),
            "watermark_active": self.watermark_active,
            "seed": self.seed,
            "repetitions": self.repetitions,
            "params": self.params_dict(),
        }

    @classmethod
    def from_json_dict(cls, payload: Mapping[str, Any]) -> "ScenarioSpec":
        """Rebuild a spec from :meth:`to_json_dict` output."""
        payload = dict(payload)
        version = payload.pop("schema_version", SPEC_SCHEMA_VERSION)
        if version != SPEC_SCHEMA_VERSION:
            raise ValueError(f"unsupported spec schema version {version!r}")
        known = {
            "kind", "name", "chip", "watermark", "measurement",
            "detection", "watermark_active", "seed", "repetitions", "params",
        }
        unknown = set(payload) - known
        if unknown:
            raise ValueError(f"unknown ScenarioSpec fields: {sorted(unknown)}")
        if "kind" not in payload:
            raise ValueError(
                "spec is missing the required 'kind' field; "
                f"expected one of {sorted(SCENARIO_KINDS)}"
            )
        return cls(
            kind=payload["kind"],
            name=payload.get("name", ""),
            chip=payload.get("chip"),
            watermark=WatermarkConfig.from_dict(payload.get("watermark", {})),
            measurement=MeasurementConfig.from_dict(payload.get("measurement", {})),
            detection=DetectionConfig.from_dict(payload.get("detection", {})),
            watermark_active=payload.get("watermark_active", True),
            seed=payload.get("seed", 0),
            repetitions=payload.get("repetitions", 1),
            params=payload.get("params", {}),
        )

    def to_json(self, indent: Optional[int] = 2) -> str:
        """JSON text form."""
        return json.dumps(self.to_json_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        """Rebuild a spec from :meth:`to_json` output."""
        return cls.from_json_dict(json.loads(text))

    def save(self, path: Union[str, pathlib.Path]) -> pathlib.Path:
        """Write the spec to a JSON file."""
        path = pathlib.Path(path)
        path.write_text(self.to_json() + "\n")
        return path

    @classmethod
    def load(cls, path: Union[str, pathlib.Path]) -> "ScenarioSpec":
        """Read a spec from a JSON file."""
        return cls.from_json(pathlib.Path(path).read_text())

    # -- identity --------------------------------------------------------------

    def spec_hash(self) -> str:
        """Content hash of the canonical JSON form (process-stable).

        Computed once per instance: a spec is frozen, so the hash is
        memoised in ``__dict__`` (as ``__post_init__`` sets ``params``).
        The memo is no dataclass field, so equality, ``repr`` and the JSON
        form never see it, and :meth:`__getstate__` leaves it out of a
        pickle or copy.
        """
        digest = self.__dict__.get(_SPEC_HASH_MEMO)
        if digest is None:
            canonical = json.dumps(
                self.to_json_dict(), sort_keys=True, separators=(",", ":")
            )
            digest = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
            object.__setattr__(self, _SPEC_HASH_MEMO, digest)
        return digest

    def __hash__(self) -> int:
        return hash(self.spec_hash())

    def __getstate__(self) -> Dict[str, Any]:
        state = dict(self.__dict__)
        state.pop(_SPEC_HASH_MEMO, None)
        return state
