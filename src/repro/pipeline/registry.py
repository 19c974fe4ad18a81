"""The experiment registry: every paper figure/table as a named scenario.

Each entry maps a stable name (``"fig5"``, ``"fig6/chip1"``, ``"table2"``,
...) to a factory producing a :class:`repro.core.spec.ScenarioSpec` from
:class:`RunOptions` (the CLI's ``--quick``/``--cycles``/``--repetitions``/
``--seed`` knobs).  Adding a scenario is a data change -- declare a spec
factory here -- not a new driver module.

Beyond the paper's grid, the registry also exposes campaign scenarios
(detection-probability curve, masking sweeps) built on the same engines.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Union

from repro.core.config import (
    QUICK_REPETITIONS,
    DetectionConfig,
    MeasurementConfig,
    WatermarkConfig,
)
from repro.core.spec import ScenarioSpec


@dataclass(frozen=True)
class RunOptions:
    """CLI-level knobs applied when a registry entry builds its spec."""

    quick: bool = False
    cycles: Optional[int] = None
    repetitions: Optional[int] = None
    seed: Optional[int] = None

    def measurement(self) -> MeasurementConfig:
        """The measurement preset these options select."""
        if self.quick:
            return MeasurementConfig.quick(self.cycles)
        return MeasurementConfig.full(self.cycles)

    def apply_to(self, spec: ScenarioSpec) -> ScenarioSpec:
        """Apply these options as overrides on an already-built spec.

        Registry factories consume options natively; specs loaded from
        ``.json`` files get the explicitly passed options applied on top:
        ``seed``/``repetitions`` replace the spec's values, ``quick``
        replaces its measurement bench with the quick preset, and a bare
        ``cycles`` rewrites only the acquisition length while keeping the
        spec's other bench fields.  Returns ``spec`` itself when nothing
        was overridden, so untouched specs keep their identity (and hash).
        """
        changes = {}
        if self.seed is not None:
            changes["seed"] = self.seed
        if self.repetitions is not None:
            changes["repetitions"] = self.repetitions
        if self.quick:
            changes["measurement"] = self.measurement()
        elif self.cycles is not None:
            changes["measurement"] = replace(
                spec.measurement, num_cycles=self.cycles
            )
        return spec.with_overrides(**changes) if changes else spec


SpecFactory = Callable[[RunOptions], ScenarioSpec]


@dataclass(frozen=True)
class RegistryEntry:
    """One named scenario: metadata plus its spec factory."""

    name: str
    title: str
    paper_ref: str
    factory: SpecFactory

    def build(self, options: Optional[RunOptions] = None) -> ScenarioSpec:
        """Materialise the spec for the given options."""
        return self.factory(options or RunOptions())


class ExperimentRegistry:
    """Ordered name -> entry mapping with helpful unknown-name errors."""

    def __init__(self) -> None:
        self._entries: Dict[str, RegistryEntry] = {}

    def register(self, entry: RegistryEntry) -> RegistryEntry:
        """Add an entry; names must be unique."""
        if entry.name in self._entries:
            raise ValueError(f"scenario {entry.name!r} is already registered")
        self._entries[entry.name] = entry
        return entry

    def has(self, name: str) -> bool:
        """Whether a scenario of that name exists."""
        return name in self._entries

    def names(self) -> List[str]:
        """Registered names in registration order."""
        return list(self._entries)

    def entries(self) -> List[RegistryEntry]:
        """Registered entries in registration order."""
        return list(self._entries.values())

    def get(self, name: str) -> RegistryEntry:
        """Look up one entry; unknown names list every registered name."""
        try:
            return self._entries[name]
        except KeyError:
            raise KeyError(
                f"unknown scenario {name!r}; registered: {', '.join(self._entries)}"
            ) from None

    def build(self, name: str, options: Optional[RunOptions] = None) -> ScenarioSpec:
        """Materialise the named scenario's spec."""
        return self.get(name).build(options)


@dataclass(frozen=True)
class SpecGrid:
    """Cartesian sweep builder over one base scenario.

    The base is either a name of :data:`DEFAULT_REGISTRY` (materialised
    with ``options``) or an already-resolved :class:`ScenarioSpec`.  :meth:`build` expands it along
    up to four axes -- chips, noise scales, acquisition lengths, seeds --
    into the full cartesian grid of specs, ready for
    ``ExperimentRunner.run_many(..., backend="process")``::

        specs = SpecGrid("fig5/chip1-active", RunOptions(quick=True)).build(
            chips=["chip1", "chip2"], seeds=[1, 2, 3]
        )

    Every cell gets a unique, axis-qualified name
    (``"fig5/chip1-active[chip=chip2,seed=3]"``), so grid sweeps never
    trip :meth:`repro.pipeline.artifacts.SweepResult.get`'s duplicate-name
    guard.  Axes not passed keep the base spec's value; axis order in the
    product is chips → noise → length → seed (outermost to innermost).
    """

    base: Union[str, ScenarioSpec]
    options: RunOptions = field(default_factory=RunOptions)

    def base_spec(self) -> ScenarioSpec:
        """The spec every grid cell derives from."""
        if isinstance(self.base, ScenarioSpec):
            return self.base
        return DEFAULT_REGISTRY.build(self.base, self.options)

    def build(
        self,
        *,
        chips: Optional[Sequence[str]] = None,
        noise_scales: Optional[Sequence[float]] = None,
        lengths: Optional[Sequence[int]] = None,
        seeds: Optional[Sequence[int]] = None,
    ) -> List[ScenarioSpec]:
        """The cartesian product of the given axes as a list of specs."""
        for axis_name, axis in (
            ("chips", chips),
            ("noise_scales", noise_scales),
            ("lengths", lengths),
            ("seeds", seeds),
        ):
            if axis is None:
                continue
            if len(axis) == 0:
                raise ValueError(f"grid axis {axis_name!r} must be non-empty")
            if len(set(axis)) != len(axis):
                raise ValueError(
                    f"grid axis {axis_name!r} contains duplicate values: "
                    f"{list(axis)}"
                )
        base = self.base_spec()
        base_name = base.name or base.kind
        specs: List[ScenarioSpec] = []
        for chip in chips if chips is not None else (None,):
            for scale in noise_scales if noise_scales is not None else (None,):
                for length in lengths if lengths is not None else (None,):
                    for seed in seeds if seeds is not None else (None,):
                        spec = base
                        labels = []
                        if chip is not None:
                            spec = spec.with_chip(chip)
                            labels.append(f"chip={spec.chip}")
                        if scale is not None:
                            spec = spec.with_noise_scale(scale)
                            labels.append(f"noise={scale:g}")
                        if length is not None:
                            spec = spec.with_num_cycles(length)
                            labels.append(f"len={length}")
                        if seed is not None:
                            spec = spec.with_seed(seed)
                            labels.append(f"seed={seed}")
                        if labels:
                            spec = spec.with_name(
                                f"{base_name}[{','.join(labels)}]"
                            )
                        specs.append(spec)
        return specs


DEFAULT_REGISTRY = ExperimentRegistry()


def _register(name: str, title: str, paper_ref: str):
    def decorate(factory: SpecFactory) -> SpecFactory:
        DEFAULT_REGISTRY.register(
            RegistryEntry(name=name, title=title, paper_ref=paper_ref, factory=factory)
        )
        return factory

    return decorate


def _seed(options: RunOptions, default: int) -> int:
    return default if options.seed is None else options.seed


@_register("fig2", "Functional simulation of both watermark architectures", "Fig. 2")
def _fig2(options: RunOptions) -> ScenarioSpec:
    return ScenarioSpec(kind="fig2", name="fig2", seed=_seed(options, 0b1001))


@_register("fig3", "Watermark power deeply embedded in total device power", "Fig. 3")
def _fig3(options: RunOptions) -> ScenarioSpec:
    num_cycles = 4_096
    return ScenarioSpec(
        kind="fig3",
        name="fig3",
        chip="chip1",
        measurement=options.measurement(),
        seed=_seed(options, 7),
        params={"num_cycles": num_cycles},
    )


def _fig5_spec(options: RunOptions) -> ScenarioSpec:
    return ScenarioSpec(
        kind="fig5",
        name="fig5",
        measurement=options.measurement(),
        seed=_seed(options, 100),
    )


DEFAULT_REGISTRY.register(
    RegistryEntry(
        name="fig5",
        title="CPA spread spectra, chips I and II, active and inactive",
        paper_ref="Fig. 5",
        factory=_fig5_spec,
    )
)


def _register_fig5_panels() -> None:
    from repro.pipeline.stages import fig5_panel_spec

    for chip_name in ("chip1", "chip2"):
        for active in (True, False):
            state = "active" if active else "inactive"

            def factory(
                options: RunOptions, chip_name: str = chip_name, active: bool = active
            ) -> ScenarioSpec:
                return fig5_panel_spec(_fig5_spec(options), chip_name, active)

            DEFAULT_REGISTRY.register(
                RegistryEntry(
                    name=f"fig5/{chip_name}-{state}",
                    title=f"CPA spread spectrum, {chip_name}, watermark {state}",
                    paper_ref="Fig. 5",
                    factory=factory,
                )
            )


_register_fig5_panels()


def _fig6_spec(options: RunOptions) -> ScenarioSpec:
    if options.repetitions is not None:
        repetitions = options.repetitions
    else:
        repetitions = QUICK_REPETITIONS if options.quick else 100
    return ScenarioSpec(
        kind="fig6",
        name="fig6",
        measurement=options.measurement(),
        seed=_seed(options, 1_000),
        repetitions=repetitions,
    )


DEFAULT_REGISTRY.register(
    RegistryEntry(
        name="fig6",
        title="Detection repeatability over repeated acquisitions",
        paper_ref="Fig. 6",
        factory=_fig6_spec,
    )
)


def _register_fig6_chips() -> None:
    from repro.pipeline.stages import fig6_chip_spec

    for chip_name in ("chip1", "chip2"):

        def factory(options: RunOptions, chip_name: str = chip_name) -> ScenarioSpec:
            return fig6_chip_spec(_fig6_spec(options), chip_name)

        DEFAULT_REGISTRY.register(
            RegistryEntry(
                name=f"fig6/{chip_name}",
                title=f"Detection repeatability campaign on {chip_name}",
                paper_ref="Fig. 6",
                factory=factory,
            )
        )


_register_fig6_chips()


@_register("table1", "Power of the placed-and-routed load circuit", "Table I")
def _table1(options: RunOptions) -> ScenarioSpec:
    return ScenarioSpec(kind="table1", name="table1", seed=_seed(options, 0))


@_register("table2", "Load-circuit implementation costs vs required power", "Table II")
def _table2(options: RunOptions) -> ScenarioSpec:
    return ScenarioSpec(kind="table2", name="table2", seed=_seed(options, 0))


@_register("robustness", "Removal-attack robustness of both architectures", "Sec. VI")
def _robustness(options: RunOptions) -> ScenarioSpec:
    return ScenarioSpec(kind="robustness", name="robustness", seed=_seed(options, 0))


@_register(
    "detection-probability",
    "Empirical detection probability vs acquisition length",
    "beyond paper (campaign)",
)
def _detection_probability(options: RunOptions) -> ScenarioSpec:
    trials = 20 if options.quick else 50
    cycle_counts = [5_000, 20_000, 80_000] if options.quick else [5_000, 20_000, 80_000, 160_000]
    return ScenarioSpec(
        kind="detection_probability",
        name="detection-probability",
        watermark=WatermarkConfig(lfsr_width=8, lfsr_seed=0x2D),
        detection=DetectionConfig(),
        seed=_seed(options, 1),
        params={
            "watermark_amplitude_w": 1.5e-3,
            "noise_sigma_w": 25e-3,
            "cycle_counts": cycle_counts,
            "trials_per_point": trials,
        },
    )


@_register(
    "masking-noise",
    "Noise-injection masking attack sweep",
    "beyond paper (Sec. VI flip side)",
)
def _masking_noise(options: RunOptions) -> ScenarioSpec:
    return ScenarioSpec(
        kind="masking_noise",
        name="masking-noise",
        measurement=options.measurement(),
        seed=_seed(options, 0),
        params={"trials_per_point": 3 if options.quick else 5},
    )


@_register(
    "masking-starvation",
    "Clock-enable starvation masking attack sweep",
    "beyond paper (Sec. VI flip side)",
)
def _masking_starvation(options: RunOptions) -> ScenarioSpec:
    return ScenarioSpec(
        kind="masking_starvation",
        name="masking-starvation",
        measurement=options.measurement(),
        seed=_seed(options, 0),
        params={"trials_per_point": 3 if options.quick else 5},
    )
